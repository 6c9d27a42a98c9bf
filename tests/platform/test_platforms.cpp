#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "platform/base_platform.h"

namespace vc::platform {
namespace {

const GeoPoint kVirginia{38.9, -77.4};
const GeoPoint kCalifornia{37.8, -122.4};

struct PlatformFixture : public ::testing::Test {
  PlatformFixture() : net(std::make_unique<net::GeoLatencyModel>(), 1) {}

  ClientRef make_client(const std::string& name, GeoPoint where, std::uint16_t port = 47000) {
    net::Host& h = net.add_host(name, where);
    h.udp_bind(port);
    return ClientRef{&h, port, DeviceClass::kCloudVm, ViewMode::kFullScreen, true};
  }

  net::Network net;
};

TEST_F(PlatformFixture, TraitsMatchPaper) {
  ZoomPlatform zoom{net};
  WebexPlatform webex{net};
  MeetPlatform meet{net};
  EXPECT_EQ(zoom.traits().media_port, 8801);
  EXPECT_EQ(webex.traits().media_port, 9000);
  EXPECT_EQ(meet.traits().media_port, 19305);
  EXPECT_TRUE(zoom.traits().p2p_for_two);
  EXPECT_FALSE(webex.traits().p2p_for_two);
  EXPECT_FALSE(meet.traits().supports_gallery);
  EXPECT_EQ(zoom.traits().audio_rate, DataRate::kbps(90));
  EXPECT_EQ(webex.traits().audio_rate, DataRate::kbps(45));
  EXPECT_EQ(meet.traits().audio_rate, DataRate::kbps(40));
}

TEST_F(PlatformFixture, ZoomTwoPartyIsP2p) {
  ZoomPlatform zoom{net};
  const auto host = make_client("host", kVirginia);
  const auto peer = make_client("peer", kCalifornia);
  std::vector<RouteInfo> host_routes;
  std::vector<RouteInfo> peer_routes;
  const auto meeting =
      zoom.create_meeting(host, [&](RouteInfo r) { host_routes.push_back(r); });
  zoom.join(meeting, peer, [&](RouteInfo r) { peer_routes.push_back(r); });
  ASSERT_FALSE(host_routes.empty());
  ASSERT_FALSE(peer_routes.empty());
  EXPECT_TRUE(host_routes.back().p2p);
  EXPECT_TRUE(peer_routes.back().p2p);
  // Each is routed to the *other's* client endpoint (ephemeral-port P2P).
  EXPECT_EQ(host_routes.back().media_endpoint.ip, peer.host->ip());
  EXPECT_EQ(peer_routes.back().media_endpoint.ip, host.host->ip());
}

TEST_F(PlatformFixture, ZoomThirdParticipantForcesRelay) {
  ZoomPlatform zoom{net};
  const auto host = make_client("host", kVirginia);
  const auto p2 = make_client("p2", kCalifornia);
  const auto p3 = make_client("p3", kVirginia, 47001);
  std::vector<RouteInfo> host_routes;
  const auto meeting = zoom.create_meeting(host, [&](RouteInfo r) { host_routes.push_back(r); });
  zoom.join(meeting, p2, [](RouteInfo) {});
  RouteInfo p3_route;
  zoom.join(meeting, p3, [&](RouteInfo r) { p3_route = r; });
  // Host was re-routed from P2P to the relay endpoint.
  ASSERT_GE(host_routes.size(), 2u);
  EXPECT_TRUE(host_routes[0].p2p);
  EXPECT_FALSE(host_routes.back().p2p);
  EXPECT_EQ(host_routes.back().media_endpoint.port, 8801);
  EXPECT_EQ(host_routes.back().media_endpoint, p3_route.media_endpoint);  // single relay
}

TEST_F(PlatformFixture, WebexSingleRelayPerMeetingAtUsEast) {
  WebexPlatform webex{net};
  const auto host = make_client("host", kCalifornia);
  const auto p2 = make_client("p2", kCalifornia, 47001);
  RouteInfo host_route;
  RouteInfo p2_route;
  const auto meeting = webex.create_meeting(host, [&](RouteInfo r) { host_route = r; });
  webex.join(meeting, p2, [&](RouteInfo r) { p2_route = r; });
  EXPECT_FALSE(host_route.p2p);
  EXPECT_EQ(host_route.media_endpoint, p2_route.media_endpoint);
  EXPECT_EQ(host_route.media_endpoint.port, 9000);
  // Even for an all-West-coast meeting the relay sits in US-east (Fig 9b).
  net::Host* relay_host = net.host(host_route.media_endpoint.ip);
  ASSERT_NE(relay_host, nullptr);
  EXPECT_GT(relay_host->location().lon_deg, -90.0);
}

TEST_F(PlatformFixture, MeetPerClientFrontEnds) {
  MeetPlatform meet{net};
  const auto host = make_client("host", kVirginia);
  const auto p2 = make_client("p2", GeoPoint{51.5, -0.1});  // London
  RouteInfo host_route;
  RouteInfo p2_route;
  const auto meeting = meet.create_meeting(host, [&](RouteInfo r) { host_route = r; });
  meet.join(meeting, p2, [&](RouteInfo r) { p2_route = r; });
  // Each client gets its own, geographically close front-end.
  EXPECT_NE(host_route.media_endpoint, p2_route.media_endpoint);
  const auto* host_fe = net.host(host_route.media_endpoint.ip);
  const auto* p2_fe = net.host(p2_route.media_endpoint.ip);
  EXPECT_LT(great_circle_km(host_fe->location(), kVirginia), 1500.0);
  EXPECT_LT(great_circle_km(p2_fe->location(), GeoPoint{51.5, -0.1}), 600.0);
}

TEST_F(PlatformFixture, ParticipantCountTracksRoster) {
  WebexPlatform webex{net};
  const auto host = make_client("host", kVirginia);
  const auto p2 = make_client("p2", kVirginia, 47001);
  const auto meeting = webex.create_meeting(host, [](RouteInfo) {});
  EXPECT_EQ(webex.participant_count(meeting), 1);
  const auto id2 = webex.join(meeting, p2, [](RouteInfo) {});
  EXPECT_EQ(webex.participant_count(meeting), 2);
  webex.leave(meeting, id2);
  EXPECT_EQ(webex.participant_count(meeting), 1);
  EXPECT_EQ(webex.participant_count(999), 0);
}

TEST_F(PlatformFixture, MeetingEndsWhenLastLeaves) {
  WebexPlatform webex{net};
  const auto host = make_client("host", kVirginia);
  const auto meeting = webex.create_meeting(host, [](RouteInfo) {});
  webex.leave(meeting, 1);
  EXPECT_EQ(webex.participant_count(meeting), 0);
}

TEST_F(PlatformFixture, JoinUnknownMeetingThrows) {
  ZoomPlatform zoom{net};
  const auto c = make_client("c", kVirginia);
  EXPECT_THROW(zoom.join(12345, c, [](RouteInfo) {}), std::invalid_argument);
}

TEST_F(PlatformFixture, FactoryCreatesRequestedPlatform) {
  for (const auto id : {PlatformId::kZoom, PlatformId::kWebex, PlatformId::kMeet}) {
    const auto p = make_platform(id, net);
    EXPECT_EQ(p->traits().id, id);
  }
}

TEST_F(PlatformFixture, DistinctMeetingsGetDistinctZoomRelays) {
  ZoomPlatform zoom{net};
  std::vector<net::Endpoint> endpoints;
  for (int i = 0; i < 5; ++i) {
    const auto host = make_client(std::string{"h"}.append(std::to_string(i)), kVirginia,
                                  static_cast<std::uint16_t>(48000 + i));
    const auto a = make_client(std::string{"a"}.append(std::to_string(i)), kVirginia,
                               static_cast<std::uint16_t>(48100 + i));
    const auto b = make_client(std::string{"b"}.append(std::to_string(i)), kCalifornia,
                               static_cast<std::uint16_t>(48200 + i));
    RouteInfo route;
    const auto meeting = zoom.create_meeting(host, [&](RouteInfo r) { route = r; });
    zoom.join(meeting, a, [](RouteInfo) {});
    zoom.join(meeting, b, [](RouteInfo) {});
    endpoints.push_back(route.media_endpoint);
  }
  for (std::size_t i = 1; i < endpoints.size(); ++i) {
    EXPECT_NE(endpoints[i].ip, endpoints[0].ip);
  }
}

}  // namespace
}  // namespace vc::platform

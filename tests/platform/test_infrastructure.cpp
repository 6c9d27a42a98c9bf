#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "platform/infrastructure.h"

namespace vc::platform {
namespace {

const GeoPoint kVirginia{38.9, -77.4};
const GeoPoint kCalifornia{37.8, -122.4};
const GeoPoint kZurich{47.38, 8.54};
const GeoPoint kLondon{51.51, -0.13};

net::Network make_net() {
  return net::Network{std::make_unique<net::GeoLatencyModel>(), 1};
}

TEST(Sites, FootprintsMatchPaper) {
  // Zoom and Webex (free tier) are US-only; Meet spans Europe too.
  for (const auto& s : platform_sites(PlatformId::kZoom)) EXPECT_LT(s.location.lon_deg, -30.0);
  EXPECT_EQ(platform_sites(PlatformId::kWebex).size(), 1u);
  EXPECT_LT(platform_sites(PlatformId::kWebex)[0].location.lon_deg, -70.0);
  bool meet_has_eu = false;
  for (const auto& s : platform_sites(PlatformId::kMeet)) {
    if (s.location.lon_deg > -30.0) meet_has_eu = true;
  }
  EXPECT_TRUE(meet_has_eu);
}

TEST(Allocator, ZoomFreshRelayEverySession) {
  auto net = make_net();
  RelayAllocator alloc{net, PlatformId::kZoom, 8801, 7};
  std::unordered_set<net::IpAddr> ips;
  for (int i = 0; i < 20; ++i) ips.insert(alloc.zoom_session_relay(kVirginia)->endpoint().ip);
  EXPECT_EQ(ips.size(), 20u);  // ~20 distinct endpoints over 20 sessions
}

TEST(Allocator, ZoomUsHostGetsNearbyRegion) {
  auto net = make_net();
  RelayAllocator alloc{net, PlatformId::kZoom, 8801, 7};
  // East host → east relay; west host → west relay.
  RelayServer* east = alloc.zoom_session_relay(kVirginia);
  RelayServer* west = alloc.zoom_session_relay(kCalifornia);
  EXPECT_LT(great_circle_km(east->host().location(), kVirginia), 500.0);
  EXPECT_LT(great_circle_km(west->host().location(), kCalifornia), 500.0);
}

TEST(Allocator, ZoomEuHostLoadBalancedAcrossUsRegions) {
  auto net = make_net();
  RelayAllocator alloc{net, PlatformId::kZoom, 8801, 7};
  std::unordered_set<std::string> regions;
  for (int i = 0; i < 40; ++i) {
    const auto& loc = alloc.zoom_session_relay(kZurich)->host().location();
    // All relays stay in the US...
    EXPECT_LT(loc.lon_deg, -30.0);
    regions.insert(std::to_string(static_cast<int>(loc.lon_deg)));
  }
  // ...but spread across the three regions (the trimodal RTTs of Fig 10a).
  EXPECT_EQ(regions.size(), 3u);
}

TEST(Allocator, WebexAlwaysUsEast) {
  auto net = make_net();
  RelayAllocator alloc{net, PlatformId::kWebex, 9000, 7};
  for (int i = 0; i < 10; ++i) {
    const auto& loc = alloc.webex_session_relay()->host().location();
    EXPECT_LT(great_circle_km(loc, kVirginia), 500.0);
  }
}

TEST(Allocator, WebexOccasionallyReusesRelay) {
  auto net = make_net();
  RelayAllocator alloc{net, PlatformId::kWebex, 9000, 7};
  std::unordered_set<net::IpAddr> ips;
  const int sessions = 400;
  for (int i = 0; i < sessions; ++i) ips.insert(alloc.webex_session_relay()->endpoint().ip);
  // ~2.5% reuse: distinct count just below the session count.
  EXPECT_LT(ips.size(), static_cast<std::size_t>(sessions));
  EXPECT_GT(ips.size(), static_cast<std::size_t>(sessions * 0.9));
}

TEST(Allocator, MeetFrontEndNearClientAndSticky) {
  auto net = make_net();
  RelayAllocator alloc{net, PlatformId::kMeet, 19305, 7};
  net::Host& london_client = net.add_host("uk-client", kLondon);
  std::unordered_set<net::IpAddr> ips;
  for (int i = 0; i < 20; ++i) {
    RelayServer* fe = alloc.meet_front_end(london_client);
    EXPECT_LT(great_circle_km(fe->host().location(), kLondon), 600.0);  // nearby front-end
    ips.insert(fe->endpoint().ip);
  }
  // Sticky: only the primary/secondary pair ever shows up (paper: 1.8 avg).
  EXPECT_LE(ips.size(), 2u);
}

TEST(Allocator, MeetStickinessAveragesNearPaperValue) {
  auto net = make_net();
  RelayAllocator alloc{net, PlatformId::kMeet, 19305, 77};
  double total = 0;
  const int clients = 60;
  for (int c = 0; c < clients; ++c) {
    net::Host& client = net.add_host(std::string{"c"}.append(std::to_string(c)), kLondon);
    std::unordered_set<net::IpAddr> ips;
    for (int s = 0; s < 20; ++s) ips.insert(alloc.meet_front_end(client)->endpoint().ip);
    total += static_cast<double>(ips.size());
  }
  EXPECT_NEAR(total / clients, 1.8, 0.25);
}

TEST(Allocator, DistinctClientsGetDistinctFrontEnds) {
  auto net = make_net();
  RelayAllocator alloc{net, PlatformId::kMeet, 19305, 7};
  net::Host& a = net.add_host("a", kLondon);
  net::Host& b = net.add_host("b", kZurich);
  EXPECT_NE(alloc.meet_front_end(a)->endpoint().ip, alloc.meet_front_end(b)->endpoint().ip);
}

}  // namespace
}  // namespace vc::platform

// Shared helpers for the figure/table regeneration binaries.
//
// Each binary defaults to a reduced-scale run (enough sessions to show the
// paper's shapes in seconds-to-minutes on a laptop); pass --paper to run at
// the paper's full scale (20 sessions × 2 min lag runs, 10 × 5 min QoE
// sessions, 5 repetitions per mobile scenario).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "platform/platform.h"

namespace vcb {

inline bool paper_scale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper") == 0) return true;
  }
  return false;
}

/// `--name <int>` style flag; returns `fallback` when absent or malformed.
inline int int_flag(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

/// `--name <double>` style flag; returns `fallback` when absent.
inline double double_flag(int argc, char** argv, const char* name, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

/// `--name <text>` style flag; returns `fallback` when absent.
inline std::string string_flag(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

inline const std::vector<vc::platform::PlatformId>& all_platforms() {
  static const std::vector<vc::platform::PlatformId> kAll = {
      vc::platform::PlatformId::kZoom,
      vc::platform::PlatformId::kWebex,
      vc::platform::PlatformId::kMeet,
  };
  return kAll;
}

inline void banner(const std::string& title, bool paper) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("scale: %s (pass --paper for the paper's full scale)\n",
              paper ? "paper" : "reduced");
  std::printf("================================================================\n\n");
}

/// Renders selected percentiles of a sample, CDF-style.
inline std::string cdf_row(const std::vector<double>& samples) {
  if (samples.empty()) return "-";
  std::string out;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    out += vc::TextTable::num(vc::quantile(std::vector<double>(samples), q), 1);
    out += q < 0.9 ? "/" : "";
  }
  return out;
}

}  // namespace vcb

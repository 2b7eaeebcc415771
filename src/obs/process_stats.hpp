// Process-level memory probes for the scale tests and the fig11 memory
// columns: current and peak resident set size, read from /proc/self/status
// (Linux). On platforms without procfs the readers return 0, and callers
// (tests, bench JSON) treat 0 as "unavailable" rather than failing.
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace speedlight::obs {

namespace detail {
inline std::uint64_t proc_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  if (!in) return 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(std::string(key).size()));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}
}  // namespace detail

/// Current resident set size in KiB (0 when unavailable).
[[nodiscard]] inline std::uint64_t current_rss_kb() {
  return detail::proc_status_kb("VmRSS:");
}

/// Resident anonymous memory (heap and anonymous mappings) in KiB (0 when
/// unavailable). Unlike current_rss_kb() it leaves out code pages, which a
/// forked child faults back in as it runs.
[[nodiscard]] inline std::uint64_t current_anon_rss_kb() {
  return detail::proc_status_kb("RssAnon:");
}

/// Peak resident set size (high-water mark) in KiB (0 when unavailable).
[[nodiscard]] inline std::uint64_t peak_rss_kb() {
  return detail::proc_status_kb("VmHWM:");
}

}  // namespace speedlight::obs

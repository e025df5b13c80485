#include "obs/profiler.hpp"

#include <cstdio>
#include <string>

#include "util/rss.hpp"

namespace pcs::obs {

namespace {

util::Json section_json(const ProfileSection& s) {
  util::Json doc{util::JsonObject{}};
  doc.set("seconds", s.seconds);
  doc.set("count", static_cast<unsigned long>(s.count));
  return doc;
}

void report_line(std::string& out, const char* name, const ProfileSection& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-16s %10.6f s  (%llu calls)\n", name, s.seconds,
                static_cast<unsigned long long>(s.count));
  out += buf;
}

}  // namespace

util::Json EngineProfile::to_json() const {
  util::Json doc{util::JsonObject{}};
  doc.set("recompute_rates", section_json(recompute_rates));
  doc.set("bfs", section_json(bfs));
  doc.set("solve", section_json(solve));
  doc.set("merge", section_json(merge));
  doc.set("dispatch", section_json(dispatch));
  // Sampled at serialization time: the process high-water mark, 0 where the
  // probe is unavailable.  Host-side, like every other number in here.
  doc.set("peak_rss_kb", static_cast<unsigned long>(util::peak_rss_kb()));
  return doc;
}

std::string EngineProfile::report() const {
  std::string out = "engine self-profile (wall clock):\n";
  report_line(out, "recompute_rates", recompute_rates);
  report_line(out, "bfs", bfs);
  report_line(out, "solve", solve);
  report_line(out, "merge", merge);
  report_line(out, "dispatch", dispatch);
  if (const std::uint64_t rss = util::peak_rss_kb(); rss != 0) {
    char buf[80];
    std::snprintf(buf, sizeof(buf), "  %-16s %10llu kB\n", "peak rss",
                  static_cast<unsigned long long>(rss));
    out += buf;
  }
  return out;
}

}  // namespace pcs::obs

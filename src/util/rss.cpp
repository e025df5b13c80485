#include "util/rss.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#ifdef __GLIBC__  // defined once any libc header is in
#include <malloc.h>
#endif

namespace pcs::util {

std::uint64_t peak_rss_kb() {
  // "VmHWM:    123456 kB" — the high-water mark of the resident set.
  std::ifstream status("/proc/self/status");
  if (!status) return 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

bool reset_peak_rss() {
#ifdef __GLIBC__
  // Hand freed heap back to the OS first, or the reset peak starts at
  // whatever the allocator kept cached from earlier work.
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace pcs::util

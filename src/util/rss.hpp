// Host-process memory probe: peak resident set size.
//
// Wall-clock/host-side quantities never enter simulated reports; this one
// feeds the `--profile` stderr report, the `self_profile`/`arena_soa`
// sections of BENCH_core.json and the bench harness — the same quarantine
// every steady_clock figure lives under.
#pragma once

#include <cstdint>

namespace pcs::util {

/// Peak resident set size of this process in kilobytes (Linux: VmHWM from
/// /proc/self/status).  Returns 0 where the probe is unavailable, so
/// callers can gate on `!= 0` instead of platform ifdefs.
[[nodiscard]] std::uint64_t peak_rss_kb();

/// Reset the peak to the current resident set size (Linux: trims the
/// glibc heap, then writes "5" to /proc/self/clear_refs), so the next
/// peak_rss_kb() covers only what runs after this call.  Returns false
/// where the reset is unsupported; the peak then keeps its process-lifetime
/// meaning.
bool reset_peak_rss();

}  // namespace pcs::util

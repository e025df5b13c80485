// Measurement helpers for bench_e2e: order statistics, the result
// fingerprint, and in-memory spans written out as Chrome trace events.
// Everything here measures the simulator from outside: spans wrap the
// harness's calls into the library's public functions.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/run_result.hpp"
#include "util/stats.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The instant `seconds` from now.
inline Clock::time_point after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// --- order statistics --------------------------------------------------------

/// Median with linear interpolation; 0 for no samples (a run killed before
/// its first pass).
inline double median(std::vector<double> v) {
  return v.empty() ? 0.0 : pcs::util::percentile(std::move(v), 50.0);
}

/// First and third quartiles as Python's statistics.quantiles(v, n=4)
/// computes them (the default "exclusive" method), so spreads printed here
/// match the ones recomputed from a results file with Python.
inline std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const auto m = static_cast<long>(v.size()) + 1;
  auto cut = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(v.size()) - 1);
    const long delta = i * m - 4 * j;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    return (lo * static_cast<double>(4 - delta) + hi * static_cast<double>(delta)) / 4.0;
  };
  return {cut(1), cut(3)};
}

// --- fingerprints ------------------------------------------------------------

class Fnv {
 public:
  void add(const std::string& s) {
    for (char c : s) h_ = (h_ ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    h_ = (h_ ^ 0xffU) * 1099511628211ULL;  // field separator
  }
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add(std::string(buf));
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Hash of the makespan and every task's phase boundaries, printed %.17g:
/// any change to a simulated time changes it.
inline std::string fingerprint(const pcs::scenario::RunResult& r) {
  Fnv h;
  h.add(r.makespan);
  for (const pcs::wf::TaskResult& t : r.tasks) {
    h.add(t.name);
    for (double v : {t.start, t.read_start, t.read_end, t.compute_end, t.write_end, t.end}) {
      h.add(v);
    }
  }
  return h.hex();
}

inline std::string fingerprint_text(const std::string& text) {
  Fnv h;
  h.add(text);
  return h.hex();
}

// --- spans -------------------------------------------------------------------

/// Structural spans: their self time is harness work (loops, oracle checks,
/// fingerprinting) and is reported as unattributed, not as a layer.
inline bool is_container_span(const std::string& name) {
  return name == "pass" || name == "setup" || name == "case";
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;     ///< index into Tracer::spans(), -1 = root
  int case_index = -1; ///< -1 outside a case
};

/// Keeps spans in memory; written out once the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const std::string& name, int case_index) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (case_index < 0 && parent >= 0) {
      case_index = spans_[static_cast<std::size_t>(parent)].case_index;
    }
    spans_.push_back({name, now(), 0.0, parent, case_index});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  [[nodiscard]] double now() const { return seconds_between(origin_, Clock::now()); }

  /// Self time per span name over spans [first, end): duration minus the
  /// part covered by child spans.
  [[nodiscard]] std::map<std::string, double> self_times(std::size_t first) const {
    std::map<std::string, double> self;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name] += s.end - s.start;
      if (s.parent >= static_cast<int>(first)) {
        self[spans_[static_cast<std::size_t>(s.parent)].name] -= s.end - s.start;
      }
    }
    return self;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op without a tracer, so untraced code paths stay plain.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, int case_index = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name, case_index) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span early; returns its duration (0 without a tracer).
  double close() {
    if (tracer_ == nullptr || id_ < 0) return 0.0;
    tracer_->close(id_);
    const double d = tracer_->duration(id_);
    id_ = -1;
    return d;
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace e2e

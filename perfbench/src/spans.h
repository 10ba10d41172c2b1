#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// In-memory spans recorded by the benchmark around the public calls it
/// makes into each layer, plus the statistics the report needs.
///
/// A span has a name, start, end, parent and batch id. Spans stay in
/// memory while the run measures and are written out when it ends. A
/// layer's self time is its span's duration minus the part of that
/// interval its child spans cover.

namespace impreg::perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time the calling thread has run, in ns. Time the thread spends
/// waiting (for a core the host gave away, for the scheduler, for I/O)
/// does not count.
inline std::int64_t ThreadCpuNs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

struct Span {
  /// A string literal naming the layer call ("wire.parse", ...).
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the parent span, or -1 for a root.
  int parent = -1;
  std::int64_t batch = 0;
};

/// Records spans when enabled; every call is a no-op returning -1 when
/// disabled, so untraced runs read the clock only where they must.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name, int parent, std::int64_t batch) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, batch});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id >= 0) spans_[id].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-name totals over a span list.
struct LayerTime {
  std::int64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
std::vector<double> SelfTimesNs(const std::vector<Span>& spans);

/// Count, total and self time per span name.
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

/// The q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Writes spans as CSV (index,parent,batch,name,start_ns,end_ns);
/// false on an I/O error.
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace impreg::perfbench

#endif  // PERFBENCH_SPANS_H_

// Spans and summary statistics of the benchmark's traced run.
//
// Spans are recorded by the benchmark around calls into each module's public
// entry point (the engine itself carries no tracing). Each session thread
// owns one SpanLog, so recording takes no lock; the logs are kept in memory
// and written out once, after the run.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call: the query it belongs to, the layer entry point it wraps,
/// and the span that caused it ("" for a query's root span).
struct Span {
  int64_t query = 0;
  const char* name = "";
  const char* parent = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Append-only span buffer of one session thread.
class SpanLog {
 public:
  /// Runs `fn`, records its span, and returns its result.
  template <typename Fn>
  auto Time(int64_t query, const char* name, const char* parent, Fn&& fn) {
    int64_t start = NowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({query, name, parent, start, NowNs()});
    } else {
      auto out = fn();
      spans_.push_back({query, name, parent, start, NowNs()});
      return out;
    }
  }

  void Add(const Span& span) { spans_.push_back(span); }

  /// Duration of the most recent span, in microseconds.
  double last_us() const { return spans_.empty() ? 0 : spans_.back().us(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Writes every span as one tab-separated line (query, session, name,
/// parent, start_ns, end_ns). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs);

/// Nearest-rank percentile (`p` in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Number of samples strictly above `threshold`.
int64_t CountAbove(const std::vector<double>& values, double threshold);

/// Median of `values`; 0 when empty.
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

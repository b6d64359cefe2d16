#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/// \file
/// Pure helpers of the benchmark harness: the percentile rule, span self
/// times and root attribution, and the metric/report output. Nothing here
/// touches the library, so tests/harness_test.cc can pin every rule on
/// synthetic data.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady_clock points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- Percentiles -----------------------------------------------------------

/// Samples a tail percentile needs beyond it before it is reported.
inline constexpr size_t kMinBeyond = 10;

/// A nearest-rank percentile and the evidence behind it.
struct Percentile {
  double value = 0.0;  ///< sorted[rank - 1]
  size_t count = 0;    ///< samples the percentile was taken over
  size_t beyond = 0;   ///< samples strictly above the rank
};

/// The nearest-rank q-percentile of \p samples (any order). Empty when
/// fewer than kMinBeyond samples lie beyond the rank, so a p99 needs at
/// least 1000 samples.
std::optional<Percentile> PercentileOf(std::vector<double> samples, double q);

/// Median of \p values (mean of the middle two for even sizes); NaN when
/// empty.
double Median(std::vector<double> values);

// --- Spans ------------------------------------------------------------------

/// One traced interval. Spans of one operation share `op`; `parent` is
/// the index of the enclosing span in the same log, or -1 for the root.
struct Span {
  const char* name = "";
  uint64_t op = 0;
  int parent = -1;
  double start = 0.0;  ///< seconds since the run's epoch
  double end = 0.0;
};

/// Append-only span log owned by one thread.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Records a span and returns its index for use as a parent.
  int Add(const char* name, uint64_t op, int parent, Clock::time_point start,
          Clock::time_point end);
  /// Same, with times already in seconds since the epoch.
  int AddSeconds(const char* name, uint64_t op, int parent, double start,
                 double end);

  double Since(Clock::time_point t) const { return Seconds(epoch_, t); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Appends \p from to \p into, shifting parent indices past \p into's
/// spans (each log numbers its parents from zero).
void AppendSpans(std::vector<Span>& into, const std::vector<Span>& from);

/// Per span name: how many spans, their summed duration and self time.
/// A span's self time is its duration minus the part of it its direct
/// children cover (overlapping children are counted once, parts outside
/// the span not at all).
struct LayerTotals {
  std::string name;
  size_t count = 0;
  double total = 0.0;
  double self = 0.0;
};

/// Aggregates \p spans by name (sorted by name).
std::vector<LayerTotals> AggregateSpans(const std::vector<Span>& spans);

/// Least share of a kind of root span that its layer spans must account
/// for, summed over every root of that name; a traced run with a kind
/// below it fails. Summing keeps a single root the host preempted
/// between two calls from failing the run, while a layer span missing
/// from every root still does.
inline constexpr double kMinRootAttribution = 0.95;

/// How much of one kind of root span its children cover. A root's share
/// is 1 - its self time / its duration: nested children's self times sum
/// to it, so it is 1 when the layer spans account for the whole root and
/// falls with every gap between them.
struct RootShare {
  std::string name;
  size_t roots = 0;    ///< roots of positive duration with this name
  double share = 0.0;  ///< children's cover / duration, summed over roots
  double least = 0.0;  ///< smallest share of a single root
};

/// Per root span name (sorted by name), the share of those roots' summed
/// duration that their children cover.
std::vector<RootShare> AttributeRoots(const std::vector<Span>& spans);

/// Writes \p spans as JSON lines to \p path; false on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// --- Report -----------------------------------------------------------------

/// One named figure of a run.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< printed in the text report only
};

/// Collects metrics and correctness findings, and prints both reports.
class Report {
 public:
  void Add(std::string name, std::string unit, double value,
           std::string note = "");
  /// Adds \p name, the median of \p samples scaled by \p scale. The
  /// text report also shows the p99 when the percentile rule supports it.
  void AddMedian(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples, double scale = 1.0);

  /// Records a correctness violation; any violation fails the run.
  void Fail(const std::string& what);
  bool correct() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

  size_t attempted = 0;
  size_t failed = 0;

  /// `name = value unit  (note)` lines for humans.
  std::string Text() const;
  /// The one-line JSON result: correct, attempted, failed, metrics.
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

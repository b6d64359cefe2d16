#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

namespace perfbench {

std::optional<Percentile> PercentileOf(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank, 1-based; the epsilon keeps 0.99 * 1000 at rank 990.
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], n, n - rank};
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void AppendSpans(std::vector<Span>& into, const std::vector<Span>& from) {
  const int offset = static_cast<int>(into.size());
  for (Span span : from) {
    if (span.parent >= 0) span.parent += offset;
    into.push_back(span);
  }
}

namespace {

/// \p span's duration minus the union of \p children clipped to it.
double Uncovered(const Span& span,
                 std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, reach);
    hi = std::min(hi, span.end);
    if (hi > lo) covered += hi - lo;
    reach = std::max(reach, hi);
  }
  return (span.end - span.start) - covered;
}

/// Self times of every span, with one pass to collect the children.
std::vector<double> AllSelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = Uncovered(spans[i], std::move(children[i]));
  }
  return self;
}

}  // namespace

int SpanLog::Add(const char* name, uint64_t op, int parent,
                 Clock::time_point start, Clock::time_point end) {
  return AddSeconds(name, op, parent, Since(start), Since(end));
}

int SpanLog::AddSeconds(const char* name, uint64_t op, int parent,
                        double start, double end) {
  spans_.push_back(Span{name, op, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<LayerTotals> AggregateSpans(const std::vector<Span>& spans) {
  const std::vector<double> self = AllSelfTimes(spans);
  std::vector<LayerTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(totals.begin(), totals.end(), [&](const auto& t) {
      return t.name == spans[i].name;
    });
    if (it == totals.end()) {
      totals.push_back(LayerTotals{spans[i].name});
      it = totals.end() - 1;
    }
    ++it->count;
    it->total += spans[i].end - spans[i].start;
    it->self += self[i];
  }
  std::sort(totals.begin(), totals.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return totals;
}

std::vector<RootShare> AttributeRoots(const std::vector<Span>& spans) {
  const std::vector<double> self = AllSelfTimes(spans);
  struct Sums {
    RootShare kind;
    double covered = 0.0;
    double duration = 0.0;
  };
  std::map<std::string, Sums> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end - spans[i].start;
    if (spans[i].parent >= 0 || duration <= 0.0) continue;
    Sums& sums = by_name[spans[i].name];
    const double share = 1.0 - self[i] / duration;
    sums.kind.least =
        sums.kind.roots == 0 ? share : std::min(sums.kind.least, share);
    ++sums.kind.roots;
    sums.covered += duration - self[i];
    sums.duration += duration;
  }
  std::vector<RootShare> shares;
  for (auto& [name, sums] : by_name) {
    sums.kind.name = name;
    sums.kind.share = sums.covered / sums.duration;
    shares.push_back(sums.kind);
  }
  return shares;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                  "\"start\":%.9f,\"end\":%.9f}\n",
                  s.name, static_cast<unsigned long long>(s.op), s.parent,
                  s.start, s.end);
    out << line;
  }
  return static_cast<bool>(out);
}

void Report::Add(std::string name, std::string unit, double value,
                 std::string note) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back(
      Metric{std::move(name), std::move(unit), value, std::move(note)});
}

void Report::AddMedian(const std::string& name, const std::string& unit,
                       const std::vector<double>& samples, double scale) {
  char note[128];
  int n = std::snprintf(note, sizeof(note), "median of %zu", samples.size());
  if (const auto p99 = PercentileOf(samples, 0.99)) {
    std::snprintf(note + n, sizeof(note) - n, "; p99 %.6g %s, %zu beyond",
                  p99->value * scale, unit.c_str(), p99->beyond);
  }
  Add(name, unit, Median(samples) * scale, note);
}

void Report::Fail(const std::string& what) { violations_.push_back(what); }

std::string Report::Text() const {
  std::ostringstream out;
  for (const Metric& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-40s %16.9g %-6s", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << line;
    if (!m.note.empty()) out << "  (" << m.note << ")";
    out << "\n";
  }
  for (const std::string& v : violations_) out << "VIOLATION: " << v << "\n";
  return out.str();
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    // JSON has no NaN or infinity; a non-finite metric already failed
    // the run.
    char value[64] = "null";
    if (std::isfinite(metrics_[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    }
    out << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench

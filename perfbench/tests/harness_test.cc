// Tests of the harness's pure helpers: the percentile rule, span self
// times and root attribution, and the report's lines. Self-contained
// (no test framework) so the benchmark package needs nothing beyond a
// compiler; exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,      \
                   __LINE__, #cond);                                    \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using namespace perfbench;

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void TestPercentileNeedsTenBeyond() {
  // p99 of 1000 samples is rank 990 with exactly 10 beyond: reported.
  const auto p99 = PercentileOf(Iota(1000), 0.99);
  EXPECT(p99.has_value());
  EXPECT(p99 && p99->value == 990.0 && p99->beyond == 10 &&
         p99->count == 1000);
  // 999 samples leave only 9 beyond rank 990: not reported.
  EXPECT(!PercentileOf(Iota(999), 0.99).has_value());
  // p50 needs 20 samples; order of the input does not matter.
  std::vector<double> shuffled = {5, 3, 19, 1, 7, 2, 20, 4, 6, 8,
                                  9, 10, 11, 12, 13, 14, 15, 16, 17, 18};
  const auto p50 = PercentileOf(shuffled, 0.5);
  EXPECT(p50 && p50->value == 10.0 && p50->beyond == 10);
  EXPECT(!PercentileOf(Iota(19), 0.5).has_value());
  EXPECT(!PercentileOf({}, 0.5).has_value());
  // p99.9 needs 10,000 samples.
  EXPECT(!PercentileOf(Iota(9999), 0.999).has_value());
  EXPECT(PercentileOf(Iota(10000), 0.999).has_value());
  EXPECT(Median({3, 1, 2}) == 2.0 && Median({4, 1, 2, 3}) == 2.5);
}

void TestSelfTime() {
  // root [0, 10]: children a [1, 4] and b [3, 6] overlap on [3, 4]; c
  // [9, 12] sticks out of the root; a has a grandchild [1, 2].
  std::vector<Span> spans = {
      {"root", 1, -1, 0.0, 10.0}, {"a", 1, 0, 1.0, 4.0},
      {"b", 1, 0, 3.0, 6.0},      {"c", 1, 0, 9.0, 12.0},
      {"a.x", 1, 1, 1.0, 2.0},
  };
  // Aggregated by name (sorted): a, a.x, b, c, root. The root's children
  // cover [1, 6] and [9, 10] = 6 of its 10 seconds.
  const auto totals = AggregateSpans(spans);
  EXPECT(totals.size() == 5 && totals[0].name == "a" &&
         totals[1].name == "a.x" && totals[4].name == "root");
  EXPECT(totals.size() == 5 && totals[4].count == 1 &&
         std::fabs(totals[4].total - 10.0) < 1e-12 &&
         std::fabs(totals[4].self - 4.0) < 1e-12);
  EXPECT(totals.size() == 5 && std::fabs(totals[0].self - 2.0) < 1e-12 &&
         std::fabs(totals[1].self - 1.0) < 1e-12 &&
         std::fabs(totals[3].self - 3.0) < 1e-12);

  // Nested children without gaps account for the whole root. The gap
  // inside "wait" after "solve" is that child's self time, so it still
  // counts as attributed to the layers.
  std::vector<Span> tree = {
      {"root", 2, -1, 0.0, 8.0},  {"submit", 2, 0, 0.0, 1.0},
      {"wait", 2, 0, 1.0, 8.0},   {"queue", 2, 2, 1.0, 3.0},
      {"solve", 2, 2, 3.0, 7.5},
  };
  const std::vector<RootShare> whole = AttributeRoots(tree);
  EXPECT(whole.size() == 1 && whole[0].name == "root" &&
         whole[0].roots == 1 && std::fabs(whole[0].share - 1.0) < 1e-12);
  // A root with a gap between its children: [0, 2] and [5, 10] leave
  // 3 of its 10 seconds unattributed, below the floor.
  tree.push_back({"gappy", 3, -1, 0.0, 10.0});
  tree.push_back({"build", 3, 5, 0.0, 2.0});
  tree.push_back({"drop", 3, 5, 5.0, 10.0});
  std::vector<RootShare> shares = AttributeRoots(tree);
  EXPECT(shares.size() == 2 && shares[0].name == "gappy" &&
         std::fabs(shares[0].share - 0.7) < 1e-12 &&
         shares[0].share < kMinRootAttribution);
  // Shares of one kind are summed over its roots: a second, fully covered
  // gappy root of 50 seconds lifts the kind to 57 / 60, above the floor,
  // while the least root stays at 0.7.
  tree.push_back({"gappy", 4, -1, 100.0, 150.0});
  tree.push_back({"build", 4, 8, 100.0, 150.0});
  shares = AttributeRoots(tree);
  EXPECT(shares.size() == 2 && shares[0].roots == 2 &&
         std::fabs(shares[0].share - 57.0 / 60.0) < 1e-12 &&
         std::fabs(shares[0].least - 0.7) < 1e-12 &&
         shares[0].share >= kMinRootAttribution);
  // Children sticking out of their root are clipped, never over 1.
  const std::vector<RootShare> clipped = AttributeRoots(spans);
  EXPECT(clipped.size() == 1 && std::fabs(clipped[0].share - 0.6) < 1e-12);
}

void TestReportJson() {
  Report report;
  report.attempted = 3;
  report.Add("latency_p50_s", "s", 0.00125);
  EXPECT(report.Json() ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"latency_p50_s\": {\"value\": 0.00125, \"unit\": \"s\"}}}");
  report.Add("broken", "s", std::numeric_limits<double>::quiet_NaN());
  EXPECT(!report.correct());
}

void TestReportMedian() {
  Report report;
  report.AddMedian("submit_us", "us", {3e-6, 1e-6, 2e-6}, 1e6);
  EXPECT(report.Json().find("\"submit_us\": {\"value\": 2, \"unit\": \"us\"}") !=
         std::string::npos);
  // The p99 is shown only once the percentile rule supports it.
  EXPECT(report.Text().find("median of 3)") != std::string::npos);
  report.AddMedian("wall_s", "s", Iota(1000));
  EXPECT(report.Text().find("median of 1000; p99 990 s, 10 beyond") !=
         std::string::npos);
  EXPECT(report.correct());
  report.AddMedian("empty_s", "s", {});
  EXPECT(!report.correct());
}

}  // namespace

int main() {
  TestPercentileNeedsTenBeyond();
  TestSelfTime();
  TestReportJson();
  TestReportMedian();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("harness_test: all passed\n");
  return 0;
}

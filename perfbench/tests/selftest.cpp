// Tests of the benchmark's own logic: the percentile rule, span self-time
// arithmetic, the correctness oracles, and the message-type classes behind
// the byte metrics. Exits nonzero on any failure.

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "spans.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

using perfbench::Span;

Span span(std::int64_t start, std::int64_t end, std::int32_t parent) {
  return Span{"s", start, end, parent};
}

void percentile_rule() {
  using perfbench::tail_supported;
  expect(tail_supported(1000, 0.99), "p99 of 1000 samples has 10 beyond it");
  expect(!tail_supported(999, 0.99), "p99 of 999 samples has only 9 beyond it");
  expect(tail_supported(100, 0.90), "p90 of 100 samples has 10 beyond it");
  expect(!tail_supported(99, 0.90), "p90 of 99 samples has only 9 beyond it");
  expect(tail_supported(20, 0.50), "p50 of 20 samples has 10 beyond it");
  expect(!tail_supported(0, 0.50), "no samples support no percentile");

  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  expect(perfbench::quantile(v, 0.5) == 51.0, "median of 1..101 is 51");
  expect(perfbench::quantile(v, 0.9) == 91.0, "p90 of 1..101 is 91");
  expect(perfbench::quantile({1.0, 2.0}, 0.5) == 1.5, "type-7 interpolates");
}

void self_time() {
  // root [0,100): children [10,30) and [20,50) overlap -> covered [10,50)
  // child 1 [10,30) has a grandchild [12,18).
  std::vector<Span> s = {span(0, 100, -1), span(10, 30, 0), span(20, 50, 0),
                         span(12, 18, 1)};
  auto self = perfbench::compute_self_times(s);
  expect(self[0] == 60, "root self time excludes the union of its children");
  expect(self[1] == 14, "child self time excludes its own child only");
  expect(self[2] == 30, "leaf self time is its duration");
  expect(self[3] == 6, "grandchild self time is its duration");

  // A child running past its parent's end is clipped to the parent.
  std::vector<Span> t = {span(0, 10, -1), span(5, 20, 0)};
  expect(perfbench::compute_self_times(t)[0] == 5, "children are clipped to the parent");

  // Sim-clock spans never count against a host-clock parent.
  std::vector<Span> u = {span(0, 10, -1), span(0, 10, 0)};
  u[1].clock = perfbench::SpanClock::kSim;
  expect(perfbench::compute_self_times(u)[0] == 10, "clocks do not mix");

  // Spans appended from another recorder keep their nesting.
  perfbench::SpanRecorder a, b;
  a.add(span(0, 100, -1));
  b.add(span(10, 40, -1));
  b.add(span(10, 20, 0));
  a.append(b, 0);
  auto self_a = perfbench::compute_self_times(a.spans());
  expect(self_a[0] == 70 && self_a[1] == 20 && self_a[2] == 10,
         "append re-bases parents");
}

void oracles() {
  using perfbench::Verdict;
  const std::set<ares::NodeId> matching = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
  auto matches = [&](ares::NodeId id) { return matching.contains(id); };
  auto truth10 = [] { return std::size_t{10}; };

  // sigma = 4, the DFS returned 7 matching nodes: overshoot passes.
  expect(perfbench::check_sigma(true, {1, 2, 3, 5, 8, 13, 21}, 4, matches, truth10) ==
             Verdict::kOk,
         "an overshooting sigma result passes");
  expect(perfbench::check_sigma(true, {1, 2, 3}, 4, matches, truth10) == Verdict::kTooFew,
         "fewer than sigma results when more exist fails");
  auto truth3 = [] { return std::size_t{3}; };
  expect(perfbench::check_sigma(true, {1, 2, 3}, 4, matches, truth3) == Verdict::kOk,
         "fewer than sigma results pass when that is all there is");
  expect(perfbench::check_sigma(true, {1, 2, 4, 5}, 4, matches, truth10) ==
             Verdict::kNonMatching,
         "a non-matching node fails");
  expect(perfbench::check_sigma(true, {1, 2, 2, 5, 8}, 4, matches, truth10) ==
             Verdict::kDuplicate,
         "a duplicate node fails");
  expect(perfbench::check_sigma(false, {1, 2, 3, 5}, 4, matches, truth10) ==
             Verdict::kIncomplete,
         "an incomplete query fails");
  bool counted = false;
  perfbench::check_sigma(true, {1, 2, 3, 5, 8}, 4, matches, [&] {
    counted = true;
    return std::size_t{10};
  });
  expect(!counted, "the truth count is not computed when sigma is met");

  const std::vector<ares::NodeId> truth = {1, 2, 3, 5};
  expect(perfbench::check_exhaustive(true, {5, 3, 2, 1}, truth) == Verdict::kOk,
         "an exhaustive result equal to the truth passes in any order");
  expect(perfbench::check_exhaustive(true, {1, 2, 3}, truth) == Verdict::kMismatch,
         "a missing node fails");
  expect(perfbench::check_exhaustive(true, {1, 2, 3, 5, 8}, truth) == Verdict::kMismatch,
         "an extra node fails");
  expect(perfbench::check_exhaustive(true, {1, 2, 3, 3, 5}, truth) == Verdict::kDuplicate,
         "a duplicate fails");
  expect(perfbench::check_exhaustive(false, {1, 2, 3, 5}, truth) == Verdict::kIncomplete,
         "an incomplete exhaustive query fails");
}

void traffic_classes() {
  struct Counter {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };
  const std::map<std::string, Counter> by_type = {
      {"cyclon.request", {2, 200}}, {"vicinity.reply", {3, 300}},
      {"select.query", {5, 50}},    {"select.reply", {1, 400}},
      {"selective.x", {7, 7}},      {"misc", {1, 1000}}};
  const perfbench::TrafficTotals t = perfbench::fold_traffic(by_type);
  expect(t.gossip_msgs == 5 && t.gossip_bytes == 500, "cyclon.* and vicinity.* are gossip");
  expect(t.select_msgs == 6 && t.select_bytes == 450, "select.* is query traffic");
  expect(t.query_msgs == 5, "only select.query counts as a hop");
  expect(t.all_bytes == 1957, "every type counts toward all bytes");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  oracles();
  traffic_classes();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

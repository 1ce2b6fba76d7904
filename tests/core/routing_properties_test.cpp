/// Property-based sweep of the protocol's central invariant (§6 of the
/// paper): on a converged overlay with no churn, every query reaches every
/// matching node EXACTLY once — 100% delivery, zero duplicate receptions —
/// regardless of dimensionality, nesting depth, node distribution, query
/// shape, and origin.

#include <gtest/gtest.h>

#include <set>

#include "exp/grid.h"
#include "workload/distributions.h"
#include "workload/machine_space.h"
#include "workload/query_workload.h"

namespace ares {
namespace {

struct Params {
  int dims;
  int levels;
  std::size_t nodes;
  const char* distribution;  // "uniform" | "hotspot" | "clustered" | "xtremlab"
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const auto& p = info.param;
  return "d" + std::to_string(p.dims) + "_l" + std::to_string(p.levels) + "_n" +
         std::to_string(p.nodes) + "_" + p.distribution + "_s" +
         std::to_string(p.seed);
}

PointGen make_gen(const char* name, const AttributeSpace& space) {
  std::string d(name);
  if (d == "uniform") return uniform_points(space, 0, 80);
  if (d == "hotspot") return hotspot_points(space);
  if (d == "clustered") return clustered_points(space, 8, 0, 80, 3, 77);
  if (d == "machines") return machine_points();
  return xtremlab_points(space);
}

AttributeSpace make_space(const Params& p) {
  // "machines" runs on the irregular-boundary machine space (d/levels from
  // the space itself); everything else uses a regular grid.
  if (std::string(p.distribution) == "machines") return machine_space();
  return AttributeSpace::uniform(p.dims, p.levels, 0, 80);
}

class ExactOnceProperty : public ::testing::TestWithParam<Params> {
 protected:
  std::unique_ptr<Grid> make_grid() {
    const auto& p = GetParam();
    Grid::Config cfg{.space = make_space(p)};
    cfg.nodes = p.nodes;
    cfg.oracle = true;
    cfg.latency = "lan";
    cfg.seed = p.seed;
    cfg.protocol.gossip_enabled = false;
    return std::make_unique<Grid>(cfg, make_gen(p.distribution, cfg.space));
  }
};

TEST_P(ExactOnceProperty, EveryMatchingNodeHitExactlyOnce) {
  auto grid = make_grid();
  Rng rng(GetParam().seed * 7 + 1);
  const auto& space = grid->space();

  // A spread of query shapes: best case, worst case, random boxes.
  std::vector<RangeQuery> queries;
  for (double f : {0.03, 0.125, 0.5}) {
    queries.push_back(best_case_query(space, f, rng));
    queries.push_back(worst_case_query(space, f));
  }
  for (int i = 0; i < 3; ++i) {
    RangeQuery q = RangeQuery::any(space.dimensions());
    for (int d = 0; d < space.dimensions(); ++d) {
      if (rng.chance(0.5)) continue;  // leave unconstrained
      AttrValue a = rng.range(0, 80), b = rng.range(0, 80);
      q.with(d, std::min(a, b), std::max(a, b));
    }
    queries.push_back(q);
  }

  for (const auto& q : queries) {
    auto truth = grid->ground_truth(q);
    NodeId origin = grid->random_node();
    auto out = grid->run_query(origin, q);
    ASSERT_TRUE(out.completed);

    std::set<NodeId> got;
    for (const auto& m : out.matches) got.insert(m.id);
    EXPECT_EQ(got.size(), out.matches.size()) << "duplicate result records";
    EXPECT_EQ(got, std::set<NodeId>(truth.begin(), truth.end()))
        << "result set differs from ground truth";

    const auto* pq = grid->stats().find(out.id);
    ASSERT_NE(pq, nullptr);
    EXPECT_EQ(pq->duplicates, 0u) << "a node was visited twice";
    // With visited tracking on and no duplicates, hits counts distinct
    // matching nodes reached.
    EXPECT_EQ(pq->hits, truth.size()) << "delivery below 1";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactOnceProperty,
    ::testing::Values(
        // Dimensionality sweep (uniform).
        Params{1, 3, 300, "uniform", 1}, Params{2, 3, 300, "uniform", 2},
        Params{3, 3, 300, "uniform", 3}, Params{5, 3, 300, "uniform", 4},
        Params{8, 3, 250, "uniform", 5}, Params{12, 3, 200, "uniform", 6},
        // Nesting-depth sweep.
        Params{2, 1, 300, "uniform", 7}, Params{2, 2, 300, "uniform", 8},
        Params{2, 4, 300, "uniform", 9}, Params{3, 5, 300, "uniform", 10},
        // Distribution sweep.
        Params{3, 3, 300, "hotspot", 11}, Params{3, 3, 300, "clustered", 12},
        Params{4, 3, 300, "xtremlab", 13}, Params{5, 3, 300, "hotspot", 14},
        // Size sweep.
        Params{2, 3, 50, "uniform", 15}, Params{2, 3, 1000, "uniform", 16},
        Params{5, 3, 1000, "uniform", 17},
        // Tiny populations (edge cases: mostly-empty grid).
        Params{5, 3, 5, "uniform", 18}, Params{3, 3, 2, "uniform", 19},
        Params{2, 3, 1, "uniform", 20},
        // Irregular cell boundaries (machine space, §4.1).
        Params{5, 3, 300, "machines", 21}, Params{5, 3, 800, "machines", 22}),
    param_name);

class SigmaProperty : public ::testing::TestWithParam<Params> {};

TEST_P(SigmaProperty, ThresholdQueriesReturnEnoughDistinctMatches) {
  const auto& p = GetParam();
  Grid::Config cfg{.space = AttributeSpace::uniform(p.dims, p.levels, 0, 80)};
  cfg.nodes = p.nodes;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = p.seed;
  cfg.protocol.gossip_enabled = false;
  Grid grid(cfg, make_gen(p.distribution, cfg.space));
  Rng rng(p.seed);

  for (std::uint32_t sigma : {1u, 3u, 10u, 50u}) {
    auto q = best_case_query(grid.space(), 0.5, rng);
    auto truth = grid.ground_truth(q).size();
    auto out = grid.run_query(grid.random_node(), q, sigma);
    ASSERT_TRUE(out.completed);
    std::set<NodeId> got;
    for (const auto& m : out.matches) got.insert(m.id);
    EXPECT_EQ(got.size(), out.matches.size());
    EXPECT_GE(out.matches.size(), std::min<std::size_t>(sigma, truth));
    const auto* pq = grid.stats().find(out.id);
    ASSERT_NE(pq, nullptr);
    EXPECT_EQ(pq->duplicates, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SigmaProperty,
                         ::testing::Values(Params{2, 3, 400, "uniform", 31},
                                           Params{5, 3, 400, "uniform", 32},
                                           Params{3, 3, 400, "hotspot", 33},
                                           Params{4, 2, 400, "xtremlab", 34}),
                         param_name);

}  // namespace
}  // namespace ares

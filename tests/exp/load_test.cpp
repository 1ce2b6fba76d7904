#include "exp/load.h"

#include <gtest/gtest.h>

#include "workload/distributions.h"

namespace ares {
namespace {

Grid::Config load_config(std::uint64_t seed) {
  Grid::Config cfg{.space = AttributeSpace::uniform(2, 3, 0, 80)};
  cfg.nodes = 200;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = seed;
  cfg.protocol.gossip_enabled = false;
  return cfg;
}

OpenLoopConfig small_load(Grid& grid) {
  OpenLoopConfig lc;
  lc.rate_qps = 200;
  lc.total_queries = 80;
  lc.pool = {RangeQuery::any(2).with(0, 20, 70), RangeQuery::any(2),
             RangeQuery::any(2).with(1, 10, 44)};
  lc.seed = 5;
  for (int i = 0; i < 4; ++i) lc.origins.push_back(grid.random_node());
  return lc;
}

TEST(OpenLoop, CompletesAndMatchesGroundTruthDigests) {
  auto cfg = load_config(3);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto lc = small_load(grid);
  auto out = run_open_loop(grid, lc);
  EXPECT_EQ(out.issued, lc.total_queries);
  EXPECT_EQ(out.completed, out.issued);
  std::vector<std::uint64_t> truth_digest;
  for (const auto& q : lc.pool)
    truth_digest.push_back(result_id_digest(grid.ground_truth(q)));
  for (std::size_t i = 0; i < out.issued; ++i) {
    ASSERT_NE(out.done[i], 0) << "arrival " << i;
    EXPECT_EQ(out.result_hash[i], truth_digest[out.pool_index[i]])
        << "arrival " << i;
  }
  EXPECT_GT(out.achieved_qps, 0.0);
  EXPECT_GE(out.peak_in_flight, 1u);
  EXPECT_LE(out.p50_latency_s, out.p95_latency_s);
  EXPECT_LE(out.p95_latency_s, out.p99_latency_s);
}

TEST(OpenLoop, IdenticalSeedsReproduceTheRunExactly) {
  std::vector<OpenLoopResult> outs;
  for (int run = 0; run < 2; ++run) {
    auto cfg = load_config(3);
    Grid grid(cfg, uniform_points(cfg.space, 0, 80));
    outs.push_back(run_open_loop(grid, small_load(grid)));
  }
  EXPECT_EQ(outs[0].issue_time, outs[1].issue_time);
  EXPECT_EQ(outs[0].done_time, outs[1].done_time);
  EXPECT_EQ(outs[0].result_hash, outs[1].result_hash);
  EXPECT_EQ(outs[0].sim_events, outs[1].sim_events);
  EXPECT_EQ(outs[0].peak_in_flight, outs[1].peak_in_flight);
}

TEST(OpenLoop, ScheduleIsOpenLoopIndependentOfTheSystem) {
  // The arrival schedule must depend only on the load seed, never on how
  // fast the system under test answers: a WAN grid and a LAN grid serve
  // byte-identical schedules.
  std::vector<std::vector<SimTime>> schedules;
  std::vector<std::vector<std::uint32_t>> shapes;
  for (const char* latency : {"lan", "wan"}) {
    auto cfg = load_config(3);
    cfg.latency = latency;
    Grid grid(cfg, uniform_points(cfg.space, 0, 80));
    auto out = run_open_loop(grid, small_load(grid));
    schedules.push_back(out.issue_time);
    shapes.push_back(out.pool_index);
  }
  EXPECT_EQ(schedules[0], schedules[1]);
  EXPECT_EQ(shapes[0], shapes[1]);
}

// Queries still in flight when the drain horizon expires complete after
// run_open_loop returned, while later rounds or the caller run the
// simulator on. Those completions must be discarded, not written into the
// returned call's frame (ASan reports a stack-use-after-scope, and a Release
// build may crash, when the callbacks capture that frame by reference).
TEST(OpenLoop, CompletionAfterDrainHorizonIsDiscarded) {
  auto cfg = load_config(3);
  cfg.latency = "wan";  // DFS hops of 30-150 ms outlast a 100 ms drain
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  std::vector<OpenLoopResult> rounds;
  std::size_t completed_in_time = 0;
  for (int round = 0; round < 3; ++round) {
    auto lc = small_load(grid);
    lc.drain_horizon = 100 * kMillisecond;
    rounds.push_back(run_open_loop(grid, lc));
    completed_in_time += rounds.back().completed;
  }
  const std::vector<std::uint8_t> done_before = rounds.front().done;
  grid.sim().run_until(grid.sim().now() + 600 * kSecond);
  EXPECT_GT(grid.stats().completed_count(), completed_in_time)
      << "no query outlived its drain horizon: test lost its teeth";
  EXPECT_EQ(rounds.front().done, done_before);
  EXPECT_LT(rounds.front().completed, rounds.front().issued);
}

TEST(OpenLoop, DigestIsOrderInsensitiveViaSortedConvention) {
  EXPECT_EQ(result_id_digest({1, 2, 3}), result_id_digest({1, 2, 3}));
  EXPECT_NE(result_id_digest({1, 2, 3}), result_id_digest({1, 2}));
  EXPECT_NE(result_id_digest({}), result_id_digest({0}));
}

}  // namespace
}  // namespace ares

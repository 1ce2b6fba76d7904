#pragma once

/// \file load.h
/// Open-loop sustained-load query driver: the serving-throughput counterpart
/// of the one-query-at-a-time harness in exp/experiment.h. Arrivals follow a
/// pre-generated Poisson schedule (open loop: arrival times never depend on
/// completions, so a slow system accumulates in-flight queries instead of
/// silently throttling the offered load), are submitted at scheduled origins
/// as simulator events, and thousands of DFS traversals proceed
/// concurrently through the simulator.
///
/// Determinism: the whole schedule (times, origins, query shapes) is drawn
/// up front from a seeded Rng; per-arrival outcomes land in pre-sized,
/// index-addressed slots (no allocation, no shared accumulator besides one
/// atomic completion counter), so results are identical across ARES_THREADS
/// settings. Latency percentiles come from the
/// same geometric-bucket histogram as QueryRunStats (exp/experiment.h).

#include <cstdint>
#include <vector>

#include "core/messages.h"
#include "exp/grid.h"
#include "space/query.h"

namespace ares {

struct OpenLoopConfig {
  /// Poisson arrival rate, queries per simulated second.
  double rate_qps = 100.0;
  /// Number of arrivals to generate.
  std::size_t total_queries = 1000;
  /// Candidate origin nodes ("portals"); each arrival picks one uniformly.
  /// Must be non-empty.
  std::vector<NodeId> origins;
  /// Query shapes; each arrival picks one uniformly. Must be non-empty.
  std::vector<RangeQuery> pool;
  std::uint32_t sigma = kNoSigma;
  /// Seeds the schedule (arrival times, origin and shape choices) only.
  std::uint64_t seed = 1;
  /// Extra simulated time allowed after the last arrival for in-flight
  /// queries to drain (relevant when failures can strand queries).
  SimTime drain_horizon = 600 * kSecond;
  /// Keep each query's full result set (memory-heavy; correctness tests).
  /// Off: only the per-arrival count and id-hash digests are kept.
  bool keep_results = false;
};

struct OpenLoopResult {
  std::size_t issued = 0;
  std::size_t completed = 0;
  /// First arrival to last completion, simulated seconds.
  double duration_s = 0.0;
  /// completed / duration_s: the serving rate actually sustained.
  double achieved_qps = 0.0;
  /// Simulator events executed during the run — the deterministic,
  /// machine-independent work-per-query denominator the benchmarks gate on.
  std::uint64_t sim_events = 0;
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  /// Maximum number of concurrently in-flight queries (uncompleted arrivals
  /// count as in flight through the end of the run).
  std::size_t peak_in_flight = 0;

  // Per-arrival slots, index-aligned with the generated schedule.
  std::vector<std::uint32_t> pool_index;    // which shape was issued
  std::vector<NodeId> origin;               // where it was issued
  std::vector<SimTime> issue_time;
  std::vector<SimTime> done_time;           // valid where done[i] != 0
  std::vector<std::uint8_t> done;
  std::vector<std::uint32_t> result_count;  // matches returned
  /// Order-independent digest of the result id set (hash_mix fold over the
  /// ascending NodeId sequence); lets callers compare against ground truth
  /// without retaining record vectors.
  std::vector<std::uint64_t> result_hash;
  /// Full result sets, only when OpenLoopConfig::keep_results.
  std::vector<std::vector<MatchRecord>> results;
};

/// Digest matching OpenLoopResult::result_hash for an ascending id set.
std::uint64_t result_id_digest(const std::vector<NodeId>& ids);

/// Runs the open-loop workload on `grid` and blocks until every query
/// completed or the drain horizon expired. A query still in flight then
/// may complete later, if the caller runs the simulator on; that completion
/// is discarded.
OpenLoopResult run_open_loop(Grid& grid, const OpenLoopConfig& cfg);

}  // namespace ares

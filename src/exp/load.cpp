#include "exp/load.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "common/hashing.h"
#include "common/summary.h"
#include "exp/experiment.h"

namespace ares {

std::uint64_t result_id_digest(const std::vector<NodeId>& ids) {
  std::uint64_t h = hash_mix(kFnvOffset, static_cast<std::uint64_t>(ids.size()));
  for (NodeId id : ids) h = hash_mix(h, id);
  return h;
}

OpenLoopResult run_open_loop(Grid& grid, const OpenLoopConfig& cfg) {
  assert(cfg.rate_qps > 0.0);
  assert(!cfg.origins.empty());
  assert(!cfg.pool.empty());
  const std::size_t n = cfg.total_queries;

  // The completion callbacks share ownership of the result: a query still in
  // flight at the drain horizon completes after this function returned, and
  // must then find live state that is closed to it, not a dead frame.
  struct Run {
    OpenLoopResult out;
    // The one shared accumulator across completions; everything else is a
    // per-arrival slot write.
    // ordering: release on the bump / acquire on the reads below — the count
    // publishes each completion's per-arrival slot writes (done/done_time/
    // result_*) to the post-run fold.
    std::atomic<std::uint64_t> completed{0};
    bool open = true;
  };
  auto run = std::make_shared<Run>();
  OpenLoopResult& out = run->out;
  out.pool_index.resize(n, 0);
  out.origin.resize(n, kInvalidNode);
  out.issue_time.resize(n, 0);
  out.done_time.resize(n, 0);
  out.done.assign(n, 0);
  out.result_count.resize(n, 0);
  out.result_hash.resize(n, 0);
  if (cfg.keep_results) out.results.resize(n);

  // Draw the whole schedule up front: open loop by construction, and the
  // per-arrival slots above can be sized exactly before anything runs.
  Rng rng(cfg.seed ^ 0x9E3779B97F4A7C15ULL);
  const SimTime start = grid.sim().now();
  SimTime t = start;
  for (std::size_t i = 0; i < n; ++i) {
    // Exponential inter-arrival; 1 - U keeps the argument in (0, 1].
    const double gap_s = -std::log(1.0 - rng.uniform()) / cfg.rate_qps;
    t += std::max<SimTime>(1, static_cast<SimTime>(gap_s * kSecond));
    out.issue_time[i] = t;
    out.pool_index[i] = static_cast<std::uint32_t>(rng.index(cfg.pool.size()));
    out.origin[i] = cfg.origins[rng.index(cfg.origins.size())];
  }
  const SimTime last_arrival = t;

  // Every arrival fires before the drain loop below can end (the deadline
  // lies past the last arrival), so only completions may outlive this call.
  Simulator* sim = &grid.sim();
  for (std::size_t i = 0; i < n; ++i) {
    sim->schedule_at(out.issue_time[i], [&grid, &cfg, run, sim, i] {
      const bool keep = cfg.keep_results;
      grid.node(run->out.origin[i])
          .submit(cfg.pool[run->out.pool_index[i]], cfg.sigma,
                  [run, sim, i, keep](const std::vector<MatchRecord>& m) {
                    if (!run->open) return;  // completed after the horizon
                    OpenLoopResult& res = run->out;
                    res.done_time[i] = sim->now();
                    res.result_count[i] = static_cast<std::uint32_t>(m.size());
                    std::uint64_t h =
                        hash_mix(kFnvOffset, static_cast<std::uint64_t>(m.size()));
                    for (const MatchRecord& r : m) h = hash_mix(h, r.id);
                    res.result_hash[i] = h;
                    if (keep) res.results[i] = m;
                    res.done[i] = 1;
                    run->completed.fetch_add(1, std::memory_order_release);
                  });
    });
  }

  const std::uint64_t events_before = sim->executed_events();
  const SimTime deadline = last_arrival + cfg.drain_horizon;
  while (run->completed.load(std::memory_order_acquire) < n && !sim->idle() &&
         sim->now() <= deadline)
    sim->step();
  run->open = false;
  out.sim_events = sim->executed_events() - events_before;

  out.issued = n;
  out.completed = run->completed.load(std::memory_order_acquire);

  // Fold per-arrival slots in index order: identical results at any thread
  // count, and no float accumulation in completion order.
  // Summary keeps the raw samples, so the percentiles below interpolate
  // between order statistics instead of reporting bucket upper bounds.
  Summary latency;
  double latency_sum_s = 0.0;
  SimTime last_done = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (out.done[i] == 0) continue;
    const double lat_s =
        static_cast<double>(out.done_time[i] - out.issue_time[i]) / kSecond;
    latency.add(lat_s);
    latency_sum_s += lat_s;
    last_done = std::max(last_done, out.done_time[i]);
  }
  if (out.completed > 0) {
    out.duration_s =
        static_cast<double>(last_done - out.issue_time.front()) / kSecond;
    if (out.duration_s > 0.0)
      out.achieved_qps = static_cast<double>(out.completed) / out.duration_s;
    out.mean_latency_s = latency_sum_s / static_cast<double>(out.completed);
    out.p50_latency_s = latency.quantile(0.50);
    out.p95_latency_s = latency.quantile(0.95);
    out.p99_latency_s = latency.quantile(0.99);
  }

  // Peak concurrency: interval sweep over (issue, completion); a query that
  // never completed stays in flight through the end. Completions at time t
  // are processed before arrivals at t (half-open intervals).
  std::vector<std::pair<SimTime, int>> marks;
  marks.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    marks.emplace_back(out.issue_time[i], +1);
    marks.emplace_back(out.done[i] != 0 ? out.done_time[i] : deadline + 1, -1);
  }
  std::sort(marks.begin(), marks.end());
  // Signed: a query answered locally completes in the same microsecond it
  // was issued, so its -1 sorts ahead of its own +1.
  std::int64_t cur = 0;
  std::int64_t peak = 0;
  for (const auto& [when, delta] : marks) {
    (void)when;
    cur += delta;
    peak = std::max(peak, cur);
  }
  out.peak_in_flight = static_cast<std::size_t>(peak);
  return std::move(out);
}

}  // namespace ares

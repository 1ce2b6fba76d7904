/// High-throughput query serving: open-loop Poisson load over an oracle
/// overlay, comparing three protocol configurations per network size:
///
///   off         — the paper's DFS, every query traverses alone;
///   cache       — per-node LRU result caching of complete branch fragments
///                 (ProtocolConfig::result_cache_capacity);
///   cache+batch — caching plus shared traversals: a concurrent branch into
///                 a subcell whose in-flight traversal covers its ranges
///                 rides that traversal instead of sending its own probe
///                 (ProtocolConfig::coalesce_queries). A branch shares only
///                 a subcell the node holds a link into, as the plain DFS
///                 enters it, and the traversal runs on the plain DFS
///                 branch state machine (dispatch, timeout, retry).
///
/// The workload concentrates arrivals on a few portal origins and a small
/// pool of query shapes (a service front-end answering a popular query mix),
/// which is the regime the fast path targets. Every completed query is
/// checked against Grid::ground_truth — the static no-churn deployment must
/// give byte-identical result sets in all three configurations (mismatches
/// are counted in stdout and fail the run).
///
/// Gates (exit nonzero):
///   - any trial executed late simulator events;
///   - any result-set mismatch vs. ground truth;
///   - cache+batch does not reach >= 1.5x fewer simulator events per query
///     than off (the deterministic, machine-independent throughput proxy:
///     at a fixed open-loop arrival rate, sustained queries/sec equals the
///     arrival rate in steady state, so serving capacity is work/query);
///   - with ARES_QPS_BASELINE set (CI, single-threaded single-size runs):
///     wall-clock queries/sec of cache+batch under 85% of the baseline.
///
/// Scale knobs: ARES_N (10,000 default; ARES_MAX_N=100000 adds the 100k
/// point), ARES_QUERIES arrivals (2,000), ARES_RATE_QPS (2,000),
/// ARES_PORTALS (16), ARES_POOL (16 shapes), ARES_F (0.01).
/// Stdout is byte-identical across ARES_THREADS settings;
/// wall-clock telemetry goes to stderr and the JSON only.

#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/bench_json.h"
#include "exp/load.h"
#include "exp/parallel.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct TrialCfg {
  std::size_t n = 0;
  int mode = 0;  // 0 = off, 1 = cache, 2 = cache+batch
};

const char* mode_name(int mode) {
  return mode == 0 ? "off" : mode == 1 ? "cache" : "cache+batch";
}

struct TrialResult {
  OpenLoopResult load;
  std::uint64_t mismatches = 0;
  std::uint64_t late_events = 0;
  std::uint64_t query_msgs = 0;
  std::uint64_t select_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t coalesce_attach = 0;
  std::uint64_t coalesce_dispatch = 0;
  double wall_s = 0.0;
};

}  // namespace

int main() {
  Setup s = read_setup(/*default_n=*/10000, /*default_queries=*/2000);
  // This bench's own defaults where they differ from Table 1: exhaustive
  // queries (sigma = infinity; coalescing and the ground-truth comparison
  // need the full result set) over a narrow, popular query mix.
  s.sigma = option_u64("SIGMA", 0);
  s.selectivity = option_double("F", 0.01);
  const double rate_qps = option_double("RATE_QPS", 2000.0);
  const std::size_t portals = option_u64("PORTALS", 16);
  const std::size_t pool_size = option_u64("POOL", 16);

  exp::print_experiment_header(
      "Query throughput", "open-loop serving: caching and shared traversals",
      "cache+batch resolves popular fragments locally and coalesces "
      "overlapping traversals: >= 1.5x less work per query than the plain "
      "DFS at identical (ground-truth-exact) results");
  print_setup(s);

  std::vector<std::size_t> sizes{10000};
  const std::size_t max_n = option_u64("MAX_N", s.n);
  const std::size_t min_n = option_u64("MIN_N", 0);
  if (s.n != 10000) sizes = {s.n};
  if (max_n >= 100000 && sizes.back() < 100000) sizes.push_back(100000);
  while (!sizes.empty() && sizes.back() > max_n) sizes.pop_back();
  while (!sizes.empty() && sizes.front() < min_n) sizes.erase(sizes.begin());

  std::vector<TrialCfg> trials;
  for (std::size_t n : sizes)
    for (int mode = 0; mode < 3; ++mode) trials.push_back({n, mode});

  const std::size_t threads = exp::resolve_threads(trials.size());
  exp::BenchReport report("query_throughput");
  report.set_threads(threads);

  auto results = exp::run_trials(
      trials,
      [&](const TrialCfg& tc, std::size_t /*trial*/) {
        Setup cur = s;
        cur.n = tc.n;
        Grid::Config cfg{
            .space = AttributeSpace::uniform(cur.dims, cur.levels, 0, 80)};
        cfg.nodes = cur.n;
        cfg.oracle = true;
        cfg.latency = "wan";
        cfg.seed = cur.seed;
        cfg.protocol.gossip_enabled = false;
        cfg.track_visited = false;
        if (tc.mode >= 1)
          cfg.protocol.result_cache_capacity = option_u64("CACHE_CAPACITY", 64);
        if (tc.mode >= 2) cfg.protocol.coalesce_queries = true;
        PointGen gen = uniform_points(cfg.space, 0, 80);
        auto grid = std::make_unique<Grid>(std::move(cfg), std::move(gen));

        // Workload randomness is keyed by network size only, NOT by the
        // trial index: the three configurations at one size must serve the
        // identical schedule (same portals, shapes, arrival times) for the
        // ground-truth equality and work-per-query comparison to be
        // apples-to-apples.
        Rng rng(exp::trial_seed(cur.seed, tc.n));
        OpenLoopConfig lc;
        lc.rate_qps = rate_qps;
        lc.total_queries = cur.queries;
        lc.sigma = sigma_of(cur);
        lc.seed = exp::trial_seed(cur.seed ^ 0x517CC1B727220A95ULL, tc.n);
        for (std::size_t i = 0; i < portals; ++i)
          lc.origins.push_back(grid->random_node());
        for (std::size_t i = 0; i < pool_size; ++i)
          lc.pool.push_back(best_case_query(grid->space(), cur.selectivity, rng));

        // Ground truth per pool shape, digested the same way the driver
        // digests each completion.
        std::vector<std::uint64_t> truth(lc.pool.size());
        for (std::size_t i = 0; i < lc.pool.size(); ++i) {
          auto ids = grid->ground_truth(lc.pool[i]);
          std::sort(ids.begin(), ids.end());
          truth[i] = result_id_digest(ids);
        }

        TrialResult r;
        const auto wall_start = std::chrono::steady_clock::now();
        r.load = run_open_loop(*grid, lc);
        r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 wall_start)
                       .count();
        for (std::size_t i = 0; i < r.load.issued; ++i) {
          if (r.load.done[i] == 0 ||
              r.load.result_hash[i] != truth[r.load.pool_index[i]])
            ++r.mismatches;
        }
        r.late_events = grid->sim().late_events();
        const auto& by_type = grid->net().stats().sent_by_type();
        for (const auto& [type, counter] : by_type) {
          if (type.rfind("select.", 0) != 0) continue;
          r.select_bytes += counter.bytes;
          if (type == "select.query") r.query_msgs = counter.count;
        }
        Metrics& m = grid->net().metrics();
        r.cache_hits = m.total("query.cache_hit");
        r.cache_misses = m.total("query.cache_miss");
        r.cache_inserts = m.total("query.cache_insert");
        r.cache_evictions = m.total("query.cache_evict");
        r.coalesce_attach = m.total("query.coalesce_attach");
        r.coalesce_dispatch = m.total("query.coalesce_dispatch");
        return r;
      },
      threads);

  exp::Table t({"N", "config", "done", "events/q", "hops/q", "bytes/q",
                "hit rate", "p50 s", "p99 s", "peak infl", "mismatch"});
  std::uint64_t mismatches = 0;
  // events-per-query by (size, mode) for the deterministic speedup gate.
  std::vector<double> events_per_q(results.size(), 0.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& r = results[i];
    const double done = static_cast<double>(r.load.completed);
    const double epq = done > 0 ? static_cast<double>(r.load.sim_events) / done : 0;
    const double hpq = done > 0 ? static_cast<double>(r.query_msgs) / done : 0;
    const double bpq = done > 0 ? static_cast<double>(r.select_bytes) / done : 0;
    const double lookups = static_cast<double>(r.cache_hits + r.cache_misses);
    const double hit_rate =
        lookups > 0 ? static_cast<double>(r.cache_hits) / lookups : 0.0;
    events_per_q[i] = epq;
    mismatches += r.mismatches;
    t.row({std::to_string(trials[i].n), mode_name(trials[i].mode),
           std::to_string(r.load.completed), exp::fmt(epq), exp::fmt(hpq),
           exp::fmt(bpq), exp::fmt(hit_rate), exp::fmt(r.load.p50_latency_s),
           exp::fmt(r.load.p99_latency_s), std::to_string(r.load.peak_in_flight),
           std::to_string(r.mismatches)});
    report.point()
        .num("n", static_cast<std::uint64_t>(trials[i].n))
        .str("config", mode_name(trials[i].mode))
        .num("issued", static_cast<std::uint64_t>(r.load.issued))
        .num("completed", static_cast<std::uint64_t>(r.load.completed))
        .num("rate_qps", rate_qps)
        .num("achieved_qps_sim", r.load.achieved_qps)
        .num("wall_clock_s", r.wall_s)
        .num("qps_wall", r.wall_s > 0
                             ? static_cast<double>(r.load.completed) / r.wall_s
                             : 0.0)
        .num("latency_p50_s", r.load.p50_latency_s)
        .num("latency_p95_s", r.load.p95_latency_s)
        .num("latency_p99_s", r.load.p99_latency_s)
        .num("latency_mean_s", r.load.mean_latency_s)
        .num("peak_in_flight", static_cast<std::uint64_t>(r.load.peak_in_flight))
        .num("sim_events", r.load.sim_events)
        .num("events_per_query", epq)
        .num("hops_per_query", hpq)
        .num("bytes_per_query", bpq)
        .num("cache_hits", r.cache_hits)
        .num("cache_misses", r.cache_misses)
        .num("cache_hit_rate", hit_rate)
        .num("cache_inserts", r.cache_inserts)
        .num("cache_evictions", r.cache_evictions)
        .num("coalesce_attach", r.coalesce_attach)
        .num("coalesce_dispatch", r.coalesce_dispatch)
        .num("mismatches", r.mismatches)
        .num("late_events", r.late_events);
    report.add_events(r.load.sim_events, r.late_events);
  }
  t.print();

  // Deterministic speedup gate: work per query, off vs cache+batch.
  bool speedup_ok = true;
  for (std::size_t base = 0; base + 2 < results.size(); base += 3) {
    const double off = events_per_q[base];
    const double fast = events_per_q[base + 2];
    const double ratio = fast > 0 ? off / fast : 0.0;
    std::cout << "N=" << trials[base].n
              << " events/query speedup (off vs cache+batch): " << exp::fmt(ratio)
              << "x\n";
    if (ratio < 1.5) speedup_ok = false;
  }
  std::cout << "result mismatches vs ground truth: " << mismatches << "\n";
  std::cout << "late events: " << report.late_events() << "\n";
  exp::maybe_export_csv(t, "query_throughput");

  // Wall-clock throughput telemetry and the CI regression gate. Only
  // meaningful when trials ran one at a time; the gate additionally needs a
  // recorded baseline (ARES_QPS_BASELINE, queries/sec for the cache+batch
  // config) and fires at -15%, mirroring the fig06 RSS-gate pattern.
  bool qps_regressed = false;
  if (threads == 1) {
    const double baseline = option_double("QPS_BASELINE", 0.0);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const double qps = results[i].wall_s > 0
                             ? static_cast<double>(results[i].load.completed) /
                                   results[i].wall_s
                             : 0.0;
      std::cerr << "N=" << trials[i].n << " " << mode_name(trials[i].mode)
                << ": " << exp::fmt(qps) << " queries/sec wall ("
                << exp::fmt(results[i].wall_s) << " s)\n";
      if (baseline > 0.0 && trials[i].mode == 2 && qps < baseline * 0.85) {
        std::cerr << "FAIL: cache+batch wall qps " << exp::fmt(qps)
                  << " under 85% of baseline " << exp::fmt(baseline) << "\n";
        qps_regressed = true;
      }
    }
  }

  const double wall = report.elapsed_s();
  report.summary()
      .num("sweep_points", static_cast<std::uint64_t>(results.size()))
      .num("wall_clock_s", wall)
      .num("events_per_sec",
           wall > 0 ? static_cast<double>(report.sim_events()) / wall : 0.0)
      .num("mismatches", mismatches)
      .boolean("speedup_gate_ok", speedup_ok)
      .boolean("qps_gate_failed", qps_regressed);
  report.write();

  if (report.late_events() != 0) {
    std::cout << "FAIL: " << report.late_events() << " late events\n";
    return 1;
  }
  if (mismatches != 0) {
    std::cout << "FAIL: " << mismatches << " result mismatches vs ground truth\n";
    return 1;
  }
  if (!speedup_ok) {
    std::cout << "FAIL: cache+batch under 1.5x events/query speedup\n";
    return 1;
  }
  if (qps_regressed) return 1;
  return 0;
}

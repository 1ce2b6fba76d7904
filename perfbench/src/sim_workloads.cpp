// The two simulator workloads.
//
// gossip_steady: N=10,000, d=5, LAN latency, gossip-built overlay. Setup is
// 10 convergence cycles; then gossip keeps running while Table-1 queries
// (sigma=50, f=0.125) arrive open-loop from random live origins at 5 q/s of
// simulated time, so queries are a small share of the events. It isolates
// the gossip hot path and the event engine.
//
// query_open_loop: N=100,000, oracle overlay, WAN latency, gossip off.
// Table-1 queries arrive open-loop at 500 q/s of simulated time. It is
// read-only routing at the paper's fig06 scale, where setup dominates;
// gossip work should not move it.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/hashing.h"
#include "exp/grid.h"
#include "exp/load.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ares;

struct SimSpec {
  const char* name;
  std::size_t nodes;
  const char* latency;
  bool gossip;
  /// Open-loop arrival rate, queries per simulated second.
  double rate_qps;
  /// Arrivals per run_open_loop round; rounds repeat until the run has
  /// measured for --seconds and issued at least min_queries.
  std::size_t round_queries;
  std::size_t min_queries;
  /// Host-span slice length in simulated time (traced pass).
  SimTime slice;
};

constexpr std::uint32_t kSigma = 50;
constexpr double kSelectivity = 0.125;
constexpr int kConvergenceCycles = 10;

const SimSpec kGossipSteady{"gossip_steady", 10000, "lan", true, 5.0, 100, 1000,
                            10 * kSecond};
const SimSpec kQueryOpenLoop{"query_open_loop", 100000, "wan", false, 500.0, 2000, 10000,
                             1 * kSecond};

struct Built {
  std::unique_ptr<Grid> grid;
  double build_s = 0.0;
  double bootstrap_s = 0.0;
};

Built build(const SimSpec& spec, std::uint64_t seed, SpanRecorder* rec) {
  Grid::Config cfg{.space = AttributeSpace::uniform(5, 3, 0, 80)};
  cfg.nodes = spec.nodes;
  cfg.oracle = false;  // bootstrapped below, so build and bootstrap time apart
  cfg.convergence = 0;
  cfg.latency = spec.latency;
  cfg.seed = seed;
  cfg.protocol.gossip_enabled = spec.gossip;
  cfg.track_visited = false;
  cfg.trace_queries = rec != nullptr;
  ScopedSpan setup(rec, "setup");
  Built b;
  const double t0 = wall_s();
  {
    ScopedSpan s(rec, "exp.build", setup.index());
    b.grid = std::make_unique<Grid>(cfg, uniform_points(cfg.space, 0, 80));
  }
  const double t1 = wall_s();
  {
    ScopedSpan s(rec, "exp.bootstrap", setup.index());
    Grid& g = *b.grid;
    if (spec.gossip)
      g.sim().run_until(g.sim().now() +
                        kConvergenceCycles * g.config().protocol.gossip_period);
    else
      g.rebootstrap();
  }
  b.build_s = t1 - t0;
  b.bootstrap_s = wall_s() - t1;
  return b;
}

TrafficTotals traffic(Grid& g) { return fold_traffic(g.net().stats().sent_by_type()); }

/// Traced pass: a self-rescheduling coordinator event that closes one host
/// span per `slice` of simulated time, so run_open_loop's drive of the
/// event loop shows as per-slice spans with their event counts.
struct SliceMarker {
  SpanRecorder* rec = nullptr;
  Simulator* sim = nullptr;
  std::int32_t parent = -1;
  SimTime slice = 0;
  std::int32_t open = -1;
  std::uint64_t events_at_open = 0;
  std::uint64_t markers = 0;
  std::uint64_t slice_events = 0;
  std::int64_t slice_ns = 0;
  std::size_t pending_peak = 0;
  bool stopped = false;

  void fire() {
    ++markers;
    close(true);
    if (stopped) return;
    pending_peak = std::max(pending_peak, sim->pending_events());
    open = rec->begin("sim.slice", parent);
    events_at_open = sim->executed_events();
    sim->schedule_at(sim->now() + slice, [this] { fire(); });
  }
  /// `by_marker`: the marker event that closes the slice ran inside it.
  void close(bool by_marker) {
    if (open < 0) return;
    rec->end(open);
    const Span& s = rec->spans()[static_cast<std::size_t>(open)];
    slice_ns += s.end_ns - s.start_ns;
    const std::uint64_t ev = sim->executed_events() - events_at_open;
    slice_events += by_marker && ev > 0 ? ev - 1 : ev;
    open = -1;
  }
};

Result run_sim(const SimSpec& spec, const Options& opt, SpanRecorder* rec) {
  Result r;
  // -- setup, repeated; the last grid serves the measured phase ------------
  std::vector<double> setup_s, build_s, boot_s;
  Built b;
  for (int k = 0; k < kSetupRepeats; ++k) {
    b.grid.reset();
    b = build(spec, opt.seed, rec);
    setup_s.push_back(b.build_s + b.bootstrap_s);
    build_s.push_back(b.build_s);
    boot_s.push_back(b.bootstrap_s);
  }
  Grid& g = *b.grid;
  const AttributeSpace space = g.space();  // outlives the grid (replay)
  std::vector<Point> points(spec.nodes);
  const std::vector<NodeId> ids = g.node_ids();
  for (NodeId id : ids) {
    if (id >= points.size()) points.resize(id + 1);
    points[id] = g.node(id).values();
  }

  // -- measured phase --------------------------------------------------------
  Rng shapes(hash_mix(opt.seed, 0x5348415045ULL));  // "SHAPE"
  const TrafficTotals before = traffic(g);
  Metrics& m = g.net().metrics();
  const std::uint64_t cycles0 = m.total("gossip.cycles");
  const std::uint64_t timeouts0 = m.total("query.timeouts");
  const std::uint64_t retries0 = m.total("query.retries");
  const std::uint64_t events0 = g.sim().executed_events();

  ScopedSpan steady(rec, "steady");
  SliceMarker marker;
  if (rec != nullptr) {
    marker.rec = rec;
    marker.sim = &g.sim();
    marker.parent = steady.index();
    marker.slice = spec.slice;
    marker.fire();
  }
  std::vector<double> latency_ms;
  std::vector<std::uint32_t> origin_seq(points.size(), 0);
  std::size_t issued = 0, completed = 0, peak_in_flight = 0;
  double wall = 0.0;
  ReplayInputs replay;
  for (std::uint64_t round = 0;; ++round) {
    OpenLoopConfig lc;
    lc.rate_qps = spec.rate_qps;
    lc.total_queries = spec.round_queries;
    lc.origins = ids;
    for (std::size_t i = 0; i < spec.round_queries; ++i)
      lc.pool.push_back(best_case_query(space, kSelectivity, shapes));
    lc.sigma = kSigma;
    lc.seed = hash_mix(opt.seed, round);
    lc.keep_results = true;

    const double w0 = wall_s();
    OpenLoopResult res;
    {
      ScopedSpan s(rec, "run_open_loop", steady.index());
      res = run_open_loop(g, lc);
    }
    wall += wall_s() - w0;
    // The oracle checks below fall in no slice.
    marker.close(false);

    // Check every result against the oracle (outside the timed window).
    for (std::size_t i = 0; i < res.issued; ++i) {
      const RangeQuery& q = lc.pool[res.pool_index[i]];
      std::vector<NodeId> got;
      for (const MatchRecord& mr : res.results[i]) got.push_back(mr.id);
      const Verdict v = check_sigma(
          res.done[i] != 0, got, kSigma,
          [&](NodeId id) { return id < points.size() && q.matches(points[id]); },
          [&] { return g.ground_truth(q).size(); });
      if (v != Verdict::kOk) {
        ++r.failed;
        if (r.failed <= 5)
          std::fprintf(stderr, "query %zu: %s\n", issued + i, verdict_name(v));
      } else {
        latency_ms.push_back(static_cast<double>(res.done_time[i] - res.issue_time[i]) /
                             kMillisecond);
      }
      const std::uint64_t qid =
          (static_cast<std::uint64_t>(res.origin[i]) << 32) | origin_seq[res.origin[i]]++;
      if (rec != nullptr) {
        Span s;
        s.name = "query";
        s.clock = SpanClock::kSim;
        s.start_ns = res.issue_time[i] * 1000;
        s.end_ns = (res.done[i] != 0 ? res.done_time[i] : res.issue_time[i]) * 1000;
        s.qid = issued + i + 1;
        if (const auto* t = g.tracer()->find(qid); t != nullptr)
          s.hops = static_cast<std::uint32_t>(t->edges.size());
        rec->add(std::move(s));
      }
    }
    if (replay.queries.size() < 256) {
      for (std::size_t i = 0; i < res.issued && replay.queries.size() < 256; ++i) {
        replay.queries.push_back(lc.pool[res.pool_index[i]]);
        replay.replies.push_back(res.results[i]);
      }
    }
    if (rec != nullptr) g.tracer()->clear();
    issued += res.issued;
    completed += res.completed;
    peak_in_flight = std::max(peak_in_flight, res.peak_in_flight);
    const bool done = opt.rounds > 0 ? round + 1 >= opt.rounds
                                      : wall >= opt.seconds && issued >= spec.min_queries;
    if (done) {
      r.rounds = round + 1;
      break;
    }
  }
  marker.stopped = true;

  const TrafficTotals after = traffic(g);
  const double node_cycles = static_cast<double>(m.total("gossip.cycles") - cycles0);
  const double done = static_cast<double>(std::max<std::size_t>(completed, 1));
  const double events =
      static_cast<double>(g.sim().executed_events() - events0 - marker.markers);
  const double ops = spec.gossip ? node_cycles : static_cast<double>(completed);
  r.attempted = issued;
  if (g.sim().late_events() != 0)
    r.errors.push_back(std::to_string(g.sim().late_events()) + " late simulator events");
  if (m.total("wire.decode_fail") != 0) r.errors.push_back("wire.decode_fail > 0");
  if (ops <= 0.0) r.errors.push_back("no measured work");
  if (!tail_supported(latency_ms.size(), 0.99))
    r.errors.push_back("fewer than 1,000 latency samples");

  r.e2e["setup_s"] = median(setup_s);
  const auto delta = [](std::uint64_t now, std::uint64_t then) {
    return static_cast<double>(now - then);
  };
  r.e2e["query_hops"] = delta(after.query_msgs, before.query_msgs) / done;
  r.e2e["query_bytes"] = delta(after.select_bytes, before.select_bytes) / done;
  r.e2e["wire_bytes_per_op"] = delta(after.all_bytes, before.all_bytes) / ops;
  r.e2e["peak_rss_mb"] = peak_rss_mb();

  auto& L = r.layer;
  L["exp.build_s"] = median(build_s);
  L["exp.bootstrap_s"] = median(boot_s);
  if (spec.gossip) {
    L["node_cycles_per_s"] = node_cycles / wall;
    L["gossip_bytes_per_node_cycle"] =
        delta(after.gossip_bytes, before.gossip_bytes) / node_cycles;
    L["gossip.msgs_per_node_cycle"] =
        delta(after.gossip_msgs, before.gossip_msgs) / node_cycles;
    L["sim.events_per_node_cycle"] = events / node_cycles;
  } else {
    L["queries_per_s"] = static_cast<double>(completed) / wall;
  }
  L["sim_query_p50_ms"] = quantile(latency_ms, 0.50);
  L["sim_query_p99_ms"] = quantile(latency_ms, 0.99);
  L["query_fail_frac"] = static_cast<double>(r.failed) / static_cast<double>(issued);
  // Events net of gossip: one timer event per node-cycle plus one delivery
  // per gossip message; what remains is arrivals and select.* deliveries.
  const double gossip_events =
      node_cycles + delta(after.gossip_msgs, before.gossip_msgs);
  L["sim.events_per_query"] = (events - gossip_events) / done;
  L["sim.late_events"] = static_cast<double>(g.sim().late_events());
  L["core.hops_per_query"] = r.e2e["query_hops"];
  L["core.msgs_per_query"] = delta(after.select_msgs, before.select_msgs) / done;
  L["core.peak_in_flight"] = static_cast<double>(peak_in_flight);
  L["core.timeouts_per_query"] = delta(m.total("query.timeouts"), timeouts0) / done;
  L["core.retries_per_query"] = delta(m.total("query.retries"), retries0) / done;
  L["wire.decode_fail"] = static_cast<double>(m.total("wire.decode_fail"));
  double fill = 0.0;
  const double slots = static_cast<double>(space.max_level() * space.dimensions());
  for (NodeId id : ids)
    fill += static_cast<double>(g.node(id).routing().populated_slots()) / slots;
  L["core.rt_slot_fill"] = fill / static_cast<double>(ids.size());

  if (rec != nullptr) {
    L["sim.ns_per_event"] = marker.slice_events > 0
                                ? static_cast<double>(marker.slice_ns) /
                                      static_cast<double>(marker.slice_events)
                                : 0.0;
    L["sim.pending_peak"] = static_cast<double>(marker.pending_peak);
    // Replay inputs from the workload's own state.
    replay.space = &space;
    replay.points = points;
    Rng pick(hash_mix(opt.seed, 0x5245504CULL));  // "REPL"
    const std::size_t sampled = std::min<std::size_t>(ids.size(), 2000);
    for (std::size_t idx : pick.sample_indices(ids.size(), sampled))
      sample_routing(replay, g.node(ids[idx]));
    if (spec.gossip) {
      replay.cyclon_views.resize(points.size());
      replay.vicinity_views.resize(points.size());
      for (NodeId id : ids) capture_views(replay, g.node(id));
    }
    b.grid.reset();
    replay_layers(replay, L);
  }
  return r;
}

}  // namespace

Result run_gossip_steady(const Options& opt, SpanRecorder* rec) {
  return run_sim(kGossipSteady, opt, rec);
}

Result run_query_open_loop(const Options& opt, SpanRecorder* rec) {
  return run_sim(kQueryOpenLoop, opt, rec);
}

}  // namespace perfbench

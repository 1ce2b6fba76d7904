/// Gossip steady-state microbenchmark with heap-allocation accounting.
///
/// Drives a small cluster of CYCLON + Vicinity + RoutingTable stacks (the
/// exact per-cycle work SelectionNode::gossip_tick performs, including its
/// incremental routing refresh) with in-process message delivery right
/// after each tick, and reports ns and heap allocations per
/// node-cycle at d in {2, 3, 5} in BENCH_micro_gossip.json.
///
/// The allocation count is a CI regression gate, like micro_sim's delivery
/// gate: once warm, a gossip node-cycle — tick both layers, handle the
/// partner's exchange, merge, refresh the routing table — must not touch
/// the heap at all. Descriptors live inline (common/inline_vec.h), exchange
/// messages and their entry buffers come from per-thread pools, and the
/// selection scratch is reused; the binary exits nonzero if any measured
/// configuration allocates in steady state.
///
/// ARES_MICRO_CYCLES scales the measured cycles (default 2000 per d).

#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "alloc_count.h"
#include "common/options.h"
#include "common/rng.h"
#include "core/routing_table.h"
#include "exp/bench_json.h"
#include "exp/reporting.h"
#include "gossip/cyclon.h"
#include "gossip/vicinity.h"
#include "space/cells.h"
#include "space/descriptor_store.h"
#include "workload/distributions.h"

namespace {

using namespace ares;
using Clock = std::chrono::steady_clock;

/// One protocol node's gossip state, wired for immediate delivery.
struct GossipHost {
  NodeId id;
  std::unique_ptr<Cyclon> cyclon;
  std::unique_ptr<Vicinity> vicinity;
  std::unique_ptr<RoutingTable> rt;
};

/// A cluster of hosts exchanging messages in process (no simulator: the
/// bench isolates the gossip layers' own work from event-queue costs).
class Cluster {
 public:
  Cluster(const AttributeSpace& space, const Cells& cells, std::size_t n,
          Rng& rng)
      : store_(space) {
    auto gen = uniform_points(space, 0, 80);
    std::vector<PeerDescriptor> all;
    all.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
      all.push_back(make_descriptor(space, i, gen(rng)));
      store_.put(i, all.back().values);
    }
    hosts_.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
      auto host = std::make_unique<GossipHost>();
      host->id = i;
      auto send = [this, i](NodeId to, MessagePtr m) {
        inbox_.push_back({i, to, std::move(m)});
      };
      host->cyclon =
          std::make_unique<Cyclon>(i, store_, CyclonConfig{}, rng_, send);
      host->vicinity = std::make_unique<Vicinity>(i, all[i].coord, cells, store_,
                                                  VicinityConfig{}, rng_, send);
      host->rt = std::make_unique<RoutingTable>(cells, all[i].coord, i,
                                                RoutingConfig{}, store_);
      hosts_.push_back(std::move(host));
    }
    // Bootstrap every node with a handful of ring neighbors.
    for (NodeId i = 0; i < n; ++i) {
      std::vector<PeerDescriptor> contacts;
      for (std::size_t k = 1; k <= 5; ++k)
        contacts.push_back(all[(i + k) % n]);
      hosts_[i]->cyclon->seed(contacts);
      hosts_[i]->vicinity->seed(contacts, hosts_[i]->cyclon->view());
    }
  }

  std::size_t size() const { return hosts_.size(); }

  /// One gossip node-cycle: what SelectionNode::gossip_tick does per node,
  /// then the handling of every exchange it triggered. As in the simulator,
  /// no message is delivered inside the tick that sent it, so every refresh
  /// runs outside a tick and may leave the table marked refreshed.
  void node_cycle(std::size_t i) {
    GossipHost& h = *hosts_[i];
    h.cyclon->tick();
    h.vicinity->tick(h.cyclon->view());
    h.rt->age_all_with_views();
    h.rt->drop_older_than(50);
    refresh_routing(h);
    // Requests, then the replies they trigger, in send order.
    for (std::size_t k = 0; k < inbox_.size(); ++k) {
      Pending p = std::move(inbox_[k]);
      GossipHost& dst = *hosts_[p.to];
      if (dst.cyclon->handle(p.from, *p.msg) ||
          dst.vicinity->handle(p.from, *p.msg, dst.cyclon->view()))
        refresh_routing(dst);
    }
    inbox_.clear();
  }

 private:
  struct Pending {
    NodeId from;
    NodeId to;
    MessagePtr msg;
  };

  /// SelectionNode::refresh_routing: offer only the views' change feeds
  /// unless the table went stale since the last refresh.
  static void refresh_routing(GossipHost& h) {
    const bool full = h.rt->refresh_stale();
    auto offer = [&h](CompactPeer c) { h.rt->offer(c); };
    h.cyclon->drain_fresh(full, offer);
    h.vicinity->drain_fresh(full, offer);
    h.rt->mark_refreshed();
  }

  Rng rng_{42};
  DescriptorStore store_;
  std::vector<std::unique_ptr<GossipHost>> hosts_;
  std::vector<Pending> inbox_;  // capacity reused across cycles
};

struct MicroResult {
  double ns_per_cycle = 0.0;
  double allocs_per_cycle = 0.0;
};

MicroResult bench_dims(int dims, std::uint64_t cycles) {
  auto space = AttributeSpace::uniform(dims, 3, 0, 80);
  Cells cells(space);
  Rng rng(7);
  Cluster cluster(space, cells, 32, rng);

  auto sweep = [&cluster] {
    for (std::size_t i = 0; i < cluster.size(); ++i) cluster.node_cycle(i);
  };
  // Warmup: converge the views and let every reused buffer/pool reach its
  // steady-state capacity.
  for (std::uint64_t c = 0; c < 200; ++c) sweep();

  const std::uint64_t a0 = bench::alloc_count();
  const auto t0 = Clock::now();
  for (std::uint64_t c = 0; c < cycles; ++c) sweep();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t a1 = bench::alloc_count();

  const double node_cycles = static_cast<double>(cycles * cluster.size());
  MicroResult r;
  r.ns_per_cycle = secs * 1e9 / node_cycles;
  r.allocs_per_cycle = static_cast<double>(a1 - a0) / node_cycles;
  return r;
}

}  // namespace

int main() {
  using namespace ares;

  const std::uint64_t cycles = option_u64("MICRO_CYCLES", 2000);
  exp::BenchReport report("micro_gossip");
  report.set_threads(1);

  const int all_dims[] = {2, 3, 5};
  double worst_allocs = 0.0;
  double total_cycles = 0.0;

  exp::Table t({"d", "ns/node-cycle", "allocs/node-cycle"});
  for (int d : all_dims) {
    MicroResult r = bench_dims(d, cycles);
    t.row({std::to_string(d), exp::fmt(r.ns_per_cycle, 1),
           exp::fmt(r.allocs_per_cycle, 3)});
    report.point()
        .num("dims", static_cast<std::uint64_t>(d))
        .num("ns_per_node_cycle", r.ns_per_cycle)
        .num("allocs_per_node_cycle", r.allocs_per_cycle);
    worst_allocs = std::max(worst_allocs, r.allocs_per_cycle);
    total_cycles += static_cast<double>(cycles) * 32.0;
  }
  t.print();

  // events_per_sec falls back to the node-cycle rate (no simulator here).
  report.add_ops(static_cast<std::uint64_t>(total_cycles));
  report.summary()
      .num("steady_state_allocs_per_node_cycle", worst_allocs)
      .num("measured_node_cycles", total_cycles);
  report.write();

  // Regression gate: a warm gossip node-cycle must never allocate. Timing
  // ratios are reported, not gated (CI wall clocks are noisy; allocation
  // counts are exact).
  if (worst_allocs != 0.0) {
    std::cout << "FAIL: steady-state gossip performed " << exp::fmt(worst_allocs, 4)
              << " heap allocations per node-cycle (expected 0)\n";
    return 1;
  }
  std::cout << "steady-state gossip allocations: 0 per node-cycle\n";
  return 0;
}

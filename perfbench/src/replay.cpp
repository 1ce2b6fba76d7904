// Per-layer ns/op replays for the traced run. Each times public library
// calls on inputs captured from the workload's own state after setup:
// Cells::classify and RoutingTable::offer on the peers that sampled routing
// tables hold, a Cyclon + Vicinity + RoutingTable node-cycle seeded with the
// workload's gossip views (with heap allocations counted), and wire::encode
// and wire::decode on the frames those node-cycles send plus the workload's
// own queries and result sets.

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/messages.h"
#include "core/routing_table.h"
#include "core/selection_node.h"
#include "gossip/cyclon.h"
#include "gossip/vicinity.h"
#include "runtime/wire.h"
#include "space/cells.h"
#include "space/descriptor_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ares;

/// Results of the timed loops land here so the compiler keeps them.
volatile std::uint64_t g_sink = 0;

/// Minimum host time each replay loop measures.
constexpr double kMinReplayS = 0.2;

/// Repeats `body` (which returns the operations it performed) until
/// kMinReplayS has passed; returns ns per operation.
template <typename Body>
double ns_per_op(Body body) {
  const double t0 = wall_s();
  std::uint64_t ops = 0;
  do ops += body();
  while (wall_s() - t0 < kMinReplayS);
  return ops > 0 ? (wall_s() - t0) * 1e9 / static_cast<double>(ops) : 0.0;
}

struct GossipHost {
  std::unique_ptr<Cyclon> cyclon;
  std::unique_ptr<Vicinity> vicinity;
  std::unique_ptr<RoutingTable> rt;
};

/// Every node's gossip stack with synchronous delivery: a node-cycle is
/// what SelectionNode::gossip_tick does, including the partner's handling
/// of each exchange it triggers.
class GossipReplay {
 public:
  GossipReplay(const ReplayInputs& in, const Cells& cells, DescriptorStore& store,
               const std::vector<CellCoord>& coords) {
    const AttributeSpace& space = *in.space;
    const std::size_t n = in.points.size();
    hosts_.resize(n);
    auto descs = [&](const std::vector<NodeId>& ids) {
      std::vector<PeerDescriptor> out;
      for (NodeId id : ids) out.push_back(make_descriptor(space, id, in.points[id]));
      return out;
    };
    for (NodeId i = 0; i < n; ++i) {
      auto send = [this, i](NodeId to, MessagePtr m) { deliver(i, to, std::move(m)); };
      GossipHost& h = hosts_[i];
      h.cyclon = std::make_unique<Cyclon>(i, store, CyclonConfig{}, rng_, send);
      h.vicinity = std::make_unique<Vicinity>(i, coords[i], cells, store,
                                              VicinityConfig{}, rng_, send);
      h.rt = std::make_unique<RoutingTable>(cells, coords[i], i, RoutingConfig{}, store);
      h.cyclon->seed(descs(in.cyclon_views[i]));
      h.vicinity->seed(descs(in.vicinity_views[i]), h.cyclon->view());
    }
  }

  std::size_t size() const { return hosts_.size(); }

  void node_cycle(std::size_t i) {
    GossipHost& h = hosts_[i];
    h.cyclon->tick();
    h.vicinity->tick(h.cyclon->view());
    h.rt->age_all();
    h.rt->drop_older_than(ProtocolConfig{}.rt_max_age);
    for (const auto& d : h.cyclon->view().entries()) h.rt->offer(d);
    for (const auto& d : h.vicinity->view().entries()) h.rt->offer(d);
  }

  /// Encoded frames of the first messages of each gossip kind delivered.
  std::map<std::string, std::vector<std::vector<std::uint8_t>>> frames;
  bool capture = false;

 private:
  void deliver(NodeId from, NodeId to, MessagePtr m) {
    if (capture) {
      auto& f = frames[m->type_name()];
      if (f.size() < 256) f.push_back(wire::encode(*m));
    }
    GossipHost& h = hosts_[to];
    if (h.cyclon->handle(from, *m)) return;
    h.vicinity->handle(from, *m, h.cyclon->view());
  }

  Rng rng_{42};
  std::vector<GossipHost> hosts_;
};

}  // namespace

void sample_routing(ReplayInputs& in, const SelectionNode& sn) {
  const RoutingTable& rt = sn.routing();
  std::vector<NodeId> peers;
  for (int l = 1; l <= rt.levels(); ++l)
    for (int k = 0; k < rt.dims(); ++k)
      for (const CompactPeer& c : rt.slot(l, k)) peers.push_back(c.id);
  for (const CompactPeer& c : rt.zero()) peers.push_back(c.id);
  in.sample.push_back(sn.id());
  in.sample_peers.push_back(std::move(peers));
}

void capture_views(ReplayInputs& in, const SelectionNode& sn) {
  for (const CompactPeer& c : sn.cyclon().view().entries())
    in.cyclon_views[sn.id()].push_back(c.id);
  for (const CompactPeer& c : sn.vicinity().view().entries())
    in.vicinity_views[sn.id()].push_back(c.id);
}

void replay_layers(const ReplayInputs& in, std::map<std::string, double>& layer) {
  const AttributeSpace& space = *in.space;
  const Cells cells(space);
  DescriptorStore store(space);
  store.reserve(in.points.size());
  std::vector<CellCoord> coords;
  for (std::size_t i = 0; i < in.points.size(); ++i) {
    store.put(static_cast<NodeId>(i), in.points[i]);
    coords.push_back(space.coord_of(in.points[i]));
  }

  // -- space: Cells::classify --------------------------------------------------
  std::uint64_t sink = 0;
  layer["space.classify_ns"] = ns_per_op([&] {
    std::uint64_t calls = 0;
    for (std::size_t s = 0; s < in.sample.size(); ++s)
      for (NodeId peer : in.sample_peers[s]) {
        sink += cells.classify(coords[in.sample[s]], coords[peer]).has_value() ? 1 : 0;
        ++calls;
      }
    return calls;
  });

  // -- core: RoutingTable::offer -------------------------------------------------
  std::vector<RoutingTable> tables;
  for (NodeId id : in.sample)
    tables.emplace_back(cells, coords[id], id, RoutingConfig{}, store);
  double offer_s = 0.0;
  std::uint64_t offers = 0;
  const double t_offer = wall_s();
  while (wall_s() - t_offer < kMinReplayS) {
    for (std::size_t s = 0; s < tables.size(); ++s) {
      tables[s].clear();
      const double t0 = wall_s();
      for (NodeId peer : in.sample_peers[s]) tables[s].offer(CompactPeer{peer, 0});
      offer_s += wall_s() - t0;
      offers += in.sample_peers[s].size();
    }
  }
  layer["core.rt_offer_ns"] =
      offers > 0 ? offer_s * 1e9 / static_cast<double>(offers) : 0.0;

  // -- gossip: one node-cycle ---------------------------------------------------
  std::map<std::string, std::vector<std::vector<std::uint8_t>>> frames;
  if (!in.cyclon_views.empty()) {
    GossipReplay g(in, cells, store, coords);
    // Warm-up: converge the views and let reused buffers and pools reach
    // their steady-state capacity; capture frames on the way.
    g.capture = true;
    for (int sweep = 0; sweep < 2; ++sweep)
      for (std::size_t i = 0; i < g.size(); ++i) g.node_cycle(i);
    g.capture = false;
    frames = std::move(g.frames);
    const std::uint64_t a0 = thread_allocs();
    std::uint64_t cycles = 0;
    layer["gossip.ns_per_node_cycle"] = ns_per_op([&] {
      for (std::size_t i = 0; i < g.size(); ++i) g.node_cycle(i);
      cycles += g.size();
      return g.size();
    });
    layer["gossip.allocs_per_node_cycle"] =
        static_cast<double>(thread_allocs() - a0) / static_cast<double>(cycles);
  }

  // -- wire: encode / decode per kind ---------------------------------------------
  for (std::size_t i = 0; i < in.queries.size(); ++i) {
    QueryMsg q;
    q.id = (static_cast<QueryId>(i) << 32) | 1;
    q.reply_to = q.origin = static_cast<NodeId>(i);
    q.query = in.queries[i];
    q.sigma = 50;
    q.level = space.max_level();
    q.dims_mask = all_dims_mask(space.dimensions());
    frames["select.query"].push_back(wire::encode(q));
    ReplyMsg r;
    r.id = q.id;
    r.matching = in.replies[i];
    r.complete = true;
    frames["select.reply"].push_back(wire::encode(r));
    ProgressMsg p;
    p.id = q.id;
    frames["select.progress"].push_back(wire::encode(p));
  }
  double enc_total = 0.0, dec_total = 0.0;
  std::size_t kinds = 0;
  for (const auto& [kind, fs] : frames) {
    std::vector<MessagePtr> msgs;
    double bytes = 0.0;
    for (const auto& f : fs) {
      bytes += static_cast<double>(f.size());
      if (auto m = wire::decode(f)) msgs.push_back(std::move(m));
    }
    layer["wire.decode_fail"] += static_cast<double>(fs.size() - msgs.size());
    const double enc = ns_per_op([&] {
      for (const auto& m : msgs) sink += wire::encode(*m).size();
      return msgs.size();
    });
    const double dec = ns_per_op([&] {
      for (const auto& f : fs) sink += wire::decode(f) != nullptr ? 1 : 0;
      return fs.size();
    });
    layer["wire.encode_ns." + kind] = enc;
    layer["wire.decode_ns." + kind] = dec;
    layer["wire.frame_bytes." + kind] = bytes / static_cast<double>(fs.size());
    enc_total += enc;
    dec_total += dec;
    ++kinds;
  }
  const double n_kinds = static_cast<double>(std::max<std::size_t>(kinds, 1));
  layer["wire.encode_ns_per_frame"] = enc_total / n_kinds;
  layer["wire.decode_ns_per_frame"] = dec_total / n_kinds;
  g_sink = sink;
}

}  // namespace perfbench

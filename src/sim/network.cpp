#include "sim/network.h"

#include <cassert>

#include "runtime/wire.h"

namespace ares {

Network::Network(Simulator& sim, std::unique_ptr<LatencyModel> latency)
    : sim_(sim),
      latency_(std::move(latency)),
      m_wire_decode_fail_(metrics().counter("wire.decode_fail")),
      m_wire_encode_fail_(metrics().counter("wire.encode_fail")),
      m_wire_bytes_saved_(metrics().counter("wire.bytes_delta_saved")) {
  assert(latency_ != nullptr);
  // Owner-guarded timers (node_timer) consult this at execution time.
  sim_.set_liveness([this](NodeId id) { return alive(id); });
}

Network::~Network() = default;

NodeId Network::add_node(std::unique_ptr<Node> node) {
  assert(node != nullptr && !node->attached());
  const auto id = static_cast<NodeId>(nodes_.size());
  // Pre-size the per-node metric rows on every join (amortized O(1) per
  // node), so counter bumps never grow them on the hot path.
  metrics().reserve_nodes(static_cast<std::size_t>(id) + 1);
  bind(*node, *this, id);
  Node* raw = node.get();
  nodes_.push_back(std::move(node));
  ++population_;
  // Ids are monotonically increasing, so appending keeps the cache sorted:
  // no need to invalidate and pay a full rebuild + sort per add. Bootstrap
  // samples introducers from alive_ids() after every join, which made grid
  // construction O(n^2 log n) before this.
  if (alive_cache_valid_) alive_cache_.push_back(id);
  raw->start();
  return id;
}

void Network::remove_node(NodeId id, bool graceful) {
  if (!alive(id)) return;
  if (graceful) nodes_[id]->stop();
  unbind(*nodes_[id]);
  nodes_[id].reset();
  --population_;
  alive_cache_valid_ = false;
}

const std::vector<NodeId>& Network::alive_ids() const {
  if (!alive_cache_valid_) {
    alive_cache_.clear();
    alive_cache_.reserve(population_);
    for (std::size_t id = 0; id < nodes_.size(); ++id)
      if (nodes_[id] != nullptr) alive_cache_.push_back(static_cast<NodeId>(id));
    alive_cache_valid_ = true;
  }
  return alive_cache_;
}

void Network::send(NodeId from, NodeId to, MessagePtr m) {
  assert(m != nullptr);
  // Delta-mode bandwidth accounting: wire_size()/on_send already measure the
  // compressed frame; this counter preserves the uncompressed-vs-compressed
  // difference so benches can report both. No-op (and no sizing work) when
  // delta mode is off.
  if (wire::delta_enabled()) {
    if (std::size_t saved = wire::delta_savings(*m); saved > 0)
      metrics().inc(from, m_wire_bytes_saved_, saved);
  }
  if (wire::checked_delivery()) {
    // Wire-true mode: the message crosses the boundary as codec bytes, the
    // way a socket backend would move it. Undecodable frames are dropped
    // (and metered), never delivered or crashed on.
    auto rc = wire::recode(*m);
    if (rc.msg == nullptr) {
      metrics().inc(from, rc.encode_ok ? m_wire_decode_fail_ : m_wire_encode_fail_);
      stats_.on_send(from, *m);
      stats_.on_drop(*m);
      return;
    }
    m = std::move(rc.msg);
  }
  stats_.on_send(from, *m);
  const SimTime latency = latency_->sample(sim_.rng(), from, to);
  // Ownership moves straight into the (move-only, small-buffer) event
  // closure: no shared_ptr control block, no closure heap allocation.
  sim_.schedule_after(latency, [this, from, to, msg = std::move(m)] {
    Node* dst = find(to);
    if (dst == nullptr) {
      stats_.on_drop(*msg);
      return;
    }
    stats_.on_deliver(to, *msg);
    dst->on_message(from, *msg);
  });
}

void Network::node_timer(NodeId id, SimTime delay, UniqueAction fn) {
  // Owner-guarded scheduling: the caller's move-only action lands in the
  // event heap as-is and the liveness probe (installed in the ctor) decides
  // at pop time. Wrapping it in an alive-check closure here would force a
  // heap allocation per timer — a UniqueAction nested in another closure can
  // never fit the inline buffer.
  sim_.schedule_owned_after(delay, id, std::move(fn));
}
}  // namespace ares

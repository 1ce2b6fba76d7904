#pragma once

/// \file network.h
/// The simulated fully-connected network (§3: "each node can reach any other
/// node") — the discrete-event Runtime backend. Owns all live nodes, assigns
/// monotonically increasing NodeIds (never reused, so a rejoining node gets
/// "a different identity" as in the paper's churn model), delivers messages
/// with model-sampled latency, and drops messages addressed to dead nodes.
///
/// Protocol code never sees this class: SelectionNode and the gossip layers
/// program against runtime/runtime.h only. Network is what the experiment
/// layer (exp/grid.h) and the benchmarks instantiate.

#include <memory>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "runtime/traffic.h"

namespace ares {

class Network final : public Runtime {
 public:
  Network(Simulator& sim, std::unique_ptr<LatencyModel> latency);
  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }

  /// Traffic counters.
  NetworkStats& stats() { return stats_; }

  /// Installs the per-node load predicate on the traffic counters.
  void set_load_filter(NetworkStats::LoadFilter f) {
    stats_.set_load_filter(std::move(f));
  }

  // -- Runtime contract ----------------------------------------------------
  SimTime now() const override { return sim_.now(); }
  Rng& rng() override { return sim_.rng(); }

  /// Sends `m` from `from` to `to` with sampled latency. If `to` is dead at
  /// delivery time, the message is counted as dropped.
  void send(NodeId from, NodeId to, MessagePtr m) override;

  /// Incarnation-safe timer for node `id` (owner-guarded event: the action
  /// is dropped at execution time when `id` has left; no wrapper closure).
  void node_timer(NodeId id, SimTime delay, UniqueAction fn) override;

  // -- membership ----------------------------------------------------------
  /// Adds a node: assigns the next NodeId, attaches it, and calls start().
  NodeId add_node(std::unique_ptr<Node> node);

  /// Removes a node. `graceful` invokes stop() first (a leave); otherwise
  /// this models a crash. In-flight messages to it are dropped on delivery.
  void remove_node(NodeId id, bool graceful);

  bool alive(NodeId id) const { return id < nodes_.size() && nodes_[id] != nullptr; }
  std::size_t population() const { return population_; }

  /// Live node ids in id order (rebuilt lazily; cheap between membership
  /// changes). The returned reference is invalidated by add/remove.
  const std::vector<NodeId>& alive_ids() const;

  /// Typed access to a live node; nullptr when dead/unknown.
  Node* find(NodeId id) { return alive(id) ? nodes_[id].get() : nullptr; }
  template <typename T>
  T* find_as(NodeId id) {
    return dynamic_cast<T*>(find(id));
  }

 private:
  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  NetworkStats stats_;
  // Wire metrics handles, interned once up front.
  Metrics::Counter m_wire_decode_fail_;
  Metrics::Counter m_wire_encode_fail_;
  Metrics::Counter m_wire_bytes_saved_;
  /// Indexed by NodeId; a departed node leaves a null slot. Ids are dense
  /// and never reused, so this costs one pointer per id ever assigned.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::size_t population_ = 0;
  mutable std::vector<NodeId> alive_cache_;
  mutable bool alive_cache_valid_ = false;
};

}  // namespace ares

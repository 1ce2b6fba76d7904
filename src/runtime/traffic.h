#pragma once

/// \file traffic.h
/// Network-level traffic accounting: global per-type counters plus per-node
/// sent/received counts for a caller-selected subset of message types (the
/// "load" in the paper's Fig. 9 is query-protocol traffic only, excluding
/// background gossip). Backend-neutral — both the simulated transport
/// (sim/network.h) and the socket transport (net/udp_runtime.h) feed an
/// instance, so bytes-per-cycle comparisons across backends read the same
/// counters.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "runtime/message.h"

namespace ares {

class NetworkStats {
 public:
  struct TypeCounter {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };

  /// Predicate selecting which messages count toward per-node load.
  using LoadFilter = std::function<bool(const Message&)>;

  void set_load_filter(LoadFilter f) { load_filter_ = std::move(f); }

  void on_send(NodeId from, const Message& m);
  void on_deliver(NodeId to, const Message& m);
  void on_drop(const Message& m);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }

  const std::map<std::string, TypeCounter, std::less<>>& sent_by_type() const {
    return by_type_;
  }

  /// Per-node counters; vectors sized to the largest node id seen.
  const std::vector<std::uint64_t>& load_sent_by_node() const { return load_sent_; }
  const std::vector<std::uint64_t>& load_received_by_node() const { return load_recv_; }

  /// Clears per-node load counters (used between experiment phases); global
  /// totals are preserved.
  void reset_node_load();

 private:
  void bump(std::vector<std::uint64_t>& v, NodeId id);

  std::uint64_t sent_ = 0, delivered_ = 0, dropped_ = 0;
  // Transparent comparator: on_send() looks up by const char* without
  // materializing a std::string per message (type names longer than the
  // SSO buffer would otherwise heap-allocate on every send).
  std::map<std::string, TypeCounter, std::less<>> by_type_;
  std::vector<std::uint64_t> load_sent_, load_recv_;
  LoadFilter load_filter_;
};

}  // namespace ares

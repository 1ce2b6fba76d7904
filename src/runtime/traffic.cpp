#include "runtime/traffic.h"

#include <string_view>

namespace ares {

void NetworkStats::bump(std::vector<std::uint64_t>& v, NodeId id) {
  if (id >= v.size()) v.resize(id + 1, 0);
  ++v[id];
}

void NetworkStats::on_send(NodeId from, const Message& m) {
  ++sent_;
  const std::string_view type = m.type_name();
  auto it = by_type_.find(type);
  if (it == by_type_.end()) it = by_type_.emplace(type, TypeCounter{}).first;
  ++it->second.count;
  it->second.bytes += m.wire_size();
  if (load_filter_ && load_filter_(m)) bump(load_sent_, from);
}

void NetworkStats::on_deliver(NodeId to, const Message& m) {
  ++delivered_;
  if (load_filter_ && load_filter_(m)) bump(load_recv_, to);
}

void NetworkStats::on_drop(const Message&) { ++dropped_; }

void NetworkStats::reset_node_load() {
  load_sent_.assign(load_sent_.size(), 0);
  load_recv_.assign(load_recv_.size(), 0);
}

}  // namespace ares

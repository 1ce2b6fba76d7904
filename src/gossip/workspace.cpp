#include "gossip/workspace.h"

#include <algorithm>

namespace ares {

void SelectionWorkspace::dedupe(NodeId exclude, std::uint32_t max_age) {
  // Table at least twice the candidate count (a power of two): linear probes
  // stay short. Slots stamped with an older epoch read as empty, so the
  // table is never cleared between calls.
  std::size_t cap = 16;
  while (cap < 2 * staged.size()) cap *= 2;
  if (ids_.size() < cap) {
    ids_.assign(cap, IdSlot{});
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // wrapped: stale stamps could read as current
    std::fill(ids_.begin(), ids_.end(), IdSlot{});
    epoch_ = 1;
  }
  const std::size_t mask = ids_.size() - 1;
  std::size_t kept = 0;
  for (const Staged& s : staged) {
    if (s.p.id == exclude || s.p.age > max_age) continue;
    std::size_t h = (static_cast<std::size_t>(s.p.id) * 0x9E3779B97F4A7C15ULL) >> 32;
    while (true) {
      IdSlot& slot = ids_[h & mask];
      if (slot.epoch != epoch_) {  // first entry for this id
        slot = {epoch_, s.p.id, static_cast<std::uint32_t>(kept)};
        staged[kept++] = s;  // kept <= the read position: in place
        break;
      }
      if (slot.id == s.p.id) {
        // Strictly younger replaces; on equal ages the first staged stays.
        if (s.p.age < staged[slot.pos].p.age) staged[slot.pos] = s;
        break;
      }
      ++h;
    }
  }
  staged.resize(kept);
}

}  // namespace ares

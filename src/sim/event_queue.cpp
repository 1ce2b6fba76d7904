#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ares {

void EventQueue::push(SimTime t, Action action, NodeId owner) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(action);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(action));
  }
  heap_.push_back(Key{t, next_seq_++, slot, owner});
  std::push_heap(heap_.begin(), heap_.end());
}

EventQueue::Action EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end());
  const Key k = heap_.back();
  heap_.pop_back();
  Action a = std::move(slots_[k.slot]);  // leaves the slot empty
  free_.push_back(k.slot);
  return a;
}

void EventQueue::reserve(std::size_t n) {
  heap_.reserve(n);
  slots_.reserve(n);
  free_.reserve(n);
}

}  // namespace ares

#include "sim/simulator.h"

#include <algorithm>

namespace ares {

void Simulator::schedule_at(SimTime t, EventQueue::Action action) {
  if (t < now_) ++late_;
  queue_.push(std::max(t, now_), std::move(action));
}

void Simulator::schedule_after(SimTime delay, EventQueue::Action action) {
  schedule_at(now_ + std::max<SimTime>(delay, 0), std::move(action));
}

void Simulator::set_liveness(std::function<bool(NodeId)> probe) {
  alive_ = std::move(probe);
}

void Simulator::schedule_owned_after(SimTime delay, NodeId owner,
                                     EventQueue::Action action) {
  const SimTime t = now_ + std::max<SimTime>(delay, 0);
  queue_.push(t, std::move(action), owner);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  now_ = queue_.next_time();
  const NodeId owner = queue_.next_owner();
  auto action = queue_.pop();
  ++executed_;
  if (may_run(owner)) action();
  return true;
}

std::uint64_t Simulator::run_until(SimTime t) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= t) {
    step();
    ++n;
  }
  // Advance the clock to the horizon even if no event lands exactly there.
  now_ = std::max(now_, t);
  return n;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace ares

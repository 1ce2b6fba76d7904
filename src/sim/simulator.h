#pragma once

/// \file simulator.h
/// The discrete-event simulation core: a virtual clock plus an event queue.
/// This is our substitute for PeerSim (and, with different scale/latency
/// parameters, for the DAS-3 emulation and the PlanetLab deployment); see
/// DESIGN.md §5.
///
/// One global queue drained on one thread; ties are broken by insertion
/// order, so a run is fully determined by its seed.

#include <functional>

#include "common/rng.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace ares {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Runtime-level randomness.
  Rng& rng() { return rng_; }

  /// Schedules `action` at absolute virtual time `t`. A `t` already in the
  /// past is clamped to now() and counted in late_events() — a persistently
  /// growing count usually flags a scheduling bug in the caller.
  void schedule_at(SimTime t, EventQueue::Action action);

  /// Schedules `action` after `delay` (clamped to >= 0).
  void schedule_after(SimTime delay, EventQueue::Action action);

  /// Installs the liveness probe consulted for owner-guarded events at
  /// execution time (Runtime backends install their alive() check).
  void set_liveness(std::function<bool(NodeId)> probe);

  /// Schedules an owner-guarded event after `delay`: the action is dropped
  /// (popped but not invoked) when `owner` fails the liveness probe at
  /// execution time. This is the backend half of Runtime::node_timer(): the
  /// caller's move-only action lands in the event heap with no wrapper
  /// closure, so timers stay allocation-free.
  void schedule_owned_after(SimTime delay, NodeId owner, EventQueue::Action action);

  /// Executes the next pending event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains or the clock passes `t` (events at exactly
  /// `t` are executed). Returns the number of events executed.
  std::uint64_t run_until(SimTime t);

  /// Runs until the queue drains. Returns the number of events executed.
  std::uint64_t run();

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  /// Number of schedule calls whose target time was already in the past
  /// (silently clamped to the caller's clock).
  std::uint64_t late_events() const { return late_; }

 private:
  /// True when the event may run: unguarded, no probe, or owner alive.
  bool may_run(NodeId owner) const {
    return owner == kInvalidNode || alive_ == nullptr || alive_(owner);
  }

  SimTime now_ = 0;
  EventQueue queue_;
  Rng rng_;
  std::uint64_t executed_ = 0;
  std::uint64_t late_ = 0;
  std::function<bool(NodeId)> alive_;
};

}  // namespace ares

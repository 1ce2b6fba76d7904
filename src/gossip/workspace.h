#pragma once

/// \file workspace.h
/// Per-thread scratch for the gossip selection path. Every buffer here is
/// live only inside one call of Vicinity's selection functions, one CYCLON
/// subset draw, or one View::random_subset_into, so one set per thread
/// serves every node the thread runs. The buffers stay warm in L1 across
/// nodes, instead of each node keeping about 3 KB of cold per-instance
/// scratch.
///
/// Ownership rule: a caller may hold workspace contents only until it hands
/// control to code that may run another node, and in particular never across
/// a send_ call. A runtime that delivers synchronously runs the callee on the
/// same thread and therefore on the same workspace. thread_local like
/// common/object_pool.h: exp::run_trials workers and UdpRuntime threads run
/// nodes on several threads at once.

#include <cstdint>
#include <vector>

#include "gossip/peer.h"

namespace ares {

struct SelectionWorkspace {
  /// A staged candidate and its staging position (merge() uses the position
  /// to tell entries carried over from the view from new or younger ones).
  struct Staged {
    CompactPeer p;
    std::uint32_t idx;
  };
  /// A ranked candidate: `hi` is the rank class (common-cell level, or the
  /// slot bucket), lo = (age << 32) | id. Ids are unique after dedupe, so
  /// (hi, lo) is a total order.
  struct Ranked {
    std::uint32_t hi;
    std::uint32_t idx;  // staging position
    std::uint64_t lo;

    CompactPeer peer() const {
      return {static_cast<NodeId>(lo), static_cast<std::uint32_t>(lo >> 32)};
    }
    friend bool operator<(const Ranked& a, const Ranked& b) {
      return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }
  };

  std::vector<Staged> staged;
  std::vector<Ranked> ranked;
  std::vector<Ranked> bucketed;            // ranked, counting-sorted by hi
  std::vector<std::uint32_t> bucket_start;  // counting-sort offsets
  std::vector<Ranked> winners;             // selection results
  std::vector<CompactPeer> peers;          // random subsets
  std::vector<std::size_t> indices;        // View::random_subset_into

  static SelectionWorkspace& local() {
    thread_local SelectionWorkspace ws;
    return ws;
  }

  void stage(CompactPeer p) {
    staged.push_back({p, static_cast<std::uint32_t>(staged.size())});
  }

  /// Keeps one entry per id in `staged`: the youngest, the first staged on
  /// equal ages. Drops `exclude` and entries older than `max_age`. The
  /// survivors stay in first-staged order. One pass over an epoch-stamped
  /// open-addressing id table: no sort, no clearing between calls.
  void dedupe(NodeId exclude, std::uint32_t max_age);

 private:
  struct IdSlot {
    std::uint32_t epoch = 0;
    NodeId id = kInvalidNode;
    std::uint32_t pos = 0;
  };
  std::vector<IdSlot> ids_;
  std::uint32_t epoch_ = 0;
};

}  // namespace ares

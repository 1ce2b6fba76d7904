#pragma once

/// \file view.h
/// A partial view: the small bounded set of peer links each gossip layer
/// maintains (the paper's K_c random links and K_v selective links). Entries
/// are 8-byte CompactPeer handles — peer profiles live in the deployment's
/// DescriptorStore; the gossip layers materialize full descriptors only when
/// building messages.

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "gossip/peer.h"

namespace ares {

class View {
 public:
  /// Reserves both buffers up front: a view fills to capacity within a few
  /// cycles, and growing by doubling would allocate on the way and leave
  /// up to twice the capacity behind.
  explicit View(std::size_t capacity) : capacity_(capacity) {
    entries_.reserve(capacity);
    fresh_.reserve(capacity);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool full() const { return entries_.size() >= capacity_; }

  const std::vector<CompactPeer>& entries() const { return entries_; }

  bool contains(NodeId id) const;
  const CompactPeer* find(NodeId id) const;

  /// Adds `d` if absent; if present, keeps the younger of the two
  /// entries. Returns false when the view is full
  /// and `d` is absent (caller decides replacement policy).
  bool insert_or_refresh(const CompactPeer& d);

  /// Inserts `d`, evicting the oldest entry if full. Never stores duplicates
  /// (refreshes instead).
  void insert_evicting_oldest(const CompactPeer& d);

  void remove(NodeId id);

  /// Increments every entry's age by one.
  void age_all();

  /// Drops entries with age > max_age.
  void drop_older_than(std::uint32_t max_age);

  /// Index of the entry with the highest age (ties: first). Precondition:
  /// !empty().
  std::size_t oldest_index() const;

  /// Removes and returns the oldest entry. Precondition: !empty().
  CompactPeer take_oldest();

  /// Up to `k` distinct entries chosen uniformly at random.
  std::vector<CompactPeer> random_subset(Rng& rng, std::size_t k) const;

  /// As random_subset, but fills `out` (clearing it first) so a warm caller
  /// reuses the buffer's capacity. Consumes `rng` identically to
  /// random_subset for the same k.
  void random_subset_into(Rng& rng, std::size_t k,
                          std::vector<CompactPeer>& out) const;

  /// Replaces the whole content (used by selection-function merges); the
  /// caller guarantees |v| <= capacity and no duplicates. Copies into the
  /// view's own buffer, so its capacity is kept. Marks nothing fresh: the
  /// caller marks the entries that are new or younger (mark_fresh).
  void assign(const std::vector<CompactPeer>& v);

  // -- change feed ---------------------------------------------------------
  // Entries inserted, or made younger, since the last drain_fresh(). Every
  // insertion path above marks its entry; assign() leaves that to the
  // caller. SelectionNode offers only these to its routing table (see
  // SelectionNode::refresh_routing for why that suffices). Bounded by
  // capacity(): past that the feed degrades to "every entry is fresh".

  void mark_fresh(NodeId id);

  /// Calls fn(entry) for every fresh entry still in the view — for every
  /// entry when `all` is set or the feed overflowed — then empties the feed.
  template <typename F>
  void drain_fresh(bool all, F&& fn) {
    if (all || all_fresh_) {
      for (const CompactPeer e : entries_) fn(e);
    } else {
      for (const NodeId id : fresh_)
        if (const CompactPeer* e = find(id)) fn(*e);
    }
    fresh_.clear();
    all_fresh_ = false;
  }

 private:
  std::size_t capacity_;
  std::vector<CompactPeer> entries_;
  std::vector<NodeId> fresh_;  // distinct ids, at most capacity_
  bool all_fresh_ = false;     // fresh_ overflowed
};

}  // namespace ares

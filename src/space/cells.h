#pragma once

/// \file cells.h
/// Cell hierarchy math (§4.1 of the paper): nested cells C_l, neighboring
/// subcells N(l,k), membership classification, and hashable cell keys.
///
/// Given a node's level-0 cell coordinates, its level-l cell index along a
/// dimension is simply (index >> l) because each level joins 2 adjacent
/// halves per dimension (2^d subcells total).
///
/// The neighboring subcell N(l,k)(X) is constructed exactly as the paper
/// describes: split C_l(X) along dimension 0, keep X's half; split that half
/// along dimension 1, keep X's half; ...; the half *not* containing X at the
/// k-th split is N(l,k)(X). Equivalently, in level-(l-1) index terms:
///   - dims j < k : Y agrees with X's level-(l-1) index ("same half")
///   - dim  j = k : Y's level-(l-1) index is X's sibling ("other half")
///   - dims j > k : Y anywhere inside C_l(X).

#include <bit>
#include <cstdint>
#include <optional>

#include "common/hashing.h"
#include "space/region.h"

namespace ares {

/// Identifies which routing-table slot another node occupies relative to a
/// reference node: level 0 means "same level-0 cell" (the neighborsZero set,
/// dimension unused/-1); level >= 1 means the node lies in N(level,dim).
struct CellSlot {
  int level = 0;
  int dim = -1;

  friend bool operator==(const CellSlot&, const CellSlot&) = default;
};

/// Stateless helpers bound to an AttributeSpace.
class Cells {
 public:
  explicit Cells(const AttributeSpace& space) : space_(&space) {}

  const AttributeSpace& space() const { return *space_; }

  /// Level-l cell index along one dimension from the level-0 index.
  static CellIndex at_level(CellIndex idx0, int level) { return idx0 >> level; }

  /// True when `a` and `b` share the same C_l cell.
  bool same_cell(const CellCoord& a, const CellCoord& b, int level) const;

  /// Region (in level-0 index space) of the level-l cell containing `c`.
  Region cell_region(const CellCoord& c, int level) const;

  /// Region of the neighboring subcell N(level,dim) of the node at `c`.
  /// Precondition: 1 <= level <= max_level, 0 <= dim < d.
  Region neighbor_region(const CellCoord& c, int level, int dim) const;

  /// Classifies where `other` sits relative to `self`:
  ///   - level 0  -> same level-0 cell (neighborsZero candidate)
  ///   - (l, k)   -> other in N(l,k)(self)
  ///   - nullopt  -> the coords share no cell up to max_level. For in-range
  ///     coords this cannot happen (the N(l,k) subcells plus C_0 partition
  ///     the space), but a coord with an index >= 2^max_level along some
  ///     dimension (a descriptor from a differently-cut space) lands here;
  ///     Vicinity ranks such candidates at kUnrankedLevel.
  std::optional<CellSlot> classify(const CellCoord& self, const CellCoord& other) const;

  /// As above, over raw d-element rows (DescriptorStore::coord_ptr): the hot
  /// paths classify against stored rows without copying either coordinate.
  /// O(d): the shared level is the bit width of the OR of the per-dimension
  /// XORs, and the slot dimension is the first one whose XOR reaches that
  /// width's top bit.
  std::optional<CellSlot> classify(const CellIndex* self, const CellIndex* other) const {
    return classify_rows(self, other, static_cast<std::size_t>(space_->dimensions()));
  }

  /// Stable hash key of the level-l cell containing `c` (keyed by level too,
  /// so keys from different levels never collide structurally).
  std::uint64_t cell_key(const CellCoord& c, int level) const;

 private:
  /// Inline: it runs once per gossip candidate, several hundred times per
  /// node-cycle.
  std::optional<CellSlot> classify_rows(const CellIndex* self, const CellIndex* other,
                                        std::size_t dims) const {
    // Two coords share C_l iff every index agrees above bit l, so the
    // smallest shared level is the bit width of the OR of the XORs.
    CellIndex diff = 0;
    for (std::size_t j = 0; j < dims; ++j) diff |= self[j] ^ other[j];
    const int level = static_cast<int>(std::bit_width(diff));
    if (level == 0) return CellSlot{0, -1};
    if (level > space_->max_level()) return std::nullopt;  // out-of-range index
    // `other` is in C_level(self) \ C_(level-1)(self): the slot dimension
    // is the first whose level-(l-1) half differs.
    for (std::size_t j = 0; j < dims; ++j)
      if (((self[j] ^ other[j]) >> (level - 1)) != 0)
        return CellSlot{level, static_cast<int>(j)};
    return std::nullopt;  // unreachable: diff has bit (level-1) in some dim
  }

  const AttributeSpace* space_;
};

/// Locality-preserving placement key: interleaves the level-0 cell indices
/// most-significant-bit first (a Morton prefix over the nested-cell
/// hierarchy) and splits the resulting key range into `shards` contiguous
/// slices. Nodes sharing a coarse cell — exactly the nodes the selective
/// gossip layer and the query DFS make talk to each other — therefore land
/// in the same or adjacent slices. The UDP benchmark uses it to place nodes
/// on hosting sockets.
///
/// Purely a function of (space geometry, coord, shards): every coord maps to
/// exactly one shard, remapping under churn is deterministic, and for
/// uniformly distributed coords the slice populations differ by at most the
/// ratio ceil(2^b/S)/floor(2^b/S) <= 2 in expectation (b = interleaved key
/// bits, S = shards; see tests/space/shard_map_test.cpp).
std::uint32_t shard_of_coord(const AttributeSpace& space, const CellCoord& coord,
                             std::uint32_t shards);

}  // namespace ares

#include "space/cells.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace ares {
namespace {

TEST(Cells, AtLevel) {
  EXPECT_EQ(Cells::at_level(7, 0), 7u);
  EXPECT_EQ(Cells::at_level(7, 1), 3u);
  EXPECT_EQ(Cells::at_level(7, 3), 0u);
}

TEST(Cells, SameCell) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  EXPECT_TRUE(c.same_cell({0, 0}, {1, 1}, 1));
  EXPECT_FALSE(c.same_cell({0, 0}, {2, 0}, 1));
  EXPECT_TRUE(c.same_cell({0, 0}, {2, 0}, 2));
  EXPECT_TRUE(c.same_cell({0, 0}, {7, 7}, 3));  // whole space is one C_3
}

TEST(Cells, CellRegion) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  Region r0 = c.cell_region({5, 2}, 0);
  EXPECT_EQ(r0.interval(0), (IndexInterval{5, 5}));
  EXPECT_EQ(r0.interval(1), (IndexInterval{2, 2}));
  Region r2 = c.cell_region({5, 2}, 2);
  EXPECT_EQ(r2.interval(0), (IndexInterval{4, 7}));
  EXPECT_EQ(r2.interval(1), (IndexInterval{0, 3}));
}

TEST(Cells, NeighborRegionMatchesPaperConstruction) {
  // Figure 1(b) analogue for d=2, max(l)=3, node at coords (0,0):
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  CellCoord a{0, 0};
  // N(3,0): the opposite half of the whole space along dim 0.
  Region n30 = c.neighbor_region(a, 3, 0);
  EXPECT_EQ(n30.interval(0), (IndexInterval{4, 7}));
  EXPECT_EQ(n30.interval(1), (IndexInterval{0, 7}));
  // N(3,1): same half along dim 0, opposite along dim 1.
  Region n31 = c.neighbor_region(a, 3, 1);
  EXPECT_EQ(n31.interval(0), (IndexInterval{0, 3}));
  EXPECT_EQ(n31.interval(1), (IndexInterval{4, 7}));
  // N(1,0): inside C_1 (cells 0..1 per dim), sibling along dim 0.
  Region n10 = c.neighbor_region(a, 1, 0);
  EXPECT_EQ(n10.interval(0), (IndexInterval{1, 1}));
  EXPECT_EQ(n10.interval(1), (IndexInterval{0, 1}));
}

TEST(Cells, NeighborRegionsDisjointFromOwnSubcell) {
  auto s = AttributeSpace::uniform(3, 3, 0, 80);
  Cells c(s);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    CellCoord a{static_cast<CellIndex>(rng.below(8)),
                static_cast<CellIndex>(rng.below(8)),
                static_cast<CellIndex>(rng.below(8))};
    for (int l = 1; l <= 3; ++l) {
      Region own = c.cell_region(a, l - 1);
      for (int k = 0; k < 3; ++k) {
        Region n = c.neighbor_region(a, l, k);
        EXPECT_FALSE(n.intersects(own)) << "l=" << l << " k=" << k;
        EXPECT_FALSE(n.contains(a));
      }
    }
  }
}

TEST(Cells, ClassifySameZeroCell) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  auto slot = c.classify({3, 3}, {3, 3});
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->level, 0);
}

TEST(Cells, ClassifyMatchesNeighborRegion) {
  // classify(self, other) must return exactly the (l,k) whose region
  // contains `other` — the core consistency between routing-table slotting
  // and query forwarding.
  auto s = AttributeSpace::uniform(4, 3, 0, 80);
  Cells c(s);
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    CellCoord a(4), b(4);
    for (int j = 0; j < 4; ++j) {
      a[static_cast<std::size_t>(j)] = static_cast<CellIndex>(rng.below(8));
      b[static_cast<std::size_t>(j)] = static_cast<CellIndex>(rng.below(8));
    }
    auto slot = c.classify(a, b);
    ASSERT_TRUE(slot.has_value());
    if (slot->level == 0) {
      EXPECT_EQ(a, b);
      continue;
    }
    EXPECT_TRUE(c.neighbor_region(a, slot->level, slot->dim).contains(b));
    // ... and no other slot's region contains b.
    for (int l = 1; l <= 3; ++l)
      for (int k = 0; k < 4; ++k) {
        if (l == slot->level && k == slot->dim) continue;
        EXPECT_FALSE(c.neighbor_region(a, l, k).contains(b))
            << "b also in N(" << l << "," << k << ")";
      }
  }
}

TEST(Cells, SubcellsPartitionTheSpace) {
  // For any node, C_0 plus all N(l,k) partition the whole grid: every cell
  // is in exactly one piece. (This is what guarantees full query coverage.)
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  CellCoord a{5, 1};
  for (CellIndex x = 0; x < 8; ++x) {
    for (CellIndex y = 0; y < 8; ++y) {
      CellCoord b{x, y};
      int containers = c.cell_region(a, 0).contains(b) ? 1 : 0;
      for (int l = 1; l <= 3; ++l)
        for (int k = 0; k < 2; ++k)
          if (c.neighbor_region(a, l, k).contains(b)) ++containers;
      EXPECT_EQ(containers, 1) << "cell (" << x << "," << y << ")";
    }
  }
}

TEST(Cells, CellKeyGroupsByLevel) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  EXPECT_EQ(c.cell_key({0, 0}, 1), c.cell_key({1, 1}, 1));
  EXPECT_NE(c.cell_key({0, 0}, 1), c.cell_key({2, 0}, 1));
  // Same cell coordinates at different levels must key differently.
  EXPECT_NE(c.cell_key({0, 0}, 0), c.cell_key({0, 0}, 1));
}

TEST(Cells, ClassifyNeverFailsOnRandomCoords) {
  auto s = AttributeSpace::uniform(6, 4, 0, 1 << 10);
  Cells c(s);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    CellCoord a(6), b(6);
    for (int j = 0; j < 6; ++j) {
      a[static_cast<std::size_t>(j)] = static_cast<CellIndex>(rng.below(16));
      b[static_cast<std::size_t>(j)] = static_cast<CellIndex>(rng.below(16));
    }
    EXPECT_TRUE(c.classify(a, b).has_value());
  }
}

/// The level-loop classification the O(d) row classifier replaced, kept as
/// the oracle: raise the level until both coords share a cell, give up above
/// max_level, then take the first dimension whose level-(l-1) half differs.
std::optional<CellSlot> classify_by_level_loop(const CellIndex* a, const CellIndex* b,
                                               int dims, int max_level) {
  auto same = [&](int level) {
    for (int j = 0; j < dims; ++j)
      if (Cells::at_level(a[j], level) != Cells::at_level(b[j], level)) return false;
    return true;
  };
  int level = 0;
  while (level < max_level && !same(level)) ++level;
  if (!same(level)) return std::nullopt;
  if (level == 0) return CellSlot{0, -1};
  for (int j = 0; j < dims; ++j)
    if (Cells::at_level(a[j], level - 1) != Cells::at_level(b[j], level - 1))
      return CellSlot{level, j};
  return std::nullopt;
}

/// Every coordinate whose per-dimension index is in [0, 2^L], i.e. the whole
/// grid plus one out-of-range index per dimension, as flat d-element rows.
std::vector<CellIndex> all_coords(int dims, int max_level) {
  const CellIndex per_dim = (CellIndex{1} << max_level) + 1;
  std::vector<CellIndex> rows;
  std::vector<CellIndex> c(static_cast<std::size_t>(dims), 0);
  while (true) {
    rows.insert(rows.end(), c.begin(), c.end());
    int j = 0;
    while (j < dims && ++c[static_cast<std::size_t>(j)] == per_dim)
      c[static_cast<std::size_t>(j++)] = 0;
    if (j == dims) break;
  }
  return rows;
}

TEST(Cells, RowClassifyMatchesLevelLoopExhaustively) {
  for (int dims : {1, 2, 3, 5}) {
    for (int max_level : {1, 3, 4}) {
      auto s = AttributeSpace::uniform(dims, max_level, 0, 80);
      Cells c(s);
      const std::vector<CellIndex> rows = all_coords(dims, max_level);
      const std::size_t d = static_cast<std::size_t>(dims);
      const std::size_t n = rows.size() / d;
      // Every ordered pair where that is at most 25M pairs (d <= 3, and
      // d = 5 at max_level 1). Above that (d = 5 at max_levels 3 and 4:
      // 3.5e9 and 2e12 pairs) every `other` is checked against a strided
      // sample of about 4M / n `self` rows, plus the last row below.
      const std::size_t stride =
          n * n <= 25'000'000 ? 1 : std::max<std::size_t>(1, n * n / 4'000'000);
      std::size_t checked = 0;
      for (std::size_t i = 0; i < n; i += stride) {
        const CellIndex* a = &rows[i * d];
        for (std::size_t k = 0; k < n; ++k) {
          const CellIndex* b = &rows[k * d];
          const auto want = classify_by_level_loop(a, b, dims, max_level);
          const auto got = c.classify(a, b);
          if (got != want) {
            ADD_FAILURE() << "d=" << dims << " L=" << max_level << " self row " << i
                          << " other row " << k;
            return;
          }
          ++checked;
        }
      }
      if (stride != 1) {  // the last row: every index out of range
        const CellIndex* a = &rows[(n - 1) * d];
        for (std::size_t k = 0; k < n; ++k)
          ASSERT_EQ(c.classify(a, &rows[k * d]),
                    classify_by_level_loop(a, &rows[k * d], dims, max_level));
      }
      EXPECT_GT(checked, n);
    }
  }
}

TEST(Cells, RowClassifyOutOfRangeIndexIsUnclassified) {
  for (int max_level : {1, 3, 4}) {
    auto s = AttributeSpace::uniform(3, max_level, 0, 80);
    Cells c(s);
    const CellIndex top = CellIndex{1} << max_level;
    for (CellIndex oor : {top, top + 1, 2 * top - 1, 2 * top, CellIndex{1} << 20}) {
      const CellIndex self[3] = {0, 0, 0};
      const CellIndex other[3] = {0, oor, 0};
      EXPECT_EQ(c.classify(self, other), std::nullopt) << "L=" << max_level << " " << oor;
      // The CellCoord overload agrees.
      EXPECT_EQ(c.classify(CellCoord{0, 0, 0}, CellCoord{0, oor, 0}), std::nullopt);
      // Identical out-of-range coords still share their level-0 cell.
      EXPECT_EQ(c.classify(other, other), (CellSlot{0, -1}));
    }
  }
}

}  // namespace
}  // namespace ares

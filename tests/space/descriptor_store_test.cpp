/// DescriptorStore (space/descriptor_store.h): the SoA memory layer behind
/// CompactPeer handles. The write-discipline contract — put() authoritative,
/// put_if_absent() never overwrites — keeps a stale circulating descriptor
/// from rolling back a newer profile, so it gets pinned explicitly.

#include "space/descriptor_store.h"

#include <gtest/gtest.h>

namespace ares {
namespace {

class DescriptorStoreTest : public ::testing::Test {
 protected:
  AttributeSpace space = AttributeSpace::uniform(3, 3, 0, 80);
  DescriptorStore store{space};
};

TEST_F(DescriptorStoreTest, PutThenReadBackRoundTrips) {
  Point p{10, 45, 79};
  store.put(7, p);
  ASSERT_TRUE(store.contains(7));
  EXPECT_EQ(store.point_of(7), p);
  EXPECT_EQ(store.coord_of(7), space.coord_of(p));
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(DescriptorStoreTest, UnknownIdsAreAbsent) {
  EXPECT_FALSE(store.contains(0));
  EXPECT_FALSE(store.contains(123456));
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(DescriptorStoreTest, PutOverwritesAndRecomputesCoord) {
  store.put(3, Point{0, 0, 0});
  store.put(3, Point{79, 79, 79});
  EXPECT_EQ(store.point_of(3), (Point{79, 79, 79}));
  EXPECT_EQ(store.coord_of(3), space.coord_of(Point{79, 79, 79}));
  EXPECT_EQ(store.size(), 1u);  // an overwrite is not a new row
}

TEST_F(DescriptorStoreTest, PutIfAbsentNeverOverwrites) {
  EXPECT_TRUE(store.put_if_absent(5, Point{1, 2, 3}));
  // A stale descriptor still circulating in gossip must not roll back the
  // authoritative profile.
  EXPECT_FALSE(store.put_if_absent(5, Point{9, 9, 9}));
  EXPECT_EQ(store.point_of(5), (Point{1, 2, 3}));
}

TEST_F(DescriptorStoreTest, SparseIdsAndRawRowAccess) {
  store.put(100, Point{40, 40, 40});
  EXPECT_FALSE(store.contains(99));
  const AttrValue* v = store.values_ptr(100);
  const CellIndex* c = store.coord_ptr(100);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(v[i], 40);
    EXPECT_EQ(c[i], space.coord_of(Point{40, 40, 40})[i]);
  }
}

TEST_F(DescriptorStoreTest, MemoryStaysCompact) {
  // The point of the store: ~d*(8+4) bytes per row plus the presence byte,
  // not the 216-byte flat PeerDescriptor. Allow 4x slack for vector growth.
  store.reserve(1000);
  for (NodeId id = 0; id < 1000; ++id) store.put(id, Point{1, 2, 3});
  const std::size_t per_row = 3 * (sizeof(AttrValue) + sizeof(CellIndex)) + 1;
  EXPECT_LE(store.memory_bytes(), 4 * 1000 * per_row);
  EXPECT_EQ(store.size(), 1000u);
}

}  // namespace
}  // namespace ares

#include "core/routing_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/selection_node.h"
#include "runtime/loopback.h"
#include "space/descriptor_store.h"

namespace ares {
namespace {

class RoutingTableTest : public ::testing::Test {
 protected:
  RoutingTableTest()
      : space(AttributeSpace::uniform(2, 3, 0, 80)),
        cells(space),
        store(space),
        self(make_descriptor(space, 1, {5, 5})),
        rt(cells, self.coord, self.id, RoutingConfig{}, store) {}

  PeerDescriptor make(NodeId id, AttrValue x, AttrValue y, std::uint32_t age = 0) {
    return make_descriptor(space, id, {x, y}, age);
  }

  AttributeSpace space;
  Cells cells;
  DescriptorStore store;
  PeerDescriptor self;
  RoutingTable rt;
};

TEST_F(RoutingTableTest, ZeroCellPlacement) {
  rt.offer(make(2, 6, 6));  // same level-0 cell (0,0)
  ASSERT_EQ(rt.zero().size(), 1u);
  EXPECT_EQ(rt.zero()[0].id, 2u);
  EXPECT_EQ(rt.link_count(), 1u);
}

TEST_F(RoutingTableTest, SlotPlacementMatchesClassification) {
  PeerDescriptor far = make(3, 75, 5);  // other half along dim 0 => N(3,0)
  rt.offer(far);
  auto slot = cells.classify(self.coord, far.coord);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->level, 3);
  EXPECT_EQ(slot->dim, 0);
  ASSERT_NE(rt.neighbor(3, 0), nullptr);
  EXPECT_EQ(rt.neighbor(3, 0)->id, 3u);
  EXPECT_EQ(rt.neighbor(3, 1), nullptr);
}

TEST_F(RoutingTableTest, SelfIgnored) {
  rt.offer(self);
  EXPECT_EQ(rt.link_count(), 0u);
}

TEST_F(RoutingTableTest, SlotCapacityKeepsYoungest) {
  rt.offer(make(2, 75, 5, 5));
  rt.offer(make(3, 76, 5, 1));
  rt.offer(make(4, 77, 5, 3));
  rt.offer(make(5, 78, 5, 2));  // capacity 3: age-5 entry must fall out
  const auto& s = rt.slot(3, 0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].id, 3u);  // youngest first
  for (const auto& e : s) EXPECT_NE(e.id, 2u);
}

TEST_F(RoutingTableTest, OfferRefreshesAge) {
  rt.offer(make(2, 75, 5, 8));
  rt.offer(make(2, 75, 5, 1));
  EXPECT_EQ(rt.slot(3, 0).size(), 1u);
  EXPECT_EQ(rt.slot(3, 0)[0].age, 1u);
}

TEST_F(RoutingTableTest, AlternateSkipsExcluded) {
  rt.offer(make(2, 75, 5, 0));
  rt.offer(make(3, 76, 5, 1));
  const CompactPeer* alt = rt.alternate(3, 0, {2});
  ASSERT_NE(alt, nullptr);
  EXPECT_EQ(alt->id, 3u);
  EXPECT_EQ(rt.alternate(3, 0, {2, 3}), nullptr);
}

TEST_F(RoutingTableTest, RemovePurgesEverywhere) {
  rt.offer(make(2, 6, 6));
  rt.offer(make(2, 6, 6));
  rt.offer(make(3, 75, 5));
  rt.remove(3);
  EXPECT_EQ(rt.neighbor(3, 0), nullptr);
  rt.remove(2);
  EXPECT_TRUE(rt.zero().empty());
}

TEST_F(RoutingTableTest, AgingAndPurge) {
  rt.offer(make(2, 75, 5, 0));
  for (int i = 0; i < 5; ++i) rt.age_all();
  EXPECT_EQ(rt.slot(3, 0)[0].age, 5u);
  rt.drop_older_than(4);
  EXPECT_EQ(rt.neighbor(3, 0), nullptr);
}

TEST_F(RoutingTableTest, LinkCountsDedupe) {
  rt.offer(make(2, 6, 6));
  rt.offer(make(3, 75, 5));
  rt.offer(make(4, 76, 6));  // same slot as 3 (backup)
  EXPECT_EQ(rt.link_count(), 3u);
  EXPECT_EQ(rt.primary_link_count(), 2u);  // zero member + one slot primary
  EXPECT_EQ(rt.populated_slots(), 1u);
}

TEST_F(RoutingTableTest, ZeroCapacityCap) {
  RoutingConfig cfg;
  cfg.zero_capacity = 2;
  RoutingTable capped(cells, self.coord, self.id, cfg, store);
  capped.offer(make(2, 6, 6, 3));
  capped.offer(make(3, 6, 7, 1));
  capped.offer(make(4, 7, 6, 2));
  EXPECT_EQ(capped.zero().size(), 2u);
  EXPECT_EQ(capped.zero()[0].id, 3u);  // youngest retained
}

TEST_F(RoutingTableTest, ClearEmptiesEverything) {
  rt.offer(make(2, 6, 6));
  rt.offer(make(3, 75, 5));
  rt.clear();
  EXPECT_EQ(rt.link_count(), 0u);
  EXPECT_EQ(rt.populated_slots(), 0u);
}

TEST_F(RoutingTableTest, BestForRegionPrefersInsideCandidate) {
  // Slot N(3,0): two candidates, only the second lies in the target region.
  rt.offer(make(2, 45, 5, 0));   // younger, outside target
  rt.offer(make(3, 75, 75, 5));  // older, inside target
  Region target({{7, 7}, {7, 7}});
  const CompactPeer* best = rt.best_for_region(3, 0, {}, target);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->id, 3u);
}

TEST_F(RoutingTableTest, BestForRegionFallsBackToYoungest) {
  rt.offer(make(2, 45, 5, 1));
  rt.offer(make(3, 46, 5, 0));
  Region target({{7, 7}, {7, 7}});  // nobody inside
  const CompactPeer* best = rt.best_for_region(3, 0, {}, target);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->id, 3u);  // youngest
}

TEST_F(RoutingTableTest, BestForRegionHonorsExclusions) {
  rt.offer(make(2, 75, 75, 0));
  Region target({{7, 7}, {7, 7}});
  EXPECT_EQ(rt.best_for_region(3, 0, {2}, target), nullptr);
}

TEST_F(RoutingTableTest, SlotDirectOfferMatchesClassifyingOffer) {
  // Random peers with random ages, some repeated (refresh and no-op paths)
  // and self among them: offer_at with the classified slot must build the
  // same table, and register the same peers, as offer().
  DescriptorStore direct_store(space);
  RoutingTable direct(cells, self.coord, self.id, RoutingConfig{}, direct_store);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto id = static_cast<NodeId>(1 + rng.below(300));
    const PeerDescriptor d =
        make(id, static_cast<AttrValue>(rng.below(80)), static_cast<AttrValue>(rng.below(80)),
             static_cast<std::uint32_t>(rng.below(6)));
    rt.offer(d);
    direct.offer_at({d.id, d.age}, d.values, *cells.classify(self.coord, d.coord));
  }
  auto same = [](std::span<const CompactPeer> a, std::span<const CompactPeer> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](CompactPeer x, CompactPeer y) { return x.id == y.id && x.age == y.age; });
  };
  EXPECT_TRUE(same(rt.zero(), direct.zero()));
  for (int l = 1; l <= 3; ++l)
    for (int k = 0; k < 2; ++k) {
      EXPECT_TRUE(same(rt.slot(l, k), direct.slot(l, k))) << "slot (" << l << "," << k << ")";
      EXPECT_GT(direct.slot(l, k).size(), 0u);
    }
  EXPECT_EQ(direct_store.size(), store.size());
  for (NodeId id = 0; id <= 300; ++id) EXPECT_EQ(direct_store.contains(id), store.contains(id));
}

TEST_F(RoutingTableTest, SlotDirectOfferChecksSlotInDebug) {
#ifdef NDEBUG
  GTEST_SKIP() << "slot check compiled out (NDEBUG build)";
#else
  const PeerDescriptor far = make(2, 75, 5);  // N(3,0) of (5,5)
  EXPECT_DEATH(rt.offer_at({far.id, far.age}, far.values, CellSlot{3, 1}), "classify");
#endif
}

TEST_F(RoutingTableTest, AllSlotsAddressable) {
  // Exercise every (level, dim) accessor of a 2-dim, 3-level table.
  for (int l = 1; l <= 3; ++l)
    for (int k = 0; k < 2; ++k) EXPECT_EQ(rt.neighbor(l, k), nullptr);
}

}  // namespace

/// The table refreshed through live gossip on the loopback runtime: two
/// SelectionNodes (full protocol stack, gossip on) discover each other and
/// install the N(l,k) links — no Simulator/Network pair involved.
TEST_F(RoutingTableTest, GossipOverLoopbackPopulatesSlots) {
  LoopbackRuntime loop(11);
  Rng seeder(5);
  ProtocolConfig cfg;  // gossip on, 10 s period

  NodeId a = loop.add_node(std::make_unique<SelectionNode>(
      space, store, Point{5, 5}, cfg, std::vector<PeerDescriptor>{}, seeder.fork()));
  // B lands in the opposite half along dimension 0 => slot N(3,0) of A.
  NodeId b = loop.add_node(std::make_unique<SelectionNode>(
      space, store, Point{75, 5}, cfg,
      std::vector<PeerDescriptor>{make_descriptor(space, a, {5, 5})},
      seeder.fork()));

  loop.run_until(120 * kSecond);  // ~12 gossip cycles

  // B knew A from bootstrap; A must have learned B purely through gossip.
  auto& art = loop.find_as<SelectionNode>(a)->routing();
  auto& brt = loop.find_as<SelectionNode>(b)->routing();
  ASSERT_NE(art.neighbor(3, 0), nullptr);
  EXPECT_EQ(art.neighbor(3, 0)->id, b);
  ASSERT_NE(brt.neighbor(3, 0), nullptr);
  EXPECT_EQ(brt.neighbor(3, 0)->id, a);
  // The gossip seam metered the cycles per node.
  EXPECT_GE(loop.metrics().node_value(a, "gossip.cycles"), 10u);
}

/// Aging keeps running on the loopback runtime: once the partner crashes,
/// its entry must wash out of the routing table within rt_max_age cycles.
TEST_F(RoutingTableTest, DeadPeerAgesOutOverLoopback) {
  LoopbackRuntime loop(13);
  Rng seeder(5);
  ProtocolConfig cfg;
  cfg.rt_max_age = 5;
  cfg.vicinity.max_age = 5;

  NodeId a = loop.add_node(std::make_unique<SelectionNode>(
      space, store, Point{5, 5}, cfg, std::vector<PeerDescriptor>{}, seeder.fork()));
  NodeId b = loop.add_node(std::make_unique<SelectionNode>(
      space, store, Point{75, 5}, cfg,
      std::vector<PeerDescriptor>{make_descriptor(space, a, {5, 5})},
      seeder.fork()));
  loop.run_until(60 * kSecond);
  auto& art = loop.find_as<SelectionNode>(a)->routing();
  ASSERT_NE(art.neighbor(3, 0), nullptr);

  loop.remove_node(b, false);
  loop.advance(200 * kSecond);  // >> rt_max_age cycles
  EXPECT_EQ(art.neighbor(3, 0), nullptr);
}

// -- incremental refresh vs full re-offer ----------------------------------

namespace {

bool same_table(const RoutingTable& a, const RoutingTable& b) {
  auto same = [](std::span<const CompactPeer> x, std::span<const CompactPeer> y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].id != y[i].id || x[i].age != y[i].age) return false;
    return true;
  };
  if (!same(a.zero(), b.zero())) return false;
  for (int l = 1; l <= a.levels(); ++l)
    for (int k = 0; k < a.dims(); ++k)
      if (!same(a.slot(l, k), b.slot(l, k))) return false;
  return true;
}

/// Two tables fed from the same two views through random sequences of
/// CYCLON-style merges, selection-style merges (assign + mark_fresh), gossip
/// ticks (views age, then the tables age and drop), removals and external
/// clears. `full` gets every view entry offered after most steps (the old
/// refresh); `inc` gets only the change feeds unless it is refresh_stale()
/// — the rule SelectionNode::refresh_routing follows. They must never
/// differ.
TEST(RoutingTableIncremental, MatchesFullRefresh) {
  const auto space = AttributeSpace::uniform(3, 3, 0, 80);
  const Cells cells(space);
  DescriptorStore store(space);
  Rng rng(2024);
  constexpr NodeId kPool = 80;
  for (NodeId id = 0; id < kPool; ++id)
    store.put(id, {static_cast<AttrValue>(rng.below(80)),
                   static_cast<AttrValue>(rng.below(80)),
                   static_cast<AttrValue>(rng.below(80))});
  for (int run = 0; run < 40; ++run) {
    const NodeId self = static_cast<NodeId>(rng.below(kPool));
    RoutingConfig rc;
    rc.slot_capacity = 1 + rng.below(3);
    rc.zero_capacity = rng.below(3);
    const std::uint32_t max_age = static_cast<std::uint32_t>(3 + rng.below(8));
    RoutingTable full(cells, store.coord_of(self), self, rc, store);
    RoutingTable inc(cells, store.coord_of(self), self, rc, store);
    View cyc(12);
    View vic(10);
    auto random_peer = [&] {
      NodeId id = static_cast<NodeId>(rng.below(kPool));
      if (id == self) id = (id + 1) % kPool;
      return CompactPeer{id, static_cast<std::uint32_t>(rng.below(max_age + 4))};
    };
    auto refresh = [&] {
      for (const CompactPeer c : cyc.entries()) full.offer(c);
      for (const CompactPeer c : vic.entries()) full.offer(c);
      const bool all = inc.refresh_stale();
      auto offer = [&inc](CompactPeer c) { inc.offer(c); };
      cyc.drain_fresh(all, offer);
      vic.drain_fresh(all, offer);
      inc.mark_refreshed();
    };
    for (int step = 0; step < 300; ++step) {
      switch (rng.below(6)) {
        case 0: {  // CYCLON merge
          for (std::size_t i = 0, m = 1 + rng.below(6); i < m; ++i) {
            const CompactPeer p = random_peer();
            if (cyc.insert_or_refresh(p)) continue;
            if (rng.below(2) == 0 && !cyc.empty()) {
              cyc.remove(cyc.entries()[rng.index(cyc.size())].id);
              cyc.insert_or_refresh(p);
            } else {
              cyc.insert_evicting_oldest(p);
            }
          }
          break;
        }
        case 1: {  // selection merge: keep some entries, add new or younger ones
          std::vector<CompactPeer> next;
          std::vector<NodeId> fresh;
          for (const CompactPeer e : vic.entries())
            if (rng.below(3) != 0) next.push_back(e);
          const std::size_t m = rng.below(6);
          for (std::size_t i = 0; i < m && next.size() < vic.capacity(); ++i) {
            const CompactPeer p = random_peer();
            auto it = std::find_if(next.begin(), next.end(),
                                   [&](CompactPeer e) { return e.id == p.id; });
            if (it == next.end()) {
              next.push_back(p);
              fresh.push_back(p.id);
            } else if (p.age < it->age) {
              *it = p;
              fresh.push_back(p.id);
            }
          }
          vic.assign(next);
          for (NodeId id : fresh) vic.mark_fresh(id);
          break;
        }
        case 2: {  // gossip tick
          cyc.age_all();
          if (!cyc.empty() && rng.below(2) == 0) cyc.take_oldest();
          vic.age_all();
          vic.drop_older_than(max_age);
          if (!vic.empty() && rng.below(2) == 0) vic.take_oldest();
          full.age_all();
          full.drop_older_than(max_age);
          inc.age_all_with_views();
          inc.drop_older_than(max_age);
          break;
        }
        case 3: {  // a timed-out peer is purged everywhere
          const NodeId id = static_cast<NodeId>(rng.below(kPool));
          cyc.remove(id);
          vic.remove(id);
          full.remove(id);
          inc.remove(id);
          break;
        }
        case 4: {  // a view loses an entry; the tables keep theirs
          if (!cyc.empty()) cyc.take_oldest();
          break;
        }
        default: {  // external rebuild (oracle fill)
          if (rng.below(4) != 0) break;
          full.clear();
          inc.clear();
          for (std::size_t i = 0, m = rng.below(10); i < m; ++i) {
            const CompactPeer p = random_peer();
            full.offer(p);
            inc.offer(p);
          }
          break;
        }
      }
      // SelectionNode refreshes after every gossip step, but a timeout's
      // removal is followed by no refresh until the next one; skip some.
      if (rng.below(4) == 0) continue;
      refresh();
      ASSERT_TRUE(same_table(full, inc)) << "run " << run << " step " << step;
    }
  }
}

/// The same rule end to end: between events every SelectionNode's table
/// must already hold everything an offer of each of its view entries would
/// add. Checked on a live loopback overlay, also right after the tables
/// were cleared or purged from outside (as the oracle bootstrap does).
TEST(RoutingTableIncremental, NodesAbsorbEveryViewEntry) {
  const auto space = AttributeSpace::uniform(2, 3, 0, 80);
  DescriptorStore store(space);
  LoopbackRuntime loop(17);
  Rng seeder(9);
  ProtocolConfig cfg;
  cfg.routing.slot_capacity = 1;  // full slots reject: the harder case
  std::vector<NodeId> ids;
  for (int i = 0; i < 24; ++i) {
    std::vector<PeerDescriptor> boot;
    if (!ids.empty()) {
      const NodeId intro = ids[seeder.index(ids.size())];
      boot.push_back(materialize(store, {intro, 0}));
    }
    const Point p{static_cast<AttrValue>(seeder.below(80)),
                  static_cast<AttrValue>(seeder.below(80))};
    ids.push_back(loop.add_node(std::make_unique<SelectionNode>(
        space, store, p, cfg, std::move(boot), seeder.fork())));
  }
  auto check_all = [&](const char* when) {
    for (NodeId id : ids) {
      auto* sn = loop.find_as<SelectionNode>(id);
      RoutingTable reoffered = sn->routing();
      for (const CompactPeer c : sn->cyclon().view().entries()) reoffered.offer(c);
      for (const CompactPeer c : sn->vicinity().view().entries()) reoffered.offer(c);
      ASSERT_TRUE(same_table(reoffered, sn->routing())) << when << ", node " << id;
    }
  };
  loop.run_until(200 * kSecond);
  check_all("converged");
  for (NodeId id : ids) {
    RoutingTable& rt = loop.find_as<SelectionNode>(id)->routing();
    if (id % 2 == 0) {
      rt.clear();
    } else if (!rt.zero().empty() || rt.neighbor(3, 0) != nullptr) {
      rt.remove(rt.neighbor(3, 0) != nullptr ? rt.neighbor(3, 0)->id : rt.zero()[0].id);
    }
  }
  loop.advance(cfg.gossip_period);  // every node refreshes at least once
  check_all("after external clear/remove");
}

}  // namespace
}  // namespace ares

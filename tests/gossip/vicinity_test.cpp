#include "gossip/vicinity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "runtime/loopback.h"
#include "space/descriptor_store.h"

namespace ares {
namespace {

class VicinityUnit : public ::testing::Test {
 protected:
  VicinityUnit()
      : space(AttributeSpace::uniform(2, 3, 0, 80)), cells(space), store(space),
        rng(1) {}

  PeerDescriptor make(NodeId id, AttrValue x, AttrValue y, std::uint32_t age = 0) {
    return make_descriptor(space, id, {x, y}, age);
  }

  /// Registers a descriptor in the store and returns its compact handle
  /// (view entries are handles; coordinates resolve through the store).
  CompactPeer put(const PeerDescriptor& d) {
    store.put(d.id, d.values);
    return CompactPeer{d.id, d.age};
  }

  Vicinity make_vicinity(const PeerDescriptor& self, VicinityConfig cfg = {}) {
    store.put(self.id, self.values);
    return Vicinity(self.id, self.coord, cells, store, cfg, rng,
                    [this](NodeId to, MessagePtr m) {
                      outbox.emplace_back(to, std::move(m));
                    });
  }

  AttributeSpace space;
  Cells cells;
  DescriptorStore store;
  Rng rng;
  std::vector<std::pair<NodeId, MessagePtr>> outbox;
};

TEST_F(VicinityUnit, SelectBestDropsSelfAndExpired) {
  auto v = make_vicinity(make(1, 5, 5));
  auto kept = v.select_best({make(1, 5, 5), make(2, 6, 6), make(3, 7, 7, 99)}, 10);
  std::set<NodeId> ids;
  for (const auto& d : kept) ids.insert(d.id);
  EXPECT_FALSE(ids.contains(1));  // self
  EXPECT_FALSE(ids.contains(3));  // over max_age
  EXPECT_TRUE(ids.contains(2));
}

TEST_F(VicinityUnit, SelectBestDedupesKeepingYoungest) {
  auto v = make_vicinity(make(1, 5, 5));
  auto kept = v.select_best({make(2, 6, 6, 7), make(2, 6, 6, 1)}, 10);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].age, 1u);
}

TEST_F(VicinityUnit, SelectBestPrefersSlotCoverageOverCrowding) {
  // Self at cell (0,0). Candidates: many level-0 cohabitants plus a single
  // far node. Coverage round-robin must keep the far node even with a tight
  // capacity.
  auto v = make_vicinity(make(1, 5, 5));
  std::vector<PeerDescriptor> cands;
  for (NodeId i = 2; i < 10; ++i) cands.push_back(make(i, 6, 6));  // same C0
  cands.push_back(make(50, 75, 75));  // opposite corner: N(3,0)
  auto kept = v.select_best(cands, 4);
  bool has_far = false;
  for (const auto& d : kept) has_far = has_far || d.id == 50;
  EXPECT_TRUE(has_far);
}

TEST_F(VicinityUnit, SelectBestHonorsCapacity) {
  auto v = make_vicinity(make(1, 5, 5));
  std::vector<PeerDescriptor> cands;
  for (NodeId i = 2; i < 30; ++i) cands.push_back(make(i, (i * 7) % 80, (i * 3) % 80));
  EXPECT_LE(v.select_best(cands, 6).size(), 6u);
}

TEST_F(VicinityUnit, SubsetForRanksByUsefulnessToTarget) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  // Target lives at the opposite corner; candidate 30 co-habits the target's
  // level-0 cell, candidate 31 is far from it.
  cyclon_view.insert_or_refresh(put(make(30, 78, 78)));
  cyclon_view.insert_or_refresh(put(make(31, 2, 2)));
  auto subset = v.subset_for(make(99, 76, 77), cyclon_view, 2);
  ASSERT_FALSE(subset.empty());
  EXPECT_EQ(subset[0].id, 30u);
}

TEST_F(VicinityUnit, SubsetForRanksUnclassifiableCandidatesLast) {
  // A descriptor whose cached coordinates fall outside this space's grid
  // (e.g. minted against a differently-cut space) cannot be classified
  // against the ranking target. It must sort at kUnrankedLevel — after
  // every classifiable candidate — rather than being dropped or misordered.
  auto v = make_vicinity(make(1, 5, 5));
  PeerDescriptor rogue;
  rogue.id = 77;
  rogue.values = Point{500, 500};
  rogue.coord = CellCoord{255, 255};  // cells_per_dim is 8: out of range
  View cyclon_view(8);
  cyclon_view.insert_or_refresh(put(make(30, 6, 6)));
  cyclon_view.insert_or_refresh(put(rogue));
  auto subset = v.subset_for(make(99, 5, 6), cyclon_view, 3);
  ASSERT_EQ(subset.size(), 3u);  // self + classifiable + unclassifiable
  EXPECT_EQ(subset.back().id, 77u);
  // The sentinel must outrank (sort after) every real common-cell level.
  EXPECT_GT(kUnrankedLevel, space.max_level());
}

TEST_F(VicinityUnit, SubsetForAdvertisesSelf) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  auto subset = v.subset_for(make(99, 5, 6), cyclon_view, 5);
  bool has_self = false;
  for (const auto& d : subset) has_self = has_self || d.id == 1;
  EXPECT_TRUE(has_self);
}

TEST_F(VicinityUnit, SubsetForExcludesTarget) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  cyclon_view.insert_or_refresh(put(make(99, 70, 70)));
  auto subset = v.subset_for(make(99, 70, 70), cyclon_view, 5);
  for (const auto& d : subset) EXPECT_NE(d.id, 99u);
}

TEST_F(VicinityUnit, HandleRequestProducesReply) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  VicinityExchangeMsg req;
  req.is_reply = false;
  req.entries = {make(7, 40, 40), make(8, 10, 70)};
  EXPECT_TRUE(v.handle(7, req, cyclon_view));
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox[0].first, 7u);
  const auto* reply = dynamic_cast<const VicinityExchangeMsg*>(outbox[0].second.get());
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->is_reply);
  // Request entries merged into the view.
  EXPECT_TRUE(v.view().contains(8));
}

TEST_F(VicinityUnit, HandleReplyMergesWithoutResponding) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  VicinityExchangeMsg reply;
  reply.is_reply = true;
  reply.entries = {make(9, 33, 44)};
  EXPECT_TRUE(v.handle(9, reply, cyclon_view));
  EXPECT_TRUE(outbox.empty());
  EXPECT_TRUE(v.view().contains(9));
}

TEST_F(VicinityUnit, TickWithEmptyViewsIsNoop) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  v.tick(cyclon_view);
  EXPECT_TRUE(outbox.empty());
}

TEST_F(VicinityUnit, TickUsesCyclonForExploration) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  cyclon_view.insert_or_refresh(put(make(42, 60, 60)));
  v.tick(cyclon_view);  // empty vicinity view: must fall back to cyclon
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox[0].first, 42u);
}

/// Minimal runtime node hosting only the Vicinity layer (empty CYCLON
/// underlay: exchanges are driven purely by the vicinity view itself).
class VicinityHost final : public Node {
 public:
  VicinityHost(const AttributeSpace& space, const Cells& cells,
               DescriptorStore& store, Point values, Rng rng,
               std::vector<PeerDescriptor> bootstrap)
      : space_(space),
        cells_(cells),
        store_(store),
        values_(std::move(values)),
        rng_(rng),
        bootstrap_(std::move(bootstrap)),
        cyclon_view_(8) {}

  void start() override {
    store_.put(id(), values_);
    vicinity_ = std::make_unique<Vicinity>(
        id(), space_.coord_of(values_), cells_, store_, VicinityConfig{}, rng_,
        [this](NodeId to, MessagePtr m) { send(to, std::move(m)); });
    vicinity_->seed(bootstrap_, cyclon_view_);
    after(static_cast<SimTime>(rng_.below(10 * kSecond)), [this] { tick(); });
  }

  void on_message(NodeId from, const Message& m) override {
    vicinity_->handle(from, m, cyclon_view_);
  }

  const Vicinity& vicinity() const { return *vicinity_; }

 private:
  void tick() {
    vicinity_->tick(cyclon_view_);
    after(10 * kSecond, [this] { tick(); });
  }

  const AttributeSpace& space_;
  const Cells& cells_;
  DescriptorStore& store_;
  Point values_;
  Rng rng_;
  std::vector<PeerDescriptor> bootstrap_;
  View cyclon_view_;
  std::unique_ptr<Vicinity> vicinity_;
};

/// The selective layer end-to-end on the loopback runtime: descriptors must
/// propagate transitively (A learns C through B) without any Simulator.
TEST_F(VicinityUnit, LoopbackExchangePropagatesDescriptorsTransitively) {
  LoopbackRuntime rt(7);
  Rng seeder(3);
  // C knows nobody; B bootstraps knowing C; A bootstraps knowing B.
  NodeId c = rt.add_node(std::make_unique<VicinityHost>(
      space, cells, store, Point{40, 40}, seeder.fork(), std::vector<PeerDescriptor>{}));
  NodeId b = rt.add_node(std::make_unique<VicinityHost>(
      space, cells, store, Point{75, 75}, seeder.fork(),
      std::vector<PeerDescriptor>{make_descriptor(space, c, {40, 40})}));
  NodeId a = rt.add_node(std::make_unique<VicinityHost>(
      space, cells, store, Point{5, 5}, seeder.fork(),
      std::vector<PeerDescriptor>{make_descriptor(space, b, {75, 75})}));

  rt.run_until(300 * kSecond);  // ~30 gossip cycles

  const auto& av = rt.find_as<VicinityHost>(a)->vicinity().view();
  EXPECT_TRUE(av.contains(b));
  EXPECT_TRUE(av.contains(c)) << "A never learned C through B";
  // Gossip is symmetric: B must have learned A from A's own requests.
  EXPECT_TRUE(rt.find_as<VicinityHost>(b)->vicinity().view().contains(a));
}

TEST_F(VicinityUnit, IgnoresForeignMessages) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  struct Other final : Message {
    const char* type_name() const override { return "other"; }
    wire::Kind kind() const override { return wire::Kind::kTestBase; }
  } other;
  EXPECT_FALSE(v.handle(2, other, cyclon_view));
}

// -- randomized differential test against the sort-based selection ---------

/// The sort/unique/full-sort selection that the workspace-based one replaced,
/// kept as the oracle. Staged entries carry key = (id << 32) | age and their
/// staging position; dedupe sorts by (key, position) and keeps the first
/// entry per id; ranking sorts (hi, lo) with hi = (level << 5) | (dim + 1)
/// and lo = (age << 32) | id.
struct SortOracle {
  const Cells& cells;
  const DescriptorStore& store;
  NodeId self;
  CellCoord self_coord;
  std::uint32_t max_age;

  struct Staged {
    std::uint64_t key;
    std::uint32_t idx;
  };
  struct Ranked {
    std::uint64_t hi;
    std::uint64_t lo;
    CompactPeer p;
  };

  static std::uint64_t rank_hi(int level, int dim) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level)) << 5) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(dim + 1));
  }

  static void stage(std::vector<Staged>& st, CompactPeer p) {
    st.push_back({(static_cast<std::uint64_t>(p.id) << 32) | p.age,
                  static_cast<std::uint32_t>(st.size())});
  }

  void dedupe(std::vector<Staged>& st, NodeId exclude) const {
    st.erase(std::remove_if(st.begin(), st.end(),
                            [&](const Staged& s) {
                              return static_cast<NodeId>(s.key >> 32) == exclude ||
                                     static_cast<std::uint32_t>(s.key) > max_age;
                            }),
             st.end());
    std::sort(st.begin(), st.end(), [](const Staged& a, const Staged& b) {
      return a.key != b.key ? a.key < b.key : a.idx < b.idx;
    });
    st.erase(std::unique(st.begin(), st.end(),
                         [](const Staged& a, const Staged& b) {
                           return (a.key >> 32) == (b.key >> 32);
                         }),
             st.end());
  }

  static CompactPeer peer_of(const Staged& s) {
    return {static_cast<NodeId>(s.key >> 32), static_cast<std::uint32_t>(s.key)};
  }

  static void sort_ranked(std::vector<Ranked>& r) {
    std::sort(r.begin(), r.end(), [](const Ranked& a, const Ranked& b) {
      return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    });
  }

  std::vector<NodeId> select(std::vector<Staged> st, std::size_t cap) const {
    dedupe(st, self);
    std::vector<Ranked> ranked;
    for (const Staged& s : st) {
      auto slot = cells.classify(self_coord, store.coord_of(peer_of(s).id));
      if (!slot) continue;
      ranked.push_back({rank_hi(slot->level, slot->dim), (s.key << 32) | (s.key >> 32),
                        peer_of(s)});
    }
    sort_ranked(ranked);
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    for (std::size_t i = 0; i < ranked.size();) {
      std::size_t j = i + 1;
      while (j < ranked.size() && ranked[j].hi == ranked[i].hi) ++j;
      groups.emplace_back(i, j);
      i = j;
    }
    std::vector<NodeId> out;
    for (std::size_t round = 0; out.size() < cap; ++round) {
      bool any = false;
      for (const auto& [begin, end] : groups) {
        if (begin + round < end && out.size() < cap) {
          out.push_back(ranked[begin + round].p.id);
          any = true;
        }
      }
      if (!any) break;
    }
    return out;
  }

  std::vector<std::pair<NodeId, std::uint32_t>> subset(const View& own,
                                                       const View& cyclon, NodeId target,
                                                       std::size_t k) const {
    std::vector<Staged> st;
    stage(st, {self, 0});
    for (const CompactPeer p : own.entries()) stage(st, p);
    for (const CompactPeer p : cyclon.entries()) stage(st, p);
    dedupe(st, target);
    const CellCoord target_coord = store.coord_of(target);
    std::vector<Ranked> ranked;
    for (const Staged& s : st) {
      auto slot = cells.classify(target_coord, store.coord_of(peer_of(s).id));
      ranked.push_back({rank_hi(slot ? slot->level : kUnrankedLevel, 0),
                        (s.key << 32) | (s.key >> 32), peer_of(s)});
    }
    sort_ranked(ranked);
    const bool truncated = ranked.size() > k;
    if (truncated) ranked.resize(k);
    std::vector<std::pair<NodeId, std::uint32_t>> out;
    for (const auto& r : ranked) out.emplace_back(r.p.id, r.p.age);
    if (truncated) {
      bool has_self = false;
      for (const auto& e : out) has_self = has_self || e.first == self;
      if (!has_self && !out.empty()) out.back() = {self, 0};
    }
    return out;
  }
};

/// select_best and subset_for on random candidate multisets: duplicate ids
/// (the id pool is small), equal ages, self, the subset target, and entries
/// past max_age all occur. Run once with a store cut like the ranking space
/// and once with a store cut twice as fine along every dimension, whose
/// coordinates the ranking space partly cannot classify.
TEST(VicinityDifferential, SelectionMatchesSortOracle) {
  for (int store_level : {3, 4}) {
    const auto space = AttributeSpace::uniform(3, 3, 0, 80);
    const auto store_space = AttributeSpace::uniform(3, store_level, 0, 80);
    const Cells cells(space);
    DescriptorStore store(store_space);
    Rng rng(static_cast<std::uint64_t>(97 + store_level));
    constexpr NodeId kPool = 60;
    for (NodeId id = 0; id < kPool; ++id)
      store.put(id, {static_cast<AttrValue>(rng.below(80)),
                     static_cast<AttrValue>(rng.below(80)),
                     static_cast<AttrValue>(rng.below(80))});
    for (int trial = 0; trial < 400; ++trial) {
      const NodeId self = static_cast<NodeId>(rng.below(kPool));
      const CellCoord self_coord = store.coord_of(self);
      VicinityConfig cfg;
      cfg.view_size = 1 + rng.below(24);
      cfg.max_age = static_cast<std::uint32_t>(5 + rng.below(20));
      Rng vrng(1);
      Vicinity v(self, self_coord, cells, store, cfg, vrng, [](NodeId, MessagePtr) {});
      const SortOracle oracle{cells, store, self, self_coord, cfg.max_age};
      auto random_peer = [&] {
        return CompactPeer{static_cast<NodeId>(rng.below(kPool)),
                           static_cast<std::uint32_t>(rng.below(cfg.max_age + 6))};
      };

      std::vector<PeerDescriptor> cands;
      std::vector<SortOracle::Staged> staged;
      const std::size_t n = rng.below(70);
      for (std::size_t i = 0; i < n; ++i) {
        const CompactPeer p = rng.below(8) == 0 ? CompactPeer{self, 0} : random_peer();
        cands.push_back(materialize(store, p));
        SortOracle::stage(staged, p);
      }
      const std::size_t cap = 1 + rng.below(30);
      std::vector<NodeId> got;
      for (const auto& d : v.select_best(cands, cap)) got.push_back(d.id);
      ASSERT_EQ(got, oracle.select(staged, cap)) << "trial " << trial;

      // Fill the view through seed() (the merge path), then rank subsets.
      View cyclon(20);
      for (std::size_t i = 0, m = rng.below(25); i < m; ++i) {
        const CompactPeer p = random_peer();
        if (p.id != self) cyclon.insert_evicting_oldest(p);
      }
      std::vector<PeerDescriptor> contacts;
      for (std::size_t i = 0, m = rng.below(30); i < m; ++i)
        contacts.push_back(materialize(store, random_peer()));
      v.seed(contacts, cyclon);
      const NodeId target =
          rng.below(4) == 0 ? self : static_cast<NodeId>(rng.below(kPool));
      const std::size_t k = rng.below(16);
      std::vector<std::pair<NodeId, std::uint32_t>> subset;
      for (const auto& d : v.subset_for(materialize(store, {target, 0}), cyclon, k))
        subset.emplace_back(d.id, d.age);
      ASSERT_EQ(subset, oracle.subset(v.view(), cyclon, target, k)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace ares

/// Golden digest of the oracle-built overlay. The bootstrap tests check
/// structural properties (slot entries lie in their subcell, zero lists are
/// complete), which a change to *which* candidates the oracle samples would
/// still pass. This test pins the outcome across commits: it hashes every
/// routing table (zero set and every N(l,k) slot, in order, with ids and
/// ages), the seeded gossip views, and one draw from the generator after the
/// fill, so a dropped or reordered RNG draw moves the hash even where the
/// tables happen to agree. The constants were recorded before the oracle hot
/// path was reworked for speed.
///
/// If a change is *meant* to alter the overlay, re-record the constants and
/// say why in the commit.

#include <gtest/gtest.h>

#include <memory>

#include "common/hashing.h"
#include "core/routing_table.h"
#include "exp/bootstrap.h"
#include "exp/grid.h"
#include "workload/distributions.h"

namespace ares {
namespace {

std::uint64_t mix_peer(std::uint64_t h, CompactPeer p) {
  return hash_mix(hash_mix(h, p.id), p.age);
}

std::uint64_t mix_table(std::uint64_t h, const RoutingTable& rt) {
  h = hash_mix(h, rt.zero().size());
  for (const CompactPeer p : rt.zero()) h = mix_peer(h, p);
  for (int l = 1; l <= rt.levels(); ++l)
    for (int k = 0; k < rt.dims(); ++k) {
      h = hash_mix(h, rt.slot(l, k).size());
      for (const CompactPeer p : rt.slot(l, k)) h = mix_peer(h, p);
    }
  return h;
}

/// Builds an oracle grid and hashes every node's table and views, then the
/// next draw of the simulator generator the oracle sampled from.
std::uint64_t grid_digest(int d, int L, std::size_t n, OracleOptions opt) {
  Grid::Config cfg{.space = AttributeSpace::uniform(d, L, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = true;
  cfg.oracle_options = opt;
  cfg.latency = "lan";
  cfg.seed = 20090622;
  cfg.track_visited = false;
  cfg.protocol.gossip_enabled = false;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  std::uint64_t h = kFnvOffset;
  for (NodeId id : grid.node_ids()) {
    const SelectionNode& node = grid.node(id);
    h = mix_table(hash_mix(h, id), node.routing());
    h = hash_mix(h, node.cyclon().view().size());
    for (const CompactPeer p : node.cyclon().view().entries()) h = mix_peer(h, p);
    h = hash_mix(h, node.vicinity().view().size());
    for (const CompactPeer p : node.vicinity().view().entries()) h = mix_peer(h, p);
  }
  return hash_mix(h, grid.sim().rng().next());
}

#define EXPECT_DIGEST(got, want) \
  EXPECT_EQ(got, want) << "oracle digest 0x" << std::hex << (got)

TEST(OracleDigest, DefaultOptionsMatchGolden) {
  EXPECT_DIGEST(grid_digest(5, 3, 2000, {}), 0xd7e310cd60860709ULL);
}

TEST(OracleDigest, OneCandidatePerSlotMatchesGolden) {
  EXPECT_DIGEST(grid_digest(5, 3, 2000, {.per_slot = 1}), 0x5b838970bd43edb5ULL);
}

TEST(OracleDigest, NoZeroFillMatchesGolden) {
  EXPECT_DIGEST(grid_digest(5, 3, 2000, {.fill_zero = false}), 0x9a294f78b8941f56ULL);
}

TEST(OracleDigest, DeepNarrowSpaceMatchesGolden) {
  EXPECT_DIGEST(grid_digest(2, 6, 2000, {}), 0x41a67d56920af2faULL);
}

/// The widest space a Point holds (kMaxDimensions): fig08 sweeps d up to
/// here, and at d = 16 a C_l cell has 2^16 sibling-prefix classes per level,
/// far more than it has members.
TEST(OracleDigest, SixteenDimensionsMatchesGolden) {
  EXPECT_DIGEST(grid_digest(16, 2, 2000, {}), 0x8b538d820b76f8c7ULL);
}

/// oracle_fill as a deployment child calls it: every odd node is hosted
/// elsewhere, so its target is nullptr and its slots (and their draws) are
/// skipped, while hosted tables still link to the non-hosted peers.
TEST(OracleDigest, PartialTargetsMatchGolden) {
  const AttributeSpace space = AttributeSpace::uniform(5, 3, 0, 80);
  const Cells cells(space);
  DescriptorStore store(space);
  Rng prng(99);
  const auto gen = uniform_points(space, 0, 80);
  std::vector<PeerDescriptor> descs;
  std::vector<std::unique_ptr<RoutingTable>> tables;
  for (NodeId id = 0; id < 2000; ++id) {
    descs.push_back(make_descriptor(space, id, gen(prng)));
    store.put(id, descs.back().values);
    tables.push_back(std::make_unique<RoutingTable>(cells, descs.back().coord, id,
                                                    RoutingConfig{}, store));
  }
  Rng rng(7);
  oracle_fill(
      space, descs,
      [&tables](std::size_t i) { return i % 2 == 0 ? tables[i].get() : nullptr; },
      OracleOptions{}, rng);
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (i % 2 != 0) {
      EXPECT_EQ(tables[i]->link_count(), 0u);
      continue;
    }
    h = mix_table(hash_mix(h, i), *tables[i]);
  }
  h = hash_mix(h, rng.next());
  EXPECT_DIGEST(h, 0xb9bf9d31ad57d105ULL);
}

}  // namespace
}  // namespace ares

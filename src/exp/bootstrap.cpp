#include "exp/bootstrap.h"

#include <unordered_map>

#include "core/selection_node.h"
#include "space/cells.h"

namespace ares {
namespace {

/// Groups the items 0..n-1 by a 64-bit key. Groups come in the iteration
/// order of a std::unordered_map filled with the keys in item order (see the
/// determinism note in oracle_fill); group r's members are
/// members[start[r], start[r+1]), in ascending item order. Reused across
/// builds, so its arrays stop growing after the first.
struct Grouping {
  std::vector<std::uint32_t> start;    // group r -> first slot in members
  std::vector<std::uint32_t> members;  // items, counting-sorted by group

  std::size_t size() const { return start.size() - 1; }

  template <typename KeyOf>
  void build(std::size_t n, KeyOf key_of) {
    // The map only fixes the group order; members live in flat arrays.
    std::unordered_map<std::uint64_t, std::uint32_t> ids;  // key -> first-seen id
    group_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      group_[i] = ids.try_emplace(key_of(i), static_cast<std::uint32_t>(ids.size()))
                      .first->second;
    cursor_.resize(ids.size());
    std::uint32_t rank = 0;
    for (const auto& entry : ids) cursor_[entry.second] = rank++;
    start.assign(ids.size() + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      group_[i] = cursor_[group_[i]];
      ++start[group_[i] + 1];
    }
    for (std::size_t r = 0; r < ids.size(); ++r) start[r + 1] += start[r];
    cursor_.assign(start.begin(), start.end() - 1);
    members.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      members[cursor_[group_[i]]++] = static_cast<std::uint32_t>(i);
  }

 private:
  std::vector<std::uint32_t> group_;   // item -> group
  std::vector<std::uint32_t> cursor_;  // build scratch
};

}  // namespace

void oracle_fill(const AttributeSpace& space,
                 const std::vector<PeerDescriptor>& descs,
                 const std::function<RoutingTable*(std::size_t)>& target,
                 const OracleOptions& opt, Rng& rng) {
  Cells cells(space);
  const int L = space.max_level();
  const std::size_t n = descs.size();
  const auto dims = static_cast<std::size_t>(space.dimensions());

  // NOTE(determinism): cell groups are visited in the iteration order of a
  // std::unordered_map keyed by cell_key, which is deterministic for a fixed
  // standard library but not portable across implementations. That order
  // only affects *which* RNG draws feed which cell's sampling
  // (take < population), i.e. it reshuffles an already-uniform choice;
  // per-binary reproducibility — what the fig06 byte-identity gates check —
  // is unaffected. exp/ is outside the ares-lint unordered-iter rule for
  // exactly this kind of harness code.

  // Per-node lookups the hot loops index instead of the 216-byte
  // descriptors, whose values are read only to register unknown peers.
  std::vector<RoutingTable*> tables(n);
  std::vector<CompactPeer> peers(n);
  for (std::size_t i = 0; i < n; ++i) {
    tables[i] = target(i);
    peers[i] = {descs[i].id, descs[i].age};
  }
  auto offer = [&](RoutingTable* rt, std::uint32_t j, const CellSlot& slot) {
    rt->offer_at(peers[j], descs[j].values, slot);
  };
  Grouping groups;

  // --- neighborsZero: complete level-0 cell membership ---
  if (opt.fill_zero) {
    groups.build(n, [&](std::size_t i) { return cells.cell_key(descs[i].coord, 0); });
    const CellSlot zero{0, -1};
    for (std::size_t r = 0; r < groups.size(); ++r) {
      const std::size_t first = groups.start[r];
      const std::size_t last = groups.start[r + 1];
      if (last - first < 2) continue;
      for (std::size_t a = first; a < last; ++a) {
        RoutingTable* rt = tables[groups.members[a]];
        if (rt == nullptr) continue;
        for (std::size_t b = first; b < last; ++b)
          if (a != b) offer(rt, groups.members[b], zero);
      }
    }
  }

  // --- N(l,k) slots: per level, group members by C_l cell. Inside a group,
  // the half-signature's bit j says which half of C_l a member occupies along
  // dimension j (its level-(l-1) index parity), and N(l,k) of a member is
  // the set of members that agree with it on bits below k and differ at k.
  // Refining the group one bit at a time by a stable two-way partition lays
  // out, at depth k+1, every class of members sharing their low k+1 bits as
  // a contiguous run in member order; the two children of a member's depth-k
  // class are its own depth-(k+1) class and N(l,k). The scratch is O(d) per
  // member, whatever 2^d is.
  struct Run {
    std::uint32_t begin, end;  // positions into layer k+1
  };
  std::vector<std::uint32_t> sig(n);
  std::vector<std::uint32_t> group_sig;  // m: half-signature by member position
  std::vector<std::uint32_t> layers;     // (d+1) x m: member positions by depth
  std::vector<Run> sibling;              // d x m: N(l,k) of each member position
  std::vector<std::size_t> picks;
  for (int l = 1; l <= L; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t s = 0;
      for (std::size_t j = 0; j < dims; ++j)
        s |= (Cells::at_level(descs[i].coord[j], l - 1) & 1u) << j;
      sig[i] = s;
    }
    groups.build(n, [&](std::size_t i) { return cells.cell_key(descs[i].coord, l); });

    for (std::size_t r = 0; r < groups.size(); ++r) {
      const std::size_t first = groups.start[r];
      const std::size_t m = groups.start[r + 1] - first;
      if (m < 2) continue;
      const std::uint32_t* mem = &groups.members[first];
      group_sig.resize(m);
      layers.resize((dims + 1) * m);
      sibling.resize(dims * m);
      for (std::size_t p = 0; p < m; ++p) {
        group_sig[p] = sig[mem[p]];
        layers[p] = static_cast<std::uint32_t>(p);
      }
      for (std::size_t k = 0; k < dims; ++k) {
        const std::uint32_t* src = &layers[k * m];
        std::uint32_t* dst = &layers[(k + 1) * m];
        Run* sib = &sibling[k * m];
        const std::uint32_t below = (std::uint32_t{1} << k) - 1;
        // Runs of layer k share their low k bits; split each by bit k.
        std::size_t b = 0;
        while (b < m) {
          const std::uint32_t low = group_sig[src[b]] & below;
          std::size_t e = b + 1;
          while (e < m && (group_sig[src[e]] & below) == low) ++e;
          std::size_t w = b;
          for (std::size_t t = b; t < e; ++t)
            if (((group_sig[src[t]] >> k) & 1u) == 0) dst[w++] = src[t];
          const std::size_t mid = w;
          for (std::size_t t = b; t < e; ++t)
            if (((group_sig[src[t]] >> k) & 1u) != 0) dst[w++] = src[t];
          const Run zeros{static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(mid)};
          const Run ones{static_cast<std::uint32_t>(mid), static_cast<std::uint32_t>(e)};
          for (std::size_t t = b; t < mid; ++t) sib[dst[t]] = ones;
          for (std::size_t t = mid; t < e; ++t) sib[dst[t]] = zeros;
          b = e;
        }
      }

      for (std::size_t p = 0; p < m; ++p) {
        RoutingTable* rt = tables[mem[p]];
        if (rt == nullptr) continue;
        for (std::size_t k = 0; k < dims; ++k) {
          const Run run = sibling[k * m + p];
          if (run.begin == run.end) continue;  // empty subcell
          const std::uint32_t* pop = &layers[(k + 1) * m + run.begin];
          const std::size_t size = run.end - run.begin;
          const CellSlot slot{l, static_cast<int>(k)};
          if (opt.per_slot >= size) {
            for (std::size_t t = 0; t < size; ++t) offer(rt, mem[pop[t]], slot);
          } else {
            rng.sample_indices_into(size, opt.per_slot, picks);
            for (std::size_t idx : picks) offer(rt, mem[pop[idx]], slot);
          }
        }
      }
    }
  }
}

void oracle_bootstrap(Network& net, const AttributeSpace& space,
                      const OracleOptions& opt) {
  // Snapshot all live protocol nodes.
  const std::vector<NodeId>& alive = net.alive_ids();
  std::vector<SelectionNode*> nodes;
  std::vector<PeerDescriptor> descs;
  nodes.reserve(alive.size());
  descs.reserve(alive.size());
  for (NodeId id : alive) {
    auto* sn = net.find_as<SelectionNode>(id);
    if (sn == nullptr) continue;
    nodes.push_back(sn);
    descs.push_back(sn->descriptor());
  }
  for (auto* sn : nodes) sn->routing().clear();
  oracle_fill(space, descs,
              [&nodes](std::size_t i) { return &nodes[i]->routing(); }, opt,
              net.sim().rng());
}

}  // namespace ares

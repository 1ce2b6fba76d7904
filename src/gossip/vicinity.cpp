#include "gossip/vicinity.h"

#include <algorithm>

namespace ares {

Vicinity::Vicinity(NodeId self, CellCoord self_coord, const Cells& cells,
                   DescriptorStore& store, VicinityConfig cfg, Rng& rng,
                   SendFn send)
    : self_(self), self_coord_(self_coord), cells_(cells), store_(store),
      cfg_(cfg), rng_(rng), send_(std::move(send)), view_(cfg.view_size) {}

void Vicinity::tick(const View& cyclon_view) {
  view_.age_all();
  view_.drop_older_than(cfg_.max_age);

  // Choose a partner: alternate exploitation (oldest vicinity entry) and
  // exploration (random CYCLON entry).
  CompactPeer target;
  if (!explore_next_ && !view_.empty()) {
    // Exploitation: like CYCLON, drop the (oldest) partner from the view
    // before the exchange — a live partner re-enters via its reply (with a
    // fresh age), a dead one silently washes out.
    target = view_.take_oldest();
  } else if (!cyclon_view.empty()) {
    target = cyclon_view.entries()[rng_.index(cyclon_view.size())];
  } else if (!view_.empty()) {
    target = view_.take_oldest();
  } else {
    return;
  }
  explore_next_ = !explore_next_;

  auto msg = std::make_unique<VicinityExchangeMsg>();
  msg->is_reply = false;
  subset_into(target.id, cyclon_view, cfg_.exchange_len, msg->entries);
  send_(target.id, std::move(msg));
}

bool Vicinity::handle(NodeId from, const Message& m, const View& cyclon_view) {
  if (m.kind() != wire::Kind::kVicinityRequest &&
      m.kind() != wire::Kind::kVicinityReply)
    return false;
  const auto& ex = static_cast<const VicinityExchangeMsg&>(m);

  if (!ex.is_reply) {
    auto reply = std::make_unique<VicinityExchangeMsg>();
    reply->is_reply = true;
    // Reply with what is most useful to the requester. We know the
    // requester's profile when its descriptor was in the request (Vicinity
    // always includes self); otherwise fall back to a random subset.
    const PeerDescriptor* requester = nullptr;
    for (const auto& e : ex.entries)
      if (e.id == from) requester = &e;
    if (requester != nullptr) {
      store_.put_if_absent(requester->id, requester->values);
      subset_into(requester->id, cyclon_view, cfg_.exchange_len, reply->entries);
    } else {
      std::vector<CompactPeer>& subset = SelectionWorkspace::local().peers;
      view_.random_subset_into(rng_, cfg_.exchange_len, subset);
      reply->entries.clear();
      reply->entries.reserve(subset.size());
      for (CompactPeer p : subset) reply->entries.push_back(materialize(store_, p));
    }
    send_(from, std::move(reply));
  }
  merge(ex.entries, cyclon_view);
  return true;
}

void Vicinity::merge(const std::vector<PeerDescriptor>& received,
                     const View& cyclon_view) {
  SelectionWorkspace& ws = SelectionWorkspace::local();
  ws.staged.clear();
  for (const CompactPeer p : view_.entries()) ws.stage(p);
  const auto from_view = static_cast<std::uint32_t>(ws.staged.size());
  for (const auto& d : received) {
    store_.put_if_absent(d.id, d.values);
    ws.stage({d.id, d.age});
  }
  // Exploit the CYCLON stream as an extra candidate source (two-layer
  // coupling from [9]): random entries occasionally fill empty slots.
  for (const CompactPeer p : cyclon_view.entries()) ws.stage(p);
  select_staged_into(cfg_.view_size, ws.winners);
  ws.peers.clear();
  for (const auto& w : ws.winners) ws.peers.push_back(w.peer());
  view_.assign(ws.peers);
  // A winner staged from the view is the view's own entry (dedupe keeps the
  // first staged on equal ages); any other winner is new to the view or
  // younger than its copy there.
  for (const auto& w : ws.winners)
    if (w.idx >= from_view) view_.mark_fresh(w.peer().id);
}

std::vector<PeerDescriptor> Vicinity::select_best(
    std::vector<PeerDescriptor> candidates, std::size_t cap) const {
  SelectionWorkspace& ws = SelectionWorkspace::local();
  ws.staged.clear();
  for (const auto& c : candidates) {
    store_.put_if_absent(c.id, c.values);
    ws.stage({c.id, c.age});
  }
  std::vector<SelectionWorkspace::Ranked> kept;
  select_staged_into(cap, kept);
  std::vector<PeerDescriptor> out;
  out.reserve(kept.size());
  for (const auto& k : kept) out.push_back(materialize(store_, k.peer()));
  return out;
}

void Vicinity::select_staged_into(std::size_t cap,
                                  std::vector<SelectionWorkspace::Ranked>& out) const {
  SelectionWorkspace& ws = SelectionWorkspace::local();
  // Dedupe by id, keeping the youngest entry; drop self and expired.
  ws.dedupe(self_, cfg_.max_age);

  // Bucket by routing slot relative to self, in slot order: level-0
  // cohabitants first (neighborsZero must be complete), then N(l,k) by
  // level, then dimension. There are at most levels x dims + 1 buckets, so
  // a counting sort replaces a comparison sort over all candidates.
  const auto dims = static_cast<std::uint32_t>(cells_.space().dimensions());
  const auto buckets =
      static_cast<std::uint32_t>(cells_.space().max_level()) * dims + 1;
  ws.bucket_start.assign(buckets + 1, 0);
  ws.ranked.clear();
  const CellIndex* self_row = self_coord_.data();
  for (const auto& s : ws.staged) {
    auto slot = cells_.classify(self_row, store_.coord_ptr(s.p.id));
    if (!slot) continue;  // out-of-range coords fill no routing slot
    const std::uint32_t b =
        slot->level == 0 ? 0
                         : static_cast<std::uint32_t>(slot->level - 1) * dims +
                               static_cast<std::uint32_t>(slot->dim) + 1;
    // lo: youngest first within a slot group, id as the final tie-break.
    ws.ranked.push_back({b, s.idx,
                         (static_cast<std::uint64_t>(s.p.age) << 32) | s.p.id});
    ++ws.bucket_start[b + 1];
  }
  for (std::uint32_t b = 0; b < buckets; ++b)
    ws.bucket_start[b + 1] += ws.bucket_start[b];
  ws.bucketed.resize(ws.ranked.size());
  for (const auto& r : ws.ranked) ws.bucketed[ws.bucket_start[r.hi]++] = r;
  // bucket_start[b] now holds the end of bucket b (= start of b + 1).
  std::uint32_t begin = 0;
  for (std::uint32_t b = 0; b < buckets; ++b) {
    const std::uint32_t end = ws.bucket_start[b];
    if (end - begin > 1)
      std::sort(ws.bucketed.begin() + begin, ws.bucketed.begin() + end);
    begin = end;
  }

  // Round-robin across slot groups: the first pass gives every slot one
  // (young) representative; later passes add backups until capacity.
  out.clear();
  for (std::size_t round = 0; out.size() < cap; ++round) {
    bool any = false;
    std::uint32_t first = 0;
    for (std::uint32_t b = 0; b < buckets && out.size() < cap; ++b) {
      const std::uint32_t end = ws.bucket_start[b];
      if (first + round < end) {
        out.push_back(ws.bucketed[first + round]);
        any = true;
      }
      first = end;
    }
    if (!any) break;
  }
}

std::vector<PeerDescriptor> Vicinity::subset_for(const PeerDescriptor& target,
                                                 const View& cyclon_view,
                                                 std::size_t k) const {
  store_.put_if_absent(target.id, target.values);
  std::vector<PeerDescriptor> all;
  subset_into(target.id, cyclon_view, k, all);
  return all;
}

void Vicinity::subset_into(NodeId target, const View& cyclon_view, std::size_t k,
                           std::vector<PeerDescriptor>& out) const {
  SelectionWorkspace& ws = SelectionWorkspace::local();
  ws.staged.clear();
  ws.stage({self_, 0});  // always advertise ourselves
  for (const CompactPeer p : view_.entries()) ws.stage(p);
  for (const CompactPeer p : cyclon_view.entries()) ws.stage(p);
  ws.dedupe(target, cfg_.max_age);

  // Rank by usefulness to the target: lowest common-cell level first (level
  // 0 = same zero cell = most useful), then youngest, then id.
  // Unclassifiable candidates rank last.
  const CellIndex* target_row = store_.coord_ptr(target);
  ws.ranked.clear();
  for (const auto& s : ws.staged) {
    auto slot = cells_.classify(target_row, store_.coord_ptr(s.p.id));
    ws.ranked.push_back({static_cast<std::uint32_t>(slot ? slot->level : kUnrankedLevel),
                         s.idx, (static_cast<std::uint64_t>(s.p.age) << 32) | s.p.id});
  }
  // Only the best k are sent. Ids are unique after dedupe, so (hi, lo) is a
  // total order: selecting the k smallest and sorting just those gives
  // exactly the prefix a full sort would.
  const bool truncated = ws.ranked.size() > k;
  const auto keep =
      ws.ranked.begin() + static_cast<std::ptrdiff_t>(std::min(k, ws.ranked.size()));
  if (truncated) std::nth_element(ws.ranked.begin(), keep, ws.ranked.end());
  std::sort(ws.ranked.begin(), keep);
  out.clear();
  out.reserve(static_cast<std::size_t>(keep - ws.ranked.begin()));
  for (auto it = ws.ranked.begin(); it != keep; ++it)
    out.push_back(materialize(store_, it->peer()));
  if (truncated) {
    // Self must always be advertised (the remove-on-exploit washout relies
    // on a live partner re-entering through its reply): if truncation cut
    // it, put it back in the last slot.
    bool has_self = false;
    for (const auto& d : out) has_self = has_self || d.id == self_;
    if (!has_self && !out.empty()) out.back() = materialize(store_, {self_, 0});
  }
}

}  // namespace ares

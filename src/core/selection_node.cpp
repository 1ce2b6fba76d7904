#include "core/selection_node.h"

#include <algorithm>
#include <cassert>

namespace ares {

SelectionNode::SelectionNode(const AttributeSpace& space, DescriptorStore& store,
                             Point values, ProtocolConfig cfg,
                             std::vector<PeerDescriptor> bootstrap, Rng rng,
                             QueryObserver* observer)
    : space_(space),
      store_(store),
      cells_(space),
      values_(std::move(values)),
      coord_(space.coord_of(values_)),
      cfg_(cfg),
      bootstrap_(std::move(bootstrap)),
      rng_(rng),
      observer_(observer),
      cache_(cfg.result_cache_capacity, cfg.result_cache_horizon) {
  assert(static_cast<int>(values_.size()) == space.dimensions());
}

PeerDescriptor SelectionNode::descriptor() const {
  return PeerDescriptor{id(), values_, coord_, 0};
}

void SelectionNode::start() {
  m_gossip_cycles_ = metrics().counter("gossip.cycles");
  m_query_timeouts_ = metrics().counter("query.timeouts");
  m_query_retries_ = metrics().counter("query.retries");
  m_cache_hits_ = metrics().counter("query.cache_hit");
  m_cache_misses_ = metrics().counter("query.cache_miss");
  m_cache_inserts_ = metrics().counter("query.cache_insert");
  m_cache_evictions_ = metrics().counter("query.cache_evict");
  m_cache_stale_ = metrics().counter("query.cache_stale");
  m_coalesce_attach_ = metrics().counter("query.coalesce_attach");
  m_coalesce_dispatch_ = metrics().counter("query.coalesce_dispatch");

  // Register our own profile before any layer hands out handles to it.
  store_.put(id(), values_);
  rt_ = std::make_unique<RoutingTable>(cells_, coord_, id(), cfg_.routing, store_);

  auto send_fn = [this](NodeId to, MessagePtr m) { send(to, std::move(m)); };
  cyclon_ = std::make_unique<Cyclon>(id(), store_, cfg_.cyclon, rng_, send_fn);
  vicinity_ = std::make_unique<Vicinity>(id(), coord_, cells_, store_, cfg_.vicinity,
                                         rng_, send_fn);

  cyclon_->seed(bootstrap_);
  vicinity_->seed(bootstrap_, cyclon_->view());
  for (const auto& c : bootstrap_) rt_->offer(c);
  // Release the buffer, not just the elements: clear() keeps the capacity,
  // and the introducers are never read again.
  std::vector<PeerDescriptor>().swap(bootstrap_);

  if (cfg_.gossip_enabled) {
    // Random initial phase desynchronizes cycles across nodes.
    SimTime phase = static_cast<SimTime>(
        rng_.below(static_cast<std::uint64_t>(cfg_.gossip_period) + 1));
    after(phase, [this] { gossip_tick(); });
  }
}

void SelectionNode::gossip_tick() {
  // Two gossip initiations per cycle, one per layer (§6: "each node
  // initiates exactly two gossips").
  metrics().inc(id(), m_gossip_cycles_);
  ticking_ = true;
  cyclon_->tick();
  vicinity_->tick(cyclon_->view());
  ticking_ = false;
  rt_->age_all_with_views();  // both views aged in their ticks just above
  rt_->drop_older_than(cfg_.rt_max_age);
  refresh_routing();
  if (cache_.enabled()) {
    cache_.age_tick();
    meter_cache();
  }
  after(cfg_.gossip_period, [this] { gossip_tick(); });
}

/// Flushes the deltas of the cache's internal stats into per-node Metrics
/// counters, so experiments aggregate cache behavior like any other metric.
void SelectionNode::meter_cache() {
  const ResultCache::Stats& s = cache_.stats();
  metrics().inc(id(), m_cache_hits_, s.hits - cache_metered_.hits);
  metrics().inc(id(), m_cache_misses_, s.misses - cache_metered_.misses);
  metrics().inc(id(), m_cache_inserts_, s.insertions - cache_metered_.insertions);
  metrics().inc(id(), m_cache_evictions_, s.evictions - cache_metered_.evictions);
  metrics().inc(id(), m_cache_stale_, s.stale_drops - cache_metered_.stale_drops);
  cache_metered_ = s;
}

void SelectionNode::refresh_routing() {
  // The routing table must end up exactly as if every entry of both views
  // were offered (cyclon first, then vicinity). Offered here are only the
  // entries a merge inserted or made younger since the last refresh (the
  // views' change feeds), unless the table changed by something other than
  // an offer, or an aging the views matched, since then.
  //
  // Why the other entries are no-ops. After the last refresh every view
  // entry e = (id, a) was a no-op offer: the table held id at an age <= a,
  // or e's slot was full of entries that all rank before e (slot_less:
  // younger first, then lower id). Since then:
  //   - offers only insert entries that rank before the ones they displace,
  //     and only make a held entry younger, so both cases persist;
  //   - gossip_tick ages both views and then the table by one, so e and the
  //     table entries it is compared with age together and keep their order;
  //   - e itself changed only if a merge inserted it or made it younger,
  //     and then it is in the change feed.
  // Anything else — remove() or drop_older_than() removing an entry (which
  // may open room in a slot), clear(), an aging the views did not match —
  // leaves the table refresh_stale() and forces a full re-offer. Offer order
  // does not matter: a slot keeps the top entries of everything offered to
  // it, youngest per id.
  const bool full = rt_->refresh_stale();
  auto offer = [this](CompactPeer c) { rt_->offer(c); };
  cyclon_->drain_fresh(full, offer);
  vicinity_->drain_fresh(full, offer);
  // A refresh inside gossip_tick (only possible under a runtime that
  // delivers synchronously from send) happens after the views aged but
  // before the table did; that aging is then unmatched.
  if (ticking_) {
    rt_->mark_stale();
  } else {
    rt_->mark_refreshed();
  }
}

void SelectionNode::set_values(Point values) {
  assert(static_cast<int>(values.size()) == space_.dimensions());
  values_ = std::move(values);
  coord_ = space_.coord_of(values_);
  if (rt_ == nullptr) return;  // not started yet
  store_.put(id(), values_);  // authoritative profile update
  // Re-place ourselves: every link classifies differently now.
  std::vector<CompactPeer> known;
  for (const CompactPeer e : rt_->zero()) known.push_back(e);
  for (int l = 1; l <= rt_->levels(); ++l)
    for (int k = 0; k < rt_->dims(); ++k)
      for (const CompactPeer e : rt_->slot(l, k)) known.push_back(e);
  rt_ = std::make_unique<RoutingTable>(cells_, coord_, id(), cfg_.routing, store_);
  for (const CompactPeer e : known) rt_->offer(e);
  // Recreate gossip layers with the new self profile; views carry over
  // (materialized through the store: seed() re-registers ids idempotently).
  auto send_fn = [this](NodeId to, MessagePtr m) { send(to, std::move(m)); };
  auto materialize_view = [this](const View& v) {
    std::vector<PeerDescriptor> out;
    out.reserve(v.size());
    for (const CompactPeer p : v.entries()) out.push_back(materialize(store_, p));
    return out;
  };
  auto cyclon_entries = materialize_view(cyclon_->view());
  auto vicinity_entries = materialize_view(vicinity_->view());
  cyclon_ = std::make_unique<Cyclon>(id(), store_, cfg_.cyclon, rng_, send_fn);
  cyclon_->seed(cyclon_entries);
  vicinity_ = std::make_unique<Vicinity>(id(), coord_, cells_, store_, cfg_.vicinity,
                                         rng_, send_fn);
  vicinity_->seed(vicinity_entries, cyclon_->view());
}

// ---- query protocol -----------------------------------------------------

bool SelectionNode::matches_self(const RangeQuery& q) const {
  return q.matches(values_) && q.matches_dynamic(dynamic_values_);
}

QueryId SelectionNode::submit(const RangeQuery& q, std::uint32_t sigma,
                              CompletionFn done) {
  assert(q.dimensions() == space_.dimensions());
  assert(sigma > 0);
  QueryId qid = (static_cast<QueryId>(id()) << 32) | next_query_seq_++;
  QueryMsg qm;
  qm.id = qid;
  qm.reply_to = id();
  qm.origin = id();
  qm.query = q;
  qm.sigma = sigma;
  qm.level = space_.max_level();
  qm.dims_mask = all_dims_mask(space_.dimensions());
  handle_query(id(), qm, /*is_origin=*/true, std::move(done));
  return qid;
}

void SelectionNode::on_message(NodeId from, const Message& m) {
  // kind() is unique per message type, so it selects the handler and
  // licenses the static_cast.
  switch (m.kind()) {
    case wire::Kind::kCyclonRequest:
    case wire::Kind::kCyclonReply:
      if (cyclon_ != nullptr && cyclon_->handle(from, m)) refresh_routing();
      return;
    case wire::Kind::kVicinityRequest:
    case wire::Kind::kVicinityReply:
      if (vicinity_ != nullptr && vicinity_->handle(from, m, cyclon_->view()))
        refresh_routing();
      return;
    case wire::Kind::kQuery:
      handle_query(from, static_cast<const QueryMsg&>(m), /*is_origin=*/false, nullptr);
      return;
    case wire::Kind::kReply:
      handle_reply(from, static_cast<const ReplyMsg&>(m));
      return;
    case wire::Kind::kProgress:
      handle_progress(from, static_cast<const ProgressMsg&>(m));
      return;
    default:
      return;
  }
}

void SelectionNode::handle_progress(NodeId from, const ProgressMsg& p) {
  auto it = active_.find(p.id);
  if (it == active_.end()) return;
  auto w = it->second.waiting.find(from);
  if (w == it->second.waiting.end()) return;
  w->second.last_heard = now();
}

void SelectionNode::keepalive_tick(QueryId qid) {
  auto it = active_.find(qid);
  if (it == active_.end() || it->second.is_origin) return;
  auto msg = std::make_unique<ProgressMsg>();
  msg->id = qid;
  send(it->second.parent, std::move(msg));
  after(std::max<SimTime>(1, cfg_.query_timeout / 2),
        [this, qid] { keepalive_tick(qid); });
}

void SelectionNode::handle_query(NodeId from, const QueryMsg& qm, bool is_origin,
                                 CompletionFn done) {
  const bool matched = matches_self(qm.query);
  if (observer_ != nullptr)
    observer_->on_query_visited(qm.id, id(), matched, is_origin);

  if (completed_.contains(qm.id) || active_.contains(qm.id)) {
    // Duplicate delivery (possible only with timeout-based retransmission):
    // answer idempotently with nothing new.
    auto r = std::make_unique<ReplyMsg>();
    r->id = qm.id;
    send(from, std::move(r));
    return;
  }

  auto [it, inserted] = active_.emplace(qm.id, QueryState{});
  QueryState& st = it->second;
  st.msg = qm;
  st.region = qm.query.to_region(space_);
  st.parent = qm.reply_to;
  st.is_origin = is_origin;
  st.done = std::move(done);
  if (matched) st.matching.emplace(id(), MatchRecord{id(), values_});

  // Heartbeat the parent while we work on its branch (see ProgressMsg):
  // an immediate ack, then periodic keepalives until we reply.
  if (!is_origin && cfg_.query_timeout > 0) keepalive_tick(qm.id);

  if (st.matching.size() < st.msg.sigma) {
    continue_query(st);
  } else {
    finish(st);
  }
}

void SelectionNode::continue_query(QueryState& st) {
  QueryMsg& q = st.msg;
  const int d = space_.dimensions();

  const bool pure = !q.query.has_dynamic_filters();
  while (q.level > 0) {
    // Ascending dimension scan: required for the exactly-once invariant
    // (see the correctness sketch in the header).
    for (int k = 0; k < d; ++k) {
      const std::uint32_t bit = std::uint32_t{1} << k;
      if ((q.dims_mask & bit) == 0) continue;
      const Region subcell = cells_.neighbor_region(coord_, q.level, k);
      if (!st.region.intersects(subcell)) continue;
      if (cache_.enabled() && pure) {
        if (const ResultCache::Entry* e =
                cache_.lookup(make_fragment_key(space_, subcell, q.query))) {
          // A fresh complete fragment with exactly this (subcell, clamped
          // ranges) identity: the whole branch resolves locally.
          metrics().observe("query.cache_hit_age", static_cast<double>(e->age));
          for (const MatchRecord& m : e->records) st.matching.emplace(m.id, m);
          meter_cache();
          q.dims_mask &= ~bit;
          if (st.matching.size() >= q.sigma) {
            // Sigma satisfied without messaging — same early cutoff a child
            // reply would have triggered. Callers guarantee nothing is
            // outstanding when continue_query runs.
            if (st.waiting.empty() && !st.shared_wait) finish(st);
            return;
          }
          continue;  // branch done; keep scanning this level
        }
        meter_cache();
      }
      const CompactPeer* n =
          cfg_.query_aware_forwarding
              ? rt_->best_for_region(q.level, k, st.failed, st.region)
              : rt_->alternate(q.level, k, st.failed);
      if (n == nullptr) continue;  // empty subcell (or no live link known)
      q.dims_mask &= ~bit;
      if (cfg_.coalesce_queries && pure && q.sigma == kNoSigma) {
        share(st, q.level, k, subcell, n->id);
      } else {
        dispatch(st, n->id, Outstanding{q.level, k});
      }
      return;  // depth-first: one branch outstanding at a time
    }
    --q.level;
    q.dims_mask = all_dims_mask(d);
  }

  if (q.level == 0) {
    // Probe every matching cohabitant of our level-0 cell not yet known to
    // match (Fig. 5, forward lines 10-17).
    for (const CompactPeer n : rt_->zero()) {
      if (!q.query.matches(store_.point_of(n.id))) continue;
      if (st.matching.contains(n.id)) continue;
      if (st.waiting.contains(n.id)) continue;
      bool failed = false;
      for (NodeId f : st.failed) failed = failed || (f == n.id);
      if (failed) continue;
      dispatch(st, n.id, Outstanding{0, -1});
    }
    // The zero phase runs once; -1 disables further forwarding exactly like
    // the paper's "q.level >= 0" guard combined with its matching-filter.
    q.level = -1;
  }

  if (st.waiting.empty() && !st.shared_wait) finish(st);
}

/// Resumes a query's state machine once nothing is outstanding: re-forward
/// while the sigma target is unmet and levels remain, reply otherwise.
/// (Fig. 5 receive_reply lines 4-13, shared by replies, timeouts, and
/// shared-traversal fan-out.)
void SelectionNode::resume(QueryState& st) {
  if (!st.waiting.empty() || st.shared_wait) return;
  if (st.matching.size() < st.msg.sigma && st.msg.level >= 0) {
    continue_query(st);
  } else {
    finish(st);
  }
}

void SelectionNode::dispatch(QueryState& st, NodeId to, Outstanding slot) {
  auto m = std::make_unique<QueryMsg>();
  m->id = st.msg.id;
  m->reply_to = id();
  m->origin = st.msg.origin;
  m->query = st.msg.query;
  m->sigma = st.msg.sigma;
  if (slot.dim < 0 && slot.level == 0) {
    m->level = -1;  // leaf probe: answer only, never forward
    m->dims_mask = 0;
  } else {
    m->level = slot.level;
    m->dims_mask = st.msg.dims_mask;
  }
  if (observer_ != nullptr)
    observer_->on_query_forwarded(st.msg.id, id(), to, slot.level, slot.dim);
  slot.last_heard = now();
  slot.seq = ++next_dispatch_seq_;
  st.waiting.emplace(to, slot);
  if (cfg_.query_timeout > 0) {
    const QueryId qid = st.msg.id;
    const std::uint64_t seq = slot.seq;
    after(cfg_.query_timeout, [this, qid, to, seq] { on_timeout(qid, to, seq); });
  }
  send(to, std::move(m));
}

void SelectionNode::on_timeout(QueryId qid, NodeId to, std::uint64_t seq) {
  auto it = active_.find(qid);
  if (it == active_.end()) return;
  QueryState& st = it->second;
  auto w = st.waiting.find(to);
  if (w == st.waiting.end()) return;  // already answered
  // A timer only speaks for the dispatch that armed it: the same peer may
  // be dispatched to again for this query (a later level, or an alternate
  // retry under concurrent load), and a leftover timer from the earlier
  // dispatch must not fail the newer one.
  if (w->second.seq != seq) return;
  // Keepalives reset the deadline: only true silence for a full T(q)
  // declares the branch dead. Re-arm otherwise.
  const SimTime deadline = w->second.last_heard + cfg_.query_timeout;
  if (now() < deadline) {
    after(deadline - now(), [this, qid, to, seq] { on_timeout(qid, to, seq); });
    return;
  }
  Outstanding slot = w->second;
  st.waiting.erase(w);
  st.failed.push_back(to);
  metrics().inc(id(), m_query_timeouts_);
  // Treat the peer as failed: purge it from every local structure so later
  // queries do not stumble over the same dead link.
  rt_->remove(to);
  if (cyclon_ != nullptr) cyclon_->remove(to);
  if (vicinity_ != nullptr) vicinity_->remove(to);

  if (cfg_.retry_alternates && slot.dim >= 0) {
    if (const CompactPeer* alt = rt_->alternate(slot.level, slot.dim, st.failed)) {
      metrics().inc(id(), m_query_retries_);
      dispatch(st, alt->id, slot);
      return;
    }
  }
  resume(st);
}

void SelectionNode::handle_reply(NodeId from, const ReplyMsg& r) {
  auto it = active_.find(r.id);
  if (it == active_.end()) return;  // late reply after timeout/finish
  QueryState& st = it->second;
  auto w = st.waiting.find(from);
  if (w != st.waiting.end()) {
    st.subtree_complete = st.subtree_complete && r.complete;
    if (cache_.enabled() && r.complete && w->second.dim >= 0 &&
        !st.msg.query.has_dynamic_filters() && !shared_.contains(r.id)) {
      // The child exhausted the fragment we delegated: remember it, so the
      // next query forwarding into this subcell with equivalent clamped
      // ranges resolves without messaging. (A shared traversal's riders
      // each insert their own fragment when it fans out.)
      const Region subcell =
          cells_.neighbor_region(coord_, w->second.level, w->second.dim);
      cache_.insert(make_fragment_key(space_, subcell, st.msg.query), r.matching);
      meter_cache();
    }
    st.waiting.erase(w);
  }
  for (const auto& m : r.matching) st.matching.emplace(m.id, m);
  resume(st);
}

void SelectionNode::finish(QueryState& st) {
  const QueryId qid = st.msg.id;
  std::vector<MatchRecord> matches;
  matches.reserve(st.matching.size());
  for (auto& [nid, rec] : st.matching) matches.push_back(rec);
  // Complete = the DFS wound all the way down (no sigma cutoff left levels
  // unexplored), no branch failed, and every child subtree was itself
  // complete. Subcells with no known link share the protocol's convergence
  // assumption (see PROTOCOL.md: the receiver computes the identical
  // emptiness verdict), so they do not spoil completeness; wrong emptiness
  // verdicts are a churn phenomenon, bounded by the cache's age horizon
  // like any other staleness.
  const bool complete = st.msg.level == -1 && st.failed.empty() && st.subtree_complete;

  if (auto sit = shared_.find(qid); sit != shared_.end()) {
    // A shared traversal answers its local riders, not a parent. Detach
    // before fanning out: resumed riders may open new shared traversals
    // (mutating shared_ and active_) or finish.
    const SharedBranch sb = std::move(sit->second);
    shared_.erase(sit);
    active_.erase(qid);  // invalidates st
    fan_out(sb, matches, complete);
    return;
  }
  if (st.is_origin) {
    metrics().observe("query.result_size", static_cast<double>(matches.size()));
    if (observer_ != nullptr) observer_->on_query_completed(qid, id(), matches);
    if (st.done) st.done(matches);
  } else {
    auto r = std::make_unique<ReplyMsg>();
    r->id = qid;
    r->matching = std::move(matches);
    r->complete = complete;
    send(st.parent, std::move(r));
  }
  completed_.insert(qid);
  active_.erase(qid);  // invalidates st; must be last
}

// ---- shared traversals (query coalescing) -------------------------------

/// Sends st's branch into subcell N(level,k) through a shared traversal: as
/// a rider of an in-flight traversal whose fragment covers st's, or by
/// opening a new one through `to`.
void SelectionNode::share(QueryState& st, int level, int k, const Region& subcell,
                          NodeId to) {
  const FragmentKey key = make_fragment_key(space_, subcell, st.msg.query);
  st.shared_wait = true;
  for (auto& [sqid, sb] : shared_) {
    if (sb.level == level && sb.dim == k && fragment_covers(sb.key, key)) {
      sb.riders.push_back(SharedRider{st.msg.id, key});
      metrics().inc(id(), m_coalesce_attach_);
      return;
    }
  }
  const QueryId sqid = (static_cast<QueryId>(id()) << 32) | next_query_seq_++;
  shared_.emplace(sqid, SharedBranch{level, k, key, {SharedRider{st.msg.id, key}}});
  metrics().inc(id(), m_coalesce_dispatch_);
  // The traversal is a query state of its own (references into active_,
  // such as st, survive the insert), carrying this rider's ranges.
  QueryState& t = active_[sqid];
  t.msg = st.msg;
  t.msg.id = sqid;
  t.msg.reply_to = id();
  t.msg.origin = id();
  t.msg.level = level;
  // Confinement mask: clear dimensions 0..k. The receiver Y lies in
  // N(level,k)(this); its cell minus its own subcells along the cleared
  // dimensions is exactly N(level,k)(this) (the partition argument in the
  // header), so the traversal covers precisely its ranges ∩ subcell no
  // matter which masks the riders arrived with.
  t.msg.dims_mask =
      all_dims_mask(space_.dimensions()) & ~((std::uint32_t{1} << (k + 1)) - 1);
  dispatch(t, to, Outstanding{level, k});
  // Its one branch is out and nothing is left to explore here: resume()
  // finishes the traversal instead of continuing a DFS under the
  // confinement mask, and finish() judges completeness as for any node.
  t.msg.level = -1;
}

/// Hands a finished shared traversal's records to each rider, filtered to
/// the rider's own ranges, and resumes it.
void SelectionNode::fan_out(const SharedBranch& sb,
                            const std::vector<MatchRecord>& records, bool complete) {
  for (const SharedRider& rider : sb.riders) {
    auto ait = active_.find(rider.qid);
    if (ait == active_.end()) continue;
    QueryState& st = ait->second;
    st.shared_wait = false;
    st.subtree_complete = st.subtree_complete && complete;
    std::vector<MatchRecord> own;
    for (const MatchRecord& m : records)
      if (st.msg.query.matches(m.values)) own.push_back(m);
    if (cache_.enabled() && complete) {
      // Riders carry no dynamic filters (coalescing eligibility), so the
      // filtered records are exactly the rider's fragment.
      cache_.insert(rider.key, own);
      meter_cache();
    }
    for (const MatchRecord& m : own) st.matching.emplace(m.id, m);
    resume(st);
  }
}

}  // namespace ares

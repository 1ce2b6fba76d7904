#pragma once

/// \file query_stats.h
/// Concrete QueryObserver collecting the paper's metrics:
///   - routing overhead: query deliveries at nodes that did not match,
///     excluding the originator (§6: "the average number of hops traveled by
///     a query through nodes that did not match the query themselves");
///   - hits: distinct matching nodes reached (delivery numerator);
///   - duplicates: repeat visits of the same node by one query (the paper
///     reports zero; our property tests assert it);
///   - forwards: query-message hops (per query and total), the denominator
///     of hops-per-query in the throughput benchmarks.
///
/// Mutators and accessors are internally locked: one QueryStats is a shared
/// QueryObserver that any number of nodes report into, and nothing ties
/// those nodes to one thread (several UdpRuntime threads in one process may
/// share an observer), while a driver thread may read totals mid-run.
/// Updates are commutative integer bumps into per-QueryId rows, so the
/// post-run state is deterministic regardless of interleaving. Scalar
/// accessors take the lock (cold path) and are safe mid-run; find() and
/// per_query() hand out references into the map and remain quiescent-read
/// contracts — call them post-run or between steps, never while observers
/// may mutate (std::map nodes are stable across inserts, but the
/// pointed-to rows are not locked once returned).

#include <map>
#include <unordered_set>

#include "common/mutex.h"
#include "common/summary.h"
#include "core/selection_node.h"

namespace ares {

class QueryStats final : public QueryObserver {
 public:
  struct PerQuery {
    NodeId origin = kInvalidNode;
    std::uint32_t overhead = 0;    // non-matching, non-origin deliveries
    std::uint32_t hits = 0;        // distinct matching nodes visited
    std::uint32_t duplicates = 0;  // repeat visits (any kind)
    std::uint32_t forwards = 0;    // query-message hops sent for this query
    bool completed = false;
    std::size_t result_size = 0;
    std::unordered_set<NodeId> visited;          // iff track_visited
    std::unordered_set<NodeId> matched_visited;  // iff track_visited
  };

  /// \param track_visited keep per-query visited sets (exact duplicate and
  ///        delivery accounting). Disable for very large sweeps; duplicates
  ///        then read 0 and `hits` counts deliveries, which is identical as
  ///        long as the protocol keeps its exactly-once property.
  explicit QueryStats(bool track_visited = true) : track_visited_(track_visited) {}

  void on_query_visited(QueryId q, NodeId node, bool matched,
                        bool is_origin) override;
  void on_query_forwarded(QueryId q, NodeId from, NodeId to, int level,
                          int dim) override;
  void on_query_completed(QueryId q, NodeId origin,
                          const std::vector<MatchRecord>& matches) override;

  /// Locked lookup; the returned row is a quiescent-read contract (see
  /// file comment). nullptr when the query was never observed.
  const PerQuery* find(QueryId q) const ARES_EXCLUDES(mu_);

  /// Ordered by QueryId so consumers that iterate (reports, per-query CSV
  /// dumps) see a deterministic sequence. Quiescent-read contract: the
  /// analysis cannot see past the returned reference, so the lock would be
  /// theater — callers iterate post-run only.
  const std::map<QueryId, PerQuery>& per_query() const
      ARES_NO_THREAD_SAFETY_ANALYSIS {
    return queries_;
  }

  std::uint64_t total_overhead() const ARES_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return total_overhead_;
  }
  std::uint64_t total_hits() const ARES_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return total_hits_;
  }
  std::uint64_t total_duplicates() const ARES_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return total_duplicates_;
  }
  std::uint64_t total_forwards() const ARES_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return total_forwards_;
  }
  std::uint64_t completed_count() const ARES_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return completed_;
  }

  /// Mean routing overhead per observed query.
  double mean_overhead() const ARES_EXCLUDES(mu_);

  void clear() ARES_EXCLUDES(mu_);

 private:
  const bool track_visited_;  // set at construction, immutable after
  mutable Mutex mu_{"core.query_stats", lockrank::kQueryStats};
  std::map<QueryId, PerQuery> queries_ ARES_GUARDED_BY(mu_);
  std::uint64_t total_overhead_ ARES_GUARDED_BY(mu_) = 0;
  std::uint64_t total_hits_ ARES_GUARDED_BY(mu_) = 0;
  std::uint64_t total_duplicates_ ARES_GUARDED_BY(mu_) = 0;
  std::uint64_t total_forwards_ ARES_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ ARES_GUARDED_BY(mu_) = 0;
};

}  // namespace ares

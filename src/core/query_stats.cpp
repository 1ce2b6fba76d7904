#include "core/query_stats.h"

namespace ares {

void QueryStats::on_query_visited(QueryId q, NodeId node, bool matched,
                                  bool is_origin) {
  MutexLock lock(&mu_);
  PerQuery& pq = queries_[q];
  if (is_origin) pq.origin = node;

  if (track_visited_) {
    if (!pq.visited.insert(node).second) {
      ++pq.duplicates;
      ++total_duplicates_;
      return;  // repeat visit: never recounted as hit or overhead
    }
  }
  if (matched) {
    ++pq.hits;
    ++total_hits_;
  } else if (!is_origin) {
    ++pq.overhead;
    ++total_overhead_;
  }
}

void QueryStats::on_query_forwarded(QueryId q, NodeId /*from*/, NodeId /*to*/,
                                    int /*level*/, int /*dim*/) {
  MutexLock lock(&mu_);
  ++queries_[q].forwards;
  ++total_forwards_;
}

void QueryStats::on_query_completed(QueryId q, NodeId origin,
                                    const std::vector<MatchRecord>& matches) {
  MutexLock lock(&mu_);
  PerQuery& pq = queries_[q];
  pq.origin = origin;
  pq.completed = true;
  pq.result_size = matches.size();
  ++completed_;
}

const QueryStats::PerQuery* QueryStats::find(QueryId q) const {
  MutexLock lock(&mu_);
  // The returned pointer outlives the lock (map nodes are stable across
  // inserts); reading through it is the quiescent contract in the header.
  auto it = queries_.find(q);
  return it == queries_.end() ? nullptr : &it->second;
}

double QueryStats::mean_overhead() const {
  MutexLock lock(&mu_);
  if (queries_.empty()) return 0.0;
  return static_cast<double>(total_overhead_) / static_cast<double>(queries_.size());
}

void QueryStats::clear() {
  MutexLock lock(&mu_);
  queries_.clear();
  total_overhead_ = total_hits_ = total_duplicates_ = total_forwards_ = 0;
  completed_ = 0;
}

}  // namespace ares

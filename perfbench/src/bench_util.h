#pragma once

/// \file bench_util.h
/// The benchmark's own pure logic, kept apart from the workloads so
/// tests/selftest.cpp can check it: the percentile rule, quantiles, and the
/// per-query correctness oracles, and the message-type classes the byte
/// metrics are built from.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace perfbench {

/// Type-7 (linear interpolation) quantile of an ascending sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double h = (static_cast<double>(sorted.size()) - 1.0) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

/// Samples lying beyond the q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  // The epsilon keeps exact products such as 1000 * 0.01 from rounding down.
  return static_cast<std::size_t>(std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// The percentile rule: a tail percentile is reported only when at least
/// ten samples lie beyond it.
inline bool tail_supported(std::size_t n, double q) { return samples_beyond(n, q) >= 10; }

/// Outcome of checking one query's result set.
enum class Verdict { kOk, kIncomplete, kDuplicate, kNonMatching, kTooFew, kMismatch };

inline const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kIncomplete: return "incomplete";
    case Verdict::kDuplicate: return "duplicate result";
    case Verdict::kNonMatching: return "non-matching result";
    case Verdict::kTooFew: return "fewer than min(sigma, |truth|) results";
    case Verdict::kMismatch: return "result differs from ground truth";
  }
  return "?";
}

/// Oracle for sigma-limited queries: the query completed with at least
/// min(sigma, truth_count) distinct nodes, all of which match. Returning
/// more than sigma nodes is by design (the DFS overshoots within the last
/// cell it visits), so the size check is a lower bound, not equality.
/// `truth_count` is only consulted when fewer than sigma nodes came back,
/// so callers may pass a lazily computed count.
inline Verdict check_sigma(bool completed, std::vector<ares::NodeId> ids,
                           std::uint32_t sigma,
                           const std::function<bool(ares::NodeId)>& matches,
                           const std::function<std::size_t()>& truth_count) {
  if (!completed) return Verdict::kIncomplete;
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) return Verdict::kDuplicate;
  for (ares::NodeId id : ids)
    if (!matches(id)) return Verdict::kNonMatching;
  if (ids.size() < sigma && ids.size() < truth_count()) return Verdict::kTooFew;
  return Verdict::kOk;
}

/// Oracle for exhaustive (sigma = infinity) queries: the result set equals
/// the ground truth exactly. `truth` must be ascending.
inline Verdict check_exhaustive(bool completed, std::vector<ares::NodeId> ids,
                                const std::vector<ares::NodeId>& truth) {
  if (!completed) return Verdict::kIncomplete;
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) return Verdict::kDuplicate;
  return ids == truth ? Verdict::kOk : Verdict::kMismatch;
}

/// Sent-message totals by protocol: `select.*` is query traffic (of which
/// `select.query` counts hops), `cyclon.*` and `vicinity.*` are gossip, and
/// `all_bytes` covers every type.
struct TrafficTotals {
  std::uint64_t select_msgs = 0, select_bytes = 0, query_msgs = 0;
  std::uint64_t gossip_msgs = 0, gossip_bytes = 0, all_bytes = 0;
};

/// Folds a NetworkStats::sent_by_type() map into TrafficTotals; both the
/// simulator and UdpRuntime workloads count bytes through this one helper.
template <typename ByType>
TrafficTotals fold_traffic(const ByType& sent_by_type) {
  TrafficTotals t;
  for (const auto& [type, c] : sent_by_type) {
    const std::string_view ty = type;
    t.all_bytes += c.bytes;
    if (ty.starts_with("select.")) {
      t.select_msgs += c.count;
      t.select_bytes += c.bytes;
      if (ty == "select.query") t.query_msgs += c.count;
    } else if (ty.starts_with("cyclon.") || ty.starts_with("vicinity.")) {
      t.gossip_msgs += c.count;
      t.gossip_bytes += c.bytes;
    }
  }
  return t;
}

}  // namespace perfbench

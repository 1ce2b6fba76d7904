/// Per-node memory footprint regression test.
///
/// In the paper a node keeps only its own profile plus O(L·d) links, so
/// resident bytes per node are what bounds simulated scale (DESIGN.md §8).
/// This executable replaces the global operator new/delete with a live-bytes
/// counter and checks two figures on an oracle grid:
///   - live heap bytes per node once setup is done, and
///   - heap growth per visited node while queries are served (the per-node,
///     per-query bookkeeping that stays behind after a query completes).
/// It is a separate test binary because the allocator replacement is global.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <utility>
#include <vector>

#include "exp/grid.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"

namespace {

// ordering: relaxed — a byte tally read between single-threaded phases.
std::atomic<std::int64_t> g_live_bytes{0};

// Each block carries its requested size in a max-aligned header, so the
// unsized delete forms know what to subtract as well as the sized ones.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) noexcept {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) return nullptr;
  *static_cast<std::size_t*>(raw) = n;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  const std::size_t n = *static_cast<std::size_t*>(raw);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  std::free(raw);
}

std::int64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace ares {
namespace {

constexpr std::size_t kNodes = 2000;
constexpr std::size_t kQueries = 200;

// Bounds, with the values measured on the commit that set them (identical
// in Release and Debug builds: they count requested bytes, not RSS):
//   setup:  2,453 B/node; 3,571 while each node kept its consumed 5-entry
//           introducer buffer (5 x 216 B).
//   growth: 13.0 B per visited node over 11,870 visits; 54.3 while
//           completed and in-flight query ids lived in hash containers (a
//           heap node per id plus bucket arrays that outlive the last entry).
constexpr double kMaxSetupBytesPerNode = 2800.0;
constexpr double kMaxGrowthBytesPerVisit = 24.0;

TEST(NodeFootprint, SetupAndServedQueriesStayCompact) {
  Grid::Config cfg{.space = AttributeSpace::uniform(5, 3, 0, 80)};
  cfg.nodes = kNodes;
  cfg.oracle = true;
  cfg.latency = "wan";
  cfg.seed = 11;
  cfg.protocol.gossip_enabled = false;
  cfg.track_visited = false;
  PointGen gen = uniform_points(cfg.space, 0, 80);

  const std::int64_t before_setup = live_bytes();
  Grid grid(cfg, std::move(gen));
  const std::int64_t after_setup = live_bytes();
  const double setup_per_node =
      static_cast<double>(after_setup - before_setup) / static_cast<double>(kNodes);
  EXPECT_LT(setup_per_node, kMaxSetupBytesPerNode)
      << "live heap bytes per node after setup";

  // The query list and the RNG are built before the measured span, so the
  // growth counts only what serving leaves behind.
  Rng rng(23);
  std::vector<std::pair<NodeId, RangeQuery>> queries;
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    RangeQuery q = best_case_query(grid.space(), 0.125, rng);
    queries.emplace_back(grid.random_node(), std::move(q));
  }

  const std::int64_t before_queries = live_bytes();
  std::size_t completed = 0;
  for (const auto& [origin, q] : queries) {
    completed += grid.run_query(origin, q, /*sigma=*/50).completed ? 1 : 0;
  }
  const std::int64_t growth = live_bytes() - before_queries;
  EXPECT_EQ(completed, kQueries);
  // Every visit is either a query's origin or one forwarded delivery.
  const std::uint64_t visits = grid.stats().total_forwards() + kQueries;
  ASSERT_GT(visits, kQueries);
  const double growth_per_visit =
      static_cast<double>(growth) / static_cast<double>(visits);
  std::cout << "setup " << setup_per_node << " B/node; growth " << growth_per_visit
            << " B/visit over " << visits << " visits\n";
  EXPECT_LT(growth_per_visit, kMaxGrowthBytesPerVisit)
      << "heap growth per visited node over " << visits << " visits";
}

}  // namespace
}  // namespace ares

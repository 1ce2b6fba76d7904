#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
// ordering: relaxed — a pure event count, read between timed loops.
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace ares::bench {
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace ares::bench

// Array and sized-delete forms forward to malloc/free directly; over-aligned
// types are not used by the measured code paths.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

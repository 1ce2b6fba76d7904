// Per-thread heap-allocation counter: every operator new in this binary
// bumps the calling thread's count (the scheme bench/micro_gossip uses,
// made thread-local so the UDP workload's threads do not contend on it).

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
std::uint64_t thread_allocs() { return t_allocs; }
}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

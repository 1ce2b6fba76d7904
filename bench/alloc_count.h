#pragma once

/// \file alloc_count.h
/// Process-wide heap-allocation counter behind the micro benches'
/// zero-allocation gates. Linking alloc_count.cpp replaces the global
/// operator new/delete, so every operator new in the binary bumps one
/// counter. The replacements sit in their own translation unit: inlined
/// next to the caller, a delete that ends in free() on memory the compiler
/// knows came from operator new trips GCC's -Wmismatched-new-delete.

#include <cstdint>

namespace ares::bench {

/// operator new calls made so far by this process.
std::uint64_t alloc_count();

}  // namespace ares::bench

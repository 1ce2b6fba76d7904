#pragma once

/// \file thread_annotations.h
/// Clang Thread Safety Analysis attribute macros (abseil-style, ARES_
/// prefixed). Under clang the whole tree compiles with -Wthread-safety
/// (promoted to an error by -DARES_WERROR=ON, on in CI's static-analysis
/// job), so lock discipline is checked on every translation unit at compile
/// time rather than dynamically on whatever schedules TSan happens to see.
/// Under other compilers every macro expands to nothing — the annotations
/// are pure documentation there, and the negative-compile harness
/// (tests/static/) keeps the structural rules (no raw lock() calls, no
/// copying locks) enforced on any compiler.
///
/// Conventions (DESIGN.md §11 "Concurrency contract"):
///   - every shared mutable field is either (a) annotated with
///     ARES_GUARDED_BY(its mutex), (b) a std::atomic with an
///     `// ordering:` note, or (c) covered by a documented ownership
///     argument (per-slot / single-writer phases);
///   - mutexes are ares::Mutex (common/mutex.h), never raw std::mutex —
///     lint rule "raw-mutex";
///   - functions that must be called with a lock held are annotated
///     ARES_REQUIRES(mu); functions that must NOT be called with it held
///     (they acquire it themselves, or they would deadlock) are annotated
///     ARES_EXCLUDES(mu).

#if defined(__clang__)
#define ARES_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ARES_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// A class that is a lockable capability ("mutex").
#define ARES_CAPABILITY(x) ARES_THREAD_ANNOTATION_(capability(x))

/// An RAII object that acquires a capability in its constructor and
/// releases it in its destructor.
#define ARES_SCOPED_CAPABILITY ARES_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define ARES_GUARDED_BY(x) ARES_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define ARES_PT_GUARDED_BY(x) ARES_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function that acquires the capability and holds it on return.
#define ARES_ACQUIRE(...) \
  ARES_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function that releases a held capability.
#define ARES_RELEASE(...) \
  ARES_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function callable only while the capability is held.
#define ARES_REQUIRES(...) \
  ARES_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function that must NOT be called while the capability is held (it
/// acquires it itself, or holding it would deadlock).
#define ARES_EXCLUDES(...) ARES_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the given capability.
#define ARES_RETURN_CAPABILITY(x) ARES_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function's discipline is correct for reasons the
/// analysis cannot see (e.g. a quiescent-phase read contract). Every use
/// carries a comment explaining the manual argument.
#define ARES_NO_THREAD_SAFETY_ANALYSIS \
  ARES_THREAD_ANNOTATION_(no_thread_safety_analysis)

#pragma once

/// \file spans.h
/// In-memory span recording for the traced run. Spans are recorded from the
/// benchmark's own files around calls into the library, kept in memory, and
/// written out when the run ends; each span's self time is its duration
/// minus the part of its interval that its child spans cover.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Which clock a span's times are on. Sim spans (queries in the simulator)
/// are in simulated nanoseconds and never nest under host spans.
enum class SpanClock : char { kHost = 'h', kSim = 's' };

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder, -1 for a root
  std::uint64_t qid = 0;     // query index for per-query spans, else 0
  std::uint32_t hops = 0;    // forward edges in the query's hop tree
  SpanClock clock = SpanClock::kHost;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
std::vector<std::int64_t> compute_self_times(const std::vector<Span>& spans);

/// Host monotonic nanoseconds since the first call in this process.
std::int64_t host_now_ns();

class SpanRecorder {
 public:
  std::int32_t begin(std::string name, std::int32_t parent = -1, std::uint64_t qid = 0);
  void end(std::int32_t idx) { at(idx).end_ns = host_now_ns(); }
  std::int32_t add(Span s);
  /// Appends another recorder's spans; its roots become children of
  /// `parent` (-1 keeps them roots).
  void append(const SpanRecorder& other, std::int32_t parent);

  const std::vector<Span>& spans() const { return spans_; }
  Span& at(std::int32_t idx) { return spans_[static_cast<std::size_t>(idx)]; }
  std::size_t size() const { return spans_.size(); }

  struct NameTotals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  /// Count, total and self time per span name and clock ("h:name").
  std::map<std::string, NameTotals> totals() const;

  /// Writes spans (at most `max_per_name` of each name, parents kept) and
  /// the per-name totals as JSON. Returns false when the file cannot be
  /// written.
  bool write_json(const std::string& path, std::size_t max_per_name) const;

 private:
  std::vector<Span> spans_;
};

/// RAII host span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int32_t parent = -1)
      : rec_(rec), idx_(rec != nullptr ? rec->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t index() const { return idx_; }

 private:
  SpanRecorder* rec_;
  std::int32_t idx_;
};

}  // namespace perfbench

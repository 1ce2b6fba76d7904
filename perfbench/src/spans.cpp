#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {

std::vector<std::int64_t> compute_self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (p.clock != s.clock) continue;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::int64_t host_now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::int32_t SpanRecorder::begin(std::string name, std::int32_t parent,
                                 std::uint64_t qid) {
  Span s;
  s.name = std::move(name);
  s.start_ns = s.end_ns = host_now_ns();
  s.parent = parent;
  s.qid = qid;
  return add(std::move(s));
}

std::int32_t SpanRecorder::add(Span s) {
  spans_.push_back(std::move(s));
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::append(const SpanRecorder& other, std::int32_t parent) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 ? parent : s.parent + base;
    spans_.push_back(std::move(s));
  }
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::totals() const {
  const auto self = compute_self_times(spans_);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameTotals& t = out[std::string(1, static_cast<char>(s.clock)) + ":" + s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += self[i];
  }
  return out;
}

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

bool SpanRecorder::write_json(const std::string& path, std::size_t max_per_name) const {
  std::ofstream os(path);
  if (!os) return false;
  const auto self = compute_self_times(spans_);
  // Keep the first max_per_name spans of each name, plus every ancestor of
  // a kept span so parent links stay resolvable.
  std::vector<char> keep(spans_.size(), 0);
  std::map<std::string, std::size_t> seen;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (seen[spans_[i].name]++ >= max_per_name) continue;
    for (auto j = static_cast<std::int32_t>(i);
         j >= 0 && keep[static_cast<std::size_t>(j)] == 0;
         j = spans_[static_cast<std::size_t>(j)].parent)
      keep[static_cast<std::size_t>(j)] = 1;
  }
  os << "{\"spans\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (keep[i] == 0) continue;
    const Span& s = spans_[i];
    os << (first ? "" : ",") << "\n{\"id\":" << i << ",\"name\":";
    json_string(os, s.name);
    os << ",\"clock\":\"" << (s.clock == SpanClock::kHost ? "host" : "sim")
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"self_ns\":" << self[i] << ",\"parent\":" << s.parent;
    if (s.qid != 0) os << ",\"query\":" << s.qid << ",\"hops\":" << s.hops;
    os << '}';
    first = false;
  }
  os << "\n],\"totals\":{";
  first = true;
  for (const auto& [name, t] : totals()) {
    os << (first ? "" : ",") << "\n";
    json_string(os, name);
    os << ":{\"count\":" << t.count << ",\"total_ns\":" << t.total_ns
       << ",\"self_ns\":" << t.self_ns << '}';
    first = false;
  }
  os << "\n}}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

#include "gossip/view.h"

#include <algorithm>
#include <cassert>

#include "gossip/workspace.h"

namespace ares {

bool View::contains(NodeId id) const { return find(id) != nullptr; }

const CompactPeer* View::find(NodeId id) const {
  for (const auto& e : entries_)
    if (e.id == id) return &e;
  return nullptr;
}

bool View::insert_or_refresh(const CompactPeer& d) {
  for (auto& e : entries_) {
    if (e.id == d.id) {
      if (d.age < e.age) {  // younger descriptor wins
        e = d;
        mark_fresh(d.id);
      }
      return true;
    }
  }
  if (full()) return false;
  entries_.push_back(d);
  mark_fresh(d.id);
  return true;
}

void View::insert_evicting_oldest(const CompactPeer& d) {
  if (insert_or_refresh(d)) return;
  entries_[oldest_index()] = d;
  mark_fresh(d.id);
}

void View::remove(NodeId id) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [id](const CompactPeer& e) { return e.id == id; }),
                 entries_.end());
}

void View::age_all() {
  for (auto& e : entries_) ++e.age;
}

void View::drop_older_than(std::uint32_t max_age) {
  entries_.erase(
      std::remove_if(entries_.begin(), entries_.end(),
                     [max_age](const CompactPeer& e) { return e.age > max_age; }),
      entries_.end());
}

std::size_t View::oldest_index() const {
  assert(!entries_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i)
    if (entries_[i].age > entries_[best].age) best = i;
  return best;
}

CompactPeer View::take_oldest() {
  std::size_t i = oldest_index();
  CompactPeer d = entries_[i];
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  return d;
}

std::vector<CompactPeer> View::random_subset(Rng& rng, std::size_t k) const {
  std::vector<CompactPeer> out;
  random_subset_into(rng, k, out);
  return out;
}

void View::random_subset_into(Rng& rng, std::size_t k,
                              std::vector<CompactPeer>& out) const {
  k = std::min(k, entries_.size());
  std::vector<std::size_t>& idx = SelectionWorkspace::local().indices;
  rng.sample_indices_into(entries_.size(), k, idx);
  out.clear();
  out.reserve(k);
  for (std::size_t i : idx) out.push_back(entries_[i]);
}

void View::assign(const std::vector<CompactPeer>& v) {
  assert(v.size() <= capacity_);
  entries_.assign(v.begin(), v.end());
}

void View::mark_fresh(NodeId id) {
  if (all_fresh_ || std::find(fresh_.begin(), fresh_.end(), id) != fresh_.end()) return;
  if (fresh_.size() >= capacity_) {
    all_fresh_ = true;
    fresh_.clear();
    return;
  }
  fresh_.push_back(id);
}

}  // namespace ares

#include "space/descriptor_store.h"

#include <cassert>

namespace ares {

void DescriptorStore::put(NodeId id, const Point& values) {
  assert(static_cast<int>(values.size()) == space_->dimensions());
  if (id >= present_.size()) {
    present_.resize(id + 1, 0);
    values_.resize(present_.size() * dims_, 0);
    coords_.resize(present_.size() * dims_, 0);
  }
  if (present_[id] == 0) {
    present_[id] = 1;
    ++rows_;
  } else {
    // Equality skip: a redundant write of an unchanged profile leaves the
    // row untouched and skips the cell-index recomputation.
    bool same = true;
    const AttrValue* row = &values_[id * dims_];
    for (std::size_t i = 0; i < dims_; ++i) same = same && row[i] == values[i];
    if (same) return;
  }
  for (std::size_t i = 0; i < dims_; ++i) {
    values_[id * dims_ + i] = values[i];
    coords_[id * dims_ + i] = space_->cell_index(static_cast<int>(i), values[i]);
  }
}

}  // namespace ares

#include "mesh/machine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace meshpram {

Mesh::Mesh(int rows, int cols, NodeOrderKind order)
    : rows_(rows), cols_(cols), order_(rows, cols, order) {
  MP_REQUIRE(rows >= 1 && cols >= 1, "mesh " << rows << 'x' << cols);
  bufs_.resize(static_cast<size_t>(size()));
  stores_.resize(static_cast<size_t>(size()));
  counters_.resize(rows, cols);
}

i64 Mesh::total_packets(const Region& region) const {
  i64 total = 0;
  for (RegionCursor cur = cursor(region); cur.valid(); cur.advance()) {
    total += static_cast<i64>(
        bufs_[static_cast<size_t>(order_.slot_of(cur.id()))].size());
  }
  return total;
}

i64 Mesh::max_load(const Region& region) const {
  i64 load = 0;
  for (RegionCursor cur = cursor(region); cur.valid(); cur.advance()) {
    load = std::max(load,
                    static_cast<i64>(
                        bufs_[static_cast<size_t>(order_.slot_of(cur.id()))]
                            .size()));
  }
  return load;
}

void Mesh::clear_buffers() {
  for (auto& b : bufs_) b.clear();  // clear() keeps capacity (reuse contract)
}

void Mesh::clear_buffers(const Region& region) {
  for (RegionCursor cur = cursor(region); cur.valid(); cur.advance()) {
    bufs_[static_cast<size_t>(order_.slot_of(cur.id()))].clear();
  }
}

}  // namespace meshpram

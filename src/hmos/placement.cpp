#include "hmos/placement.hpp"

#include <limits>

#include "util/error.hpp"
#include "util/log.hpp"

namespace meshpram {

namespace {

/// Splits `region` into c child regions: a proper grid split when the region
/// is large enough, otherwise 1x1 regions round-robin over the snake.
std::vector<Region> split_for_children(const Region& region, i64 c,
                                       bool* degraded) {
  if (c <= region.size()) return region.grid_split(c);
  *degraded = true;
  std::vector<Region> out;
  out.reserve(static_cast<size_t>(c));
  for (i64 r = 0; r < c; ++r) {
    const Coord x = region.at_snake(r % region.size());
    out.emplace_back(x.r, x.c, 1, 1);
  }
  return out;
}

}  // namespace

Placement::Placement(const MemoryMap& map, const Region& whole)
    : map_(map), whole_(whole) {
  const HmosParams& p = map.params();
  MP_REQUIRE(whole.size() == p.mesh_size(),
             "placement region " << whole << " does not match params mesh "
                                 << p.mesh_rows() << 'x' << p.mesh_cols());
  const int k = p.k();
  pages_.resize(static_cast<size_t>(k) + 1);

  // Level k: one page per module, tiling the whole mesh.
  {
    const i64 mk = p.level(k).modules;
    const auto regions = whole.grid_split(mk);
    auto& lvl = pages_[static_cast<size_t>(k)];
    lvl.reserve(static_cast<size_t>(mk));
    for (i64 u = 0; u < mk; ++u) {
      lvl.push_back(PageInfo{u, -1, -1, regions[static_cast<size_t>(u)]});
    }
  }

  // Levels k-1 .. 1: split every page of level i+1 among its children.
  for (int i = k - 1; i >= 1; --i) {
    auto& parent_lvl = pages_[static_cast<size_t>(i) + 1];
    auto& lvl = pages_[static_cast<size_t>(i)];
    const BibdSubgraph& g = map.graph(i + 1);
    for (size_t pi = 0; pi < parent_lvl.size(); ++pi) {
      PageInfo& parent = parent_lvl[pi];
      const i64 nchild = g.output_degree(parent.module);
      parent.first_child = static_cast<i64>(lvl.size());
      const auto regions =
          split_for_children(parent.region, nchild, &degraded_);
      for (i64 r = 0; r < nchild; ++r) {
        lvl.push_back(PageInfo{g.output_neighbor(parent.module, r),
                               static_cast<i64>(pi), -1,
                               regions[static_cast<size_t>(r)]});
      }
    }
    MP_ASSERT(static_cast<i64>(lvl.size()) == p.level(i).pages,
              "level " << i << " produced " << lvl.size()
                       << " pages, expected " << p.level(i).pages);
  }
  for (int i = 1; i <= k; ++i) {
    MP_REQUIRE(pages_[static_cast<size_t>(i)].size() <=
                   static_cast<size_t>(std::numeric_limits<i32>::max()),
               "level-" << i << " page ids overflow the 32-bit copy table");
  }
  if (degraded_) {
    MP_WARN("placement packs multiple pages per node (t_i < 1); see "
            "DESIGN.md 2.4. "
            << p.describe());
  }
}

const std::vector<PageInfo>& Placement::pages(int level) const {
  MP_REQUIRE(1 <= level && level <= map_.params().k(),
             "page level " << level);
  return pages_[static_cast<size_t>(level)];
}

CopyLoc Placement::locate(u64 copy) const {
  const int k = map_.params().k();
  LevelPath path;
  map_.module_path_into(copy, path);
  CopyLoc loc;

  i64 idx = path[static_cast<size_t>(k - 1)];  // level-k page index == module
  loc.page[static_cast<size_t>(k - 1)] = idx;
  for (int i = k - 1; i >= 1; --i) {
    const PageInfo& parent = pages_[static_cast<size_t>(i) + 1]
                                   [static_cast<size_t>(idx)];
    const i64 rank = map_.graph(i + 1).edge_rank(
        path[static_cast<size_t>(i - 1)], path[static_cast<size_t>(i)]);
    idx = parent.first_child + rank;
    MP_ASSERT(pages_[static_cast<size_t>(i)][static_cast<size_t>(idx)]
                      .module == path[static_cast<size_t>(i - 1)],
              "page descent mismatch at level " << i);
    loc.page[static_cast<size_t>(i - 1)] = idx;
  }

  const PageInfo& leaf = pages_[1][static_cast<size_t>(idx)];
  const i64 j = map_.graph(1).edge_rank(map_.variable_of(copy),
                                        path[0]);
  loc.node = leaf.region.at_snake(j % leaf.region.size());
  loc.slot = j / leaf.region.size();
  return loc;
}

i64 Placement::page_at(u64 copy, int level) const {
  const int k = map_.params().k();
  MP_REQUIRE(1 <= level && level <= k, "page level " << level);
  LevelPath path;
  map_.module_path_into(copy, path);
  i64 idx = path[static_cast<size_t>(k - 1)];
  for (int i = k - 1; i >= level; --i) {
    const PageInfo& parent = pages_[static_cast<size_t>(i) + 1]
                                   [static_cast<size_t>(idx)];
    idx = parent.first_child + map_.graph(i + 1).edge_rank(
                                   path[static_cast<size_t>(i - 1)],
                                   path[static_cast<size_t>(i)]);
  }
  return idx;
}

void Placement::walk_copies(i64 var, i32* pages, i32* holders) const {
  MP_REQUIRE(0 <= var && var < map_.params().num_vars(),
             "variable " << var << " outside shared memory");
  LevelPath ranks{};
  walk_subtree(0, var, 0, ranks, pages, holders);
}

void Placement::walk_subtree(int depth, i64 u, i64 code, LevelPath& ranks,
                             i32* pages, i32* holders) const {
  const HmosParams& p = map_.params();
  const int k = p.k();
  if (depth < k) {
    // Children: u's q neighbors in G_{depth+1}, digit c_{depth+1} = c. The
    // edge from u has the same rank in every child's neighbor order.
    const BibdSubgraph& g = map_.graph(depth + 1);
    const i64 stride = ipow(p.q(), depth);
    ranks[static_cast<size_t>(depth)] = g.input_rank(u);
    for (i64 c = 0; c < p.q(); ++c) {
      walk_subtree(depth + 1, g.neighbor(u, c), code + c * stride, ranks,
                   pages, holders);
    }
    return;
  }
  // Leaf: the same page descent as locate(), from the level-k page (the
  // module u_k) down through the shared edge ranks.
  const i64 red = p.redundancy();
  i64 idx = u;
  pages[(k - 1) * red + code] = static_cast<i32>(idx);
  for (int i = k - 1; i >= 1; --i) {
    idx = pages_[static_cast<size_t>(i) + 1][static_cast<size_t>(idx)]
              .first_child +
          ranks[static_cast<size_t>(i)];
    pages[(i - 1) * red + code] = static_cast<i32>(idx);
  }
  const Region& leaf = pages_[1][static_cast<size_t>(idx)].region;
  const Coord x = leaf.at_snake(ranks[0] % leaf.size());
  holders[code] =
      static_cast<i32>(static_cast<i64>(x.r) * whole_.cols() + x.c);
}

}  // namespace meshpram

// Physical mapping of the HMOS onto the mesh (§3.3).
//
// k nested tessellations: the whole mesh splits into m_k level-k submeshes
// (one per level-k module); the submesh of a level-(i+1) page holding module
// u splits into deg(u) level-i submeshes, one per level-i page of a module
// contained in u; a level-1 page spreads its p_1-ish variable copies evenly
// over the t_1 processors of its submesh.
//
// A *page* is one replica of a module; it is identified by its index in the
// flat per-level page array. Page indices descend the copy tree: the level-i
// page of a copy is child number edge_rank(u_{i-1}, u_i) of its level-(i+1)
// page.
//
// When a region has fewer nodes than children (the paper's t_i < 1 regime,
// DESIGN.md §2.4), children become 1x1 regions assigned round-robin over the
// parent's snake order — several pages then share a processor.
#pragma once

#include <vector>

#include "hmos/memory_map.hpp"
#include "mesh/region.hpp"

namespace meshpram {

struct PageInfo {
  i64 module = -1;       ///< module id this page replicates
  i64 parent = -1;       ///< page index at level+1 (-1 at level k)
  i64 first_child = -1;  ///< page index at level-1 of child rank 0 (-1 at level 1)
  Region region;
};

struct CopyLoc {
  Coord node;      ///< processor storing the copy
  i64 slot = 0;    ///< within-node slot (several copies per node)
  LevelPath page;  ///< page[i-1] = level-i page index, i in [1,k]; no heap
};

class Placement {
 public:
  Placement(const MemoryMap& map, const Region& whole);

  const MemoryMap& map() const { return map_; }

  /// All level-i pages (i in [1, k]).
  const std::vector<PageInfo>& pages(int level) const;

  /// Physical location and page path of a copy; O(k * d) arithmetic.
  CopyLoc locate(u64 copy) const;

  /// Level-i page index of a copy. Cheaper than locate(): the descent stops
  /// at `level` and the leaf node is never computed.
  i64 page_at(u64 copy, int level) const;

  /// One walk down the copy tree T_v of variable `var` (§3.1): for every code
  /// c in [0, q^k), writes the level-i page of copy var * q^k + c to
  /// pages[(i-1) * q^k + c] (i in [1, k]) and the node storing it to
  /// holders[c], as a row-major node id (Mesh::node_id of locate().node).
  /// Each module and edge rank is computed once and shared by the copies
  /// below it: q + q^2 + ... + q^k neighbor queries and one rank query per
  /// internal tree node (an input has the same rank in all q of its outputs'
  /// neighbor orders), where q^k locate() calls pay k of each per copy.
  void walk_copies(i64 var, i32* pages, i32* holders) const;

  /// True if any level packs multiple pages per node (t_i < 1 degradation).
  bool degraded() const { return degraded_; }

 private:
  /// walk_copies below the tree node at `depth` with module `u`, reached
  /// through code digits summing to `code`; ranks[j] = rank of the edge into
  /// the depth-(j+1) node on the path.
  void walk_subtree(int depth, i64 u, i64 code, LevelPath& ranks, i32* pages,
                    i32* holders) const;

  const MemoryMap& map_;
  Region whole_;
  bool degraded_ = false;
  std::vector<std::vector<PageInfo>> pages_;  // [0] unused; [1..k]
};

}  // namespace meshpram

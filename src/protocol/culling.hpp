// Procedure CULLING (§3.2): parallel copy selection.
//
// Each of the n processors is in charge of (at most) one requested variable
// and starts from a minimal level-0 target set C_v^0. Iteration i = 1..k:
//
//   1. every processor emits one packet per currently selected copy, keyed
//      by the copy's level-i page; the mesh sorts and ranks the packets, and
//      the first tau_i = 2 q^k n^{1-1/2^i} copies of every page are MARKED
//      (greedy marking — a page with unmarked copies is saturated);
//   2. packets return their mark bit to the owners;
//   3. every owner extracts a minimal level-i target set, preferring marked
//      copies (set M_v^i) and adding unmarked ones (set S_v^i) only when M
//      alone contains no level-i target set.
//
// Theorem 3 then guarantees <= 4 q^k n^{1-1/2^i} selected copies per level-i
// page — measured by CullingStats and asserted by tests/test_protocol.cpp.
//
// Before iteration 1 every requesting processor walks its variable's copy
// tree once (Placement::walk_copies) into the per-step CopyTable; the
// iterations' page keys, the degraded-mode availability check and the
// access stages after CULLING all read their addresses from it.
#pragma once

#include <vector>

#include "hmos/placement.hpp"
#include "mesh/machine.hpp"
#include "protocol/target_set.hpp"
#include "routing/meshsort.hpp"

namespace meshpram {

struct CullingStats {
  i64 steps = 0;  ///< total mesh steps charged to copy selection
  /// max_page_load[i-1]: after iteration i, the largest number of selected
  /// copies in any level-i page (to compare against theorem3_bound(i)).
  std::vector<i64> max_page_load;
  std::vector<i64> bound;  ///< theorem3_bound(i), aligned with the above
  i64 selected_copies = 0; ///< |union of final target sets|
  // Degraded-mode accounting (all zero without dead memory modules):
  i64 copies_lost = 0;        ///< requested copies on dead modules
  i64 requests_degraded = 0;  ///< served at degradation level > 0
  i64 requests_failed = 0;    ///< no surviving target set at any level
};

/// The per-step copy table: row `node` holds the level-1..k pages and the
/// holder node of all q^k copies of processor `node`'s requested variable,
/// from one Placement::walk_copies. Culling::run rebuilds the rows of the
/// processors requesting in this step; rows of idle processors are never
/// read. The storage is reused across steps, but no step reads a row it did
/// not rebuild, so the table is per-step scratch and not memory-map state.
class CopyTable {
 public:
  /// Sizes the storage for `n` processors (a no-op once sized).
  void resize(const Placement& placement, i64 n);

  /// Walks `var`'s copy tree into row `node`. Rows are disjoint: distinct
  /// nodes may be filled concurrently.
  void fill(const Placement& placement, i32 node, i64 var);

  /// Level-`level` page / holder node of copy `code` of row `node`.
  i64 page(i32 node, i64 code, int level) const {
    return row(node)[(level - 1) * red_ + code];
  }
  i32 holder(i32 node, i64 code) const { return row(node)[k_ * red_ + code]; }

  /// The same for the copy a request packet addresses: code
  /// copy - var * q^k in its origin's row.
  i64 page(const Packet& p, int level) const {
    return entry(p)[(level - 1) * red_];
  }
  i32 holder(const Packet& p) const { return entry(p)[k_ * red_]; }

 private:
  const i32* row(i32 node) const {
    return rows_.data() + static_cast<i64>(node) * (k_ + 1) * red_;
  }
  const i32* entry(const Packet& p) const {
    MP_ASSERT(vars_[static_cast<size_t>(p.origin)] == p.var,
              "copy table row " << p.origin << " holds variable "
                                << vars_[static_cast<size_t>(p.origin)]
                                << ", not " << p.var);
    return row(p.origin) +
           static_cast<i64>(p.copy -
                            static_cast<u64>(p.var) * static_cast<u64>(red_));
  }

  int k_ = 0;
  i64 red_ = 0;
  /// Node-major rows of (k+1) * q^k entries: the level-1..k pages, then the
  /// holders, each indexed by code.
  std::vector<i32> rows_;
  std::vector<i64> vars_;  ///< variable each row was last filled for
};

class Culling {
 public:
  Culling(Mesh& mesh, const Placement& placement, SortOptions sort_opts = {});

  /// request_vars[node] = variable the processor wants, or -1 for idle.
  /// Returns per-node selected copy codes (empty for idle processors).
  ///
  /// Degraded mode: when the mesh carries a fault plan with dead memory
  /// modules, copies on dead modules are excluded up front and each affected
  /// variable is served at the smallest degradation level d for which its
  /// surviving copies still contain a level-d target set (iteration i then
  /// extracts at level max(i, d)). Level k is the ordinary target set, so
  /// consistency (quorum intersection) survives at every degradation level —
  /// only the congestion bounds of Theorem 3 weaken (DESIGN.md §10). A
  /// variable with no surviving level-k target set is reported through
  /// `request_ok` (cell set to 0) and stats instead of asserting; its
  /// selection stays empty.
  std::vector<std::vector<i64>> run(const std::vector<i64>& request_vars,
                                    CullingStats* stats,
                                    std::vector<char>* request_ok = nullptr);

  /// The copy table of the last run(): valid for the rest of that step.
  const CopyTable& copies() const { return copies_; }

 private:
  Mesh& mesh_;
  const Placement& placement_;
  SortOptions sort_opts_;
  TargetSelector selector_;
  CopyTable copies_;
  /// Theorem-3 instrumentation: selected copies per level-i page, all zero
  /// between iterations (each count is reset after its maximum is taken).
  std::vector<i32> page_load_;
};

}  // namespace meshpram

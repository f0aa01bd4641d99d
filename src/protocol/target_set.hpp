// Target-set machinery on the copy tree T_v (§3.1 Definition 2, §3.2).
//
// The q^k copies of a variable are the leaves of a complete q-ary tree of
// depth k; a copy is addressed by its child-choice code (c_1, ..., c_k)
// packed as sum c_i q^{i-1} (c_1 = child of the root). Definition 2: a leaf
// is accessed if reached; an internal node is accessed if a MAJORITY
// (floor(q/2)+1) of its children are accessed. A target set is a leaf set
// that accesses the root.
//
// CULLING works with *level-i target sets*: internal nodes at tree levels
// >= i need MORE than a majority (floor(q/2)+2) of extensively accessed
// children; below level i plain majority suffices. A minimal level-i target
// set therefore has (floor(q/2)+1)^i * (floor(q/2)+2)^{k-i} leaves; at i = k
// it is an ordinary minimal target set.
//
// select() extracts a minimal level-i target set from a candidate leaf set
// while MINIMIZING the number of chosen leaves outside `marked` — exactly
// the "extract from M if possible, otherwise add a cheapest S" step of the
// CULLING pseudo-code. It is a bottom-up DP over flat per-depth arrays: the
// nodes at tree depth d are the q^d digit prefixes, and the children of
// prefix p are p + c q^d (c in [0, q)) one depth below. Every node keeps its
// cost (chosen leaves outside `marked`, -1 if infeasible) and a bitmask of
// the children it chose: its `need` cheapest feasible children, the lower
// digit first on equal cost. The chosen leaves are then read out top-down
// from the root's mask.
#pragma once

#include <vector>

#include "util/math.hpp"

namespace meshpram {

class TargetSelector {
 public:
  TargetSelector(i64 q, int k);

  i64 q() const { return q_; }
  int k() const { return k_; }
  i64 num_codes() const { return codes_; }
  i64 majority() const { return q_ / 2 + 1; }
  i64 extensive() const { return q_ / 2 + 2; }

  struct Selection {
    bool feasible = false;
    std::vector<i64> codes;  ///< chosen leaves (sorted)
    i64 unmarked = 0;        ///< chosen leaves outside `marked`
  };

  /// DP working storage, one entry per tree node (depth-major). Keep one per
  /// thread: select_into() sizes it on first use and allocates nothing after.
  struct Scratch {
    std::vector<i64> cost;    ///< -1 = infeasible
    std::vector<u64> chosen;  ///< internal nodes: bit c = child c chosen
  };

  /// Minimal level-`level` target set within `candidate` (bitmaps over
  /// [0, q^k)), minimizing |chosen \ marked|. level in [0, k].
  Selection select(int level, const std::vector<char>& candidate,
                   const std::vector<char>& marked) const;

  /// The same DP on raw q^k bitmaps. Returns |chosen \ marked| and overwrites
  /// `out` with the chosen leaves (`out` may alias `candidate`, or be null to
  /// test feasibility only); returns -1 and leaves `out` untouched when
  /// `candidate` holds no level-`level` target set.
  i64 select_into(int level, const char* candidate, const char* marked,
                  Scratch& scratch, char* out) const;

  /// Minimal level-`level` target set assuming all copies are available.
  std::vector<i64> initial(int level) const;

  /// Definition 2: does `leaves` access the root of T_v?
  bool is_target_set(const std::vector<char>& leaves) const;

  /// Extensive-access check: is `leaves` a level-`level` target set?
  bool is_level_target_set(const std::vector<char>& leaves, int level) const;

  /// Quorum property behind consistency: any two target sets intersect.
  /// (Exposed for the property tests.)
  static bool intersects(const std::vector<i64>& a, const std::vector<i64>& b);

 private:
  /// Sets out[code] for every leaf chosen below the node `prefix` at `depth`.
  void mark_chosen(const u64* chosen, int depth, i64 prefix, char* out) const;

  i64 q_;
  int k_;
  i64 codes_;
  std::vector<i64> qpow_;
  /// offset_[d] = index of depth d's first node in the flat arrays.
  std::vector<i64> offset_;
};

}  // namespace meshpram

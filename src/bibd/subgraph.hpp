// Balanced input-subset subgraph of a (q^d, q)-BIBD — the paper's Appendix.
//
// Given m with 1 <= m <= f(d) = q^{d-1}(q^d - 1)/(q - 1), selects m inputs
// V = V1 ∪ V2 ∪ V3 (Appendix, eq. (11)) so that every output keeps degree
//   ρ in { floor(q m / q^d), ceil(q m / q^d) }            (Theorem 5)
// while every selected input keeps its full degree q. This is the graph used
// between consecutive HMOS levels: inputs are level-(i-1) modules (or the
// variables at level 0), outputs are level-i modules.
//
// Subgraph input indices live in [0, m) with the canonical layout:
//   V1: blocks h = 0..l-1 (all A, all B), block h at offset
//       q^{d-1}(q^h - 1)/(q - 1), position A·q^h + B within the block;
//   V2: h = l, B < w: offset base_l, position A·w + B;
//   V3: h = l, B = w, A < z: offset base_l + q^{d-1}·w, position A.
// Neighbors of an output u are canonically ordered by (h, B); within the
// subgraph this order is contiguous, so edge ranks stay O(d)-computable.
#pragma once

#include <vector>

#include "bibd/bibd.hpp"

namespace meshpram {

class BibdSubgraph {
 public:
  /// Subgraph of the (q^d, q)-BIBD with m selected inputs.
  BibdSubgraph(i64 q, int d, i64 m);

  i64 q() const { return bibd_.q(); }
  int d() const { return bibd_.d(); }
  i64 num_inputs() const { return m_; }
  i64 num_outputs() const { return bibd_.num_outputs(); }

  /// Output degree bounds of Theorem 5.
  i64 min_output_degree() const { return rho_floor_; }
  i64 max_output_degree() const { return rho_ceil_; }

  /// Exact degree of output u (either min_ or max_output_degree()).
  i64 output_degree(i64 u) const;

  /// The x-th neighbor (x in [0, q)) of subgraph input v.
  i64 neighbor(i64 v, i64 x) const;
  std::vector<i64> neighbors(i64 v) const;

  /// The subgraph input at rank r among output u's surviving neighbors
  /// (r in [0, output_degree(u))).
  i64 output_neighbor(i64 u, i64 r) const;

  /// Rank of edge (v, u) among u's surviving neighbors; O(d).
  i64 edge_rank(i64 v, i64 u) const;

  /// Rank of input v among the surviving neighbors of each of its q outputs:
  /// the same in all of them (Bibd::input_rank), so it equals
  /// edge_rank(v, u) for every neighbor u. O(d), no adjacency check.
  i64 input_rank(i64 v) const { return bibd_.input_rank(to_full(v)); }

  bool adjacent(i64 v, i64 u) const;

  /// Access to the underlying full design (for tests).
  const Bibd& full() const { return bibd_; }

  /// Appendix decomposition parameters (exposed for tests):
  /// m = q^{d-1}((q^l - 1)/(q - 1) + w) + z.
  int l() const { return l_; }
  i64 w() const { return w_; }
  i64 z() const { return z_; }

 private:
  /// Translates a subgraph input index in [0, m) to a full-BIBD input index.
  i64 to_full(i64 v) const;
  /// Translates a full-BIBD input index to a subgraph index, or -1 if the
  /// input was not selected.
  i64 from_full(i64 w_full) const;
  /// True if output u is adjacent to the V3 input at (h = l, B = w).
  bool has_v3_edge(i64 u) const;

  Bibd bibd_;
  i64 m_;
  i64 qd1_;     // q^{d-1}, hoisted off the per-query translation path
  int l_;       // largest l with q^{d-1}(q^l-1)/(q-1) <= m
  i64 w_;       // full B-columns kept at h = l
  i64 z_;       // partial column: inputs with B = w and A < z
  i64 base_l_;  // |V1| = q^{d-1}(q^l - 1)/(q - 1)
  i64 rho_floor_;
  i64 rho_ceil_;
};

}  // namespace meshpram

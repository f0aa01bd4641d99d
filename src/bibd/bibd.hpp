// The explicit (q^d, q)-Balanced Incomplete Block Design of [PP93a], as used
// by the paper (Definition 1 and Appendix).
//
// The design is a bipartite graph G = (W, U; E):
//   * outputs U = d-dimensional vectors over GF(q), encoded as integers in
//     [0, q^d) whose base-q digits are the vector entries;
//   * inputs W = pairs Φ(h, A, B) with h in [0, d), A in [0, q^{d-1}),
//     B in [0, q^h), encoding the vector pair
//        (a_{d-2}, ..., a_h, 0, a_{h-1}, ..., a_0)
//        (0,      ..., 0,   1, b_{h-1}, ..., b_0);
//   * the input Φ(h, A, B) is adjacent, for every x in GF(q), to the output
//        (a_{d-2}, ..., a_h, x, a_{h-1} + x·b_{h-1}, ..., a_0 + x·b_0),
//     all arithmetic in GF(q).
//
// Properties (tested in tests/test_bibd.cpp):
//   * every input has degree q;
//   * every output has degree (q^d - 1)/(q - 1);
//   * any two distinct outputs share exactly one input (λ = 1), which gives
//     the strong expansion property of Lemma 1;
//   * all incidence queries run in O(d) time with O(1) state — this is what
//     makes the paper's memory map "fully constructive" and space-efficient.
//
// Input index encoding (canonical, used by the whole HMOS): inputs are laid
// out in blocks by h = 0, 1, ..., d-1; block h starts at offset
// q^{d-1}(q^h - 1)/(q - 1) and holds A·q^h + B at position A·q^h + B.
#pragma once

#include <vector>

#include "gf/gf.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace meshpram {

class Bibd {
 public:
  /// Constructs the (q^d, q)-BIBD. q must be a prime power >= 2, d >= 1.
  Bibd(i64 q, int d);

  i64 q() const { return q_; }
  int d() const { return d_; }

  /// |U| = q^d.
  i64 num_outputs() const { return num_outputs_; }
  /// |W| = q^{d-1}(q^d - 1)/(q - 1).
  i64 num_inputs() const { return num_inputs_; }
  /// Degree of every input node: q.
  i64 input_degree() const { return q_; }
  /// Degree of every output node: (q^d - 1)/(q - 1).
  i64 output_degree() const { return output_degree_; }

  /// The Φ(h, A, B) triple of the paper's Appendix.
  struct Phi {
    int h;
    i64 A;
    i64 B;
  };

  // Inline: decode_input sits under neighbor/adjacent on the protocol's hot
  // path (tens of millions of calls per simulated step). The h-scan is O(d)
  // over a vector that fits in one cache line for the paper's configs.
  Phi decode_input(i64 w) const {
    MP_REQUIRE(0 <= w && w < num_inputs_,
               "input index " << w << " outside [0, " << num_inputs_ << ')');
    int h = 0;
    while (w >= block_offset_[static_cast<size_t>(h) + 1]) ++h;
    const i64 local = w - block_offset_[static_cast<size_t>(h)];
    Phi phi;
    phi.h = h;
    phi.A = local / qpow_[static_cast<size_t>(h)];
    phi.B = local % qpow_[static_cast<size_t>(h)];
    return phi;
  }
  i64 encode_input(const Phi& phi) const;

  /// The output adjacent to input w via field element x (x in [0, q)).
  i64 neighbor(i64 w, i64 x) const;

  /// All q outputs adjacent to input w, indexed by x.
  std::vector<i64> neighbors(i64 w) const;

  /// The input at rank r (r in [0, output_degree())) among the neighbors of
  /// output u. Neighbors of u are canonically ordered by (h, B) lexicographic,
  /// i.e. rank = (q^h - 1)/(q - 1) + B.
  i64 output_neighbor(i64 u, i64 r) const;

  /// Rank of the edge (w, u) in u's canonical neighbor order. Throws
  /// InternalError if (w, u) is not an edge.
  i64 edge_rank(i64 w, i64 u) const;

  /// Rank of input w in the canonical neighbor order of each of its q
  /// outputs: (q^h - 1)/(q - 1) + B depends on w alone, so
  /// edge_rank(w, u) == input_rank(w) for every neighbor u of w.
  i64 input_rank(i64 w) const;

  /// The unique input adjacent to both distinct outputs u1 and u2 (λ = 1).
  i64 common_input(i64 u1, i64 u2) const;

  /// True if input w and output u are adjacent.
  bool adjacent(i64 w, i64 u) const;

 private:
  /// Base-q digit j of v. Inline for the same reason as decode_input.
  i64 digit(i64 v, int j) const {
    return (v / qpow_[static_cast<size_t>(j)]) % q_;
  }

  /// neighbor() with q fixed at compile time, so every base-q divmod
  /// compiles to a multiply-shift instead of a hardware divide. The generic
  /// digit() path costs ~8 i64 divisions per call, and neighbor dominates
  /// the protocol's module-path computations.
  template <i64 Q>
  i64 neighbor_fixed(i64 w, i64 x) const;

  const GF& field_;
  i64 q_;
  int d_;
  i64 num_outputs_;
  i64 num_inputs_;
  i64 output_degree_;
  std::vector<i64> block_offset_;  // block_offset_[h] = start of block h
  std::vector<i64> qpow_;          // qpow_[j] = q^j, j in [0, d]
};

}  // namespace meshpram

#include "bibd/bibd.hpp"

#include "util/error.hpp"

namespace meshpram {

Bibd::Bibd(i64 q, int d) : field_(GF::get(q)), q_(q), d_(d) {
  MP_REQUIRE(d >= 1, "BIBD needs d >= 1, got " << d);
  qpow_.resize(static_cast<size_t>(d) + 1);
  qpow_[0] = 1;
  for (int j = 1; j <= d; ++j) qpow_[static_cast<size_t>(j)] = qpow_[static_cast<size_t>(j - 1)] * q;
  num_outputs_ = qpow_[static_cast<size_t>(d)];
  num_inputs_ = bibd_input_count(q, d);
  output_degree_ = (num_outputs_ - 1) / (q - 1);
  block_offset_.resize(static_cast<size_t>(d) + 1);
  block_offset_[0] = 0;
  for (int h = 0; h < d; ++h) {
    // Block h holds q^{d-1} * q^h inputs.
    block_offset_[static_cast<size_t>(h) + 1] =
        block_offset_[static_cast<size_t>(h)] + qpow_[static_cast<size_t>(d - 1)] * qpow_[static_cast<size_t>(h)];
  }
  MP_ASSERT(block_offset_[static_cast<size_t>(d)] == num_inputs_,
            "input block layout inconsistent");
}

i64 Bibd::encode_input(const Phi& phi) const {
  MP_REQUIRE(0 <= phi.h && phi.h < d_, "Phi.h = " << phi.h);
  MP_REQUIRE(0 <= phi.A && phi.A < qpow_[static_cast<size_t>(d_ - 1)],
             "Phi.A = " << phi.A);
  MP_REQUIRE(0 <= phi.B && phi.B < qpow_[static_cast<size_t>(phi.h)],
             "Phi.B = " << phi.B);
  return block_offset_[static_cast<size_t>(phi.h)] +
         phi.A * qpow_[static_cast<size_t>(phi.h)] + phi.B;
}

template <i64 Q>
i64 Bibd::neighbor_fixed(i64 w, i64 x) const {
  MP_REQUIRE(0 <= w && w < num_inputs_,
             "input index " << w << " outside [0, " << num_inputs_ << ')');
  int h = 0;
  while (w >= block_offset_[static_cast<size_t>(h) + 1]) ++h;
  i64 local = w - block_offset_[static_cast<size_t>(h)];
  // local = A·q^h + B with B < q^h, so its base-q digits are B's digits in
  // positions [0, h) followed by A's digits in positions [h, h + d - 1).
  // One divmod chain replaces the two divisions digit() pays per digit.
  i64 dig[126];  // h + d - 1 <= 2d - 2, and q^{2d-2} <= |W|·q fits in i64
  const int nd = h + d_ - 1;
  for (int j = 0; j < nd; ++j) {
    dig[j] = local % Q;
    local /= Q;
  }
  i64 u = 0;
  // Top digits j in (h, d-1]: a_{j-1}.
  for (int j = d_ - 1; j > h; --j) u = u * Q + dig[h + j - 1];
  // Digit h: x.
  u = u * Q + x;
  // Low digits j in [0, h): a_j + x·b_j.
  for (int j = h - 1; j >= 0; --j) {
    u = u * Q + field_.add(dig[h + j], field_.mul(x, dig[j]));
  }
  return u;
}

i64 Bibd::neighbor(i64 w, i64 x) const {
  MP_REQUIRE(0 <= x && x < q_, "field element " << x);
  // Fixed-q bodies let the compiler strength-reduce every base-q divmod;
  // the switch covers the small prime powers the paper's configs use.
  switch (q_) {
    case 2: return neighbor_fixed<2>(w, x);
    case 3: return neighbor_fixed<3>(w, x);
    case 4: return neighbor_fixed<4>(w, x);
    case 5: return neighbor_fixed<5>(w, x);
    case 7: return neighbor_fixed<7>(w, x);
    case 8: return neighbor_fixed<8>(w, x);
    case 9: return neighbor_fixed<9>(w, x);
    default: break;
  }
  const Phi phi = decode_input(w);
  // Digits of A are (a_{d-2}, ..., a_0); digits of B are (b_{h-1}, ..., b_0).
  i64 u = 0;
  // Top digits j in (h, d-1]: a_{j-1}.
  for (int j = d_ - 1; j > phi.h; --j) {
    u = u * q_ + digit(phi.A, j - 1);
  }
  // Digit h: x.
  u = u * q_ + x;
  // Low digits j in [0, h): a_j + x * b_j.
  for (int j = phi.h - 1; j >= 0; --j) {
    u = u * q_ + field_.add(digit(phi.A, j), field_.mul(x, digit(phi.B, j)));
  }
  return u;
}

std::vector<i64> Bibd::neighbors(i64 w) const {
  std::vector<i64> out;
  out.reserve(static_cast<size_t>(q_));
  for (i64 x = 0; x < q_; ++x) out.push_back(neighbor(w, x));
  return out;
}

i64 Bibd::output_neighbor(i64 u, i64 r) const {
  MP_REQUIRE(0 <= u && u < num_outputs_, "output index " << u);
  MP_REQUIRE(0 <= r && r < output_degree_, "neighbor rank " << r);
  // Find h with (q^h - 1)/(q - 1) <= r < (q^{h+1} - 1)/(q - 1).
  int h = 0;
  i64 base = 0;
  while (base + qpow_[static_cast<size_t>(h)] <= r) {
    base += qpow_[static_cast<size_t>(h)];
    ++h;
  }
  const i64 B = r - base;
  const i64 x = digit(u, h);
  // Reconstruct A: a_j = u_j - x*b_j for j < h; a_j = u_{j+1} for j >= h.
  i64 A = 0;
  for (int j = d_ - 2; j >= h; --j) A = A * q_ + digit(u, j + 1);
  for (int j = h - 1; j >= 0; --j) {
    const i64 bj = (B / qpow_[static_cast<size_t>(j)]) % q_;
    A = A * q_ + field_.sub(digit(u, j), field_.mul(x, bj));
  }
  return encode_input({h, A, B});
}

i64 Bibd::edge_rank(i64 w, i64 u) const {
  MP_ASSERT(adjacent(w, u),
            "edge_rank: (" << w << ", " << u << ") is not an edge");
  return input_rank(w);
}

i64 Bibd::input_rank(i64 w) const {
  const Phi phi = decode_input(w);
  return (qpow_[static_cast<size_t>(phi.h)] - 1) / (q_ - 1) + phi.B;
}

bool Bibd::adjacent(i64 w, i64 u) const {
  const Phi phi = decode_input(w);
  return neighbor(w, digit(u, phi.h)) == u;
}

i64 Bibd::common_input(i64 u1, i64 u2) const {
  MP_REQUIRE(u1 != u2, "common_input of identical outputs");
  MP_REQUIRE(0 <= u1 && u1 < num_outputs_ && 0 <= u2 && u2 < num_outputs_,
             "output index out of range");
  // h = most significant digit where u1 and u2 differ.
  int h = d_ - 1;
  while (digit(u1, h) == digit(u2, h)) --h;
  const i64 x1 = digit(u1, h);
  const i64 x2 = digit(u2, h);
  // For j < h: u1_j = a_j + x1 b_j, u2_j = a_j + x2 b_j
  //   => b_j = (u1_j - u2_j)/(x1 - x2), a_j = u1_j - x1 b_j.
  const i64 dx_inv = field_.inv(field_.sub(x1, x2));
  i64 A = 0;
  i64 B = 0;
  for (int j = d_ - 2; j >= h; --j) A = A * q_ + digit(u1, j + 1);
  std::vector<i64> a_low(static_cast<size_t>(h)), b_low(static_cast<size_t>(h));
  for (int j = 0; j < h; ++j) {
    const i64 bj =
        field_.mul(field_.sub(digit(u1, j), digit(u2, j)), dx_inv);
    b_low[static_cast<size_t>(j)] = bj;
    a_low[static_cast<size_t>(j)] = field_.sub(digit(u1, j), field_.mul(x1, bj));
  }
  for (int j = h - 1; j >= 0; --j) {
    A = A * q_ + a_low[static_cast<size_t>(j)];
    B = B * q_ + b_low[static_cast<size_t>(j)];
  }
  const i64 w = encode_input({h, A, B});
  MP_ASSERT(adjacent(w, u1) && adjacent(w, u2),
            "common_input reconstruction failed");
  return w;
}

}  // namespace meshpram

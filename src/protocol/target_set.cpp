#include "protocol/target_set.hpp"

#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace meshpram {

TargetSelector::TargetSelector(i64 q, int k) : q_(q), k_(k) {
  MP_REQUIRE(q >= 3, "target sets need q >= 3, got " << q);
  MP_REQUIRE(q <= 64, "child masks hold at most 64 children, got q=" << q);
  MP_REQUIRE(1 <= k && k <= 6, "tree depth k=" << k);
  codes_ = ipow(q, k);
  qpow_.resize(static_cast<size_t>(k) + 1);
  offset_.resize(static_cast<size_t>(k) + 2);
  for (int i = 0; i <= k; ++i) {
    qpow_[static_cast<size_t>(i)] = ipow(q, i);
    offset_[static_cast<size_t>(i) + 1] =
        offset_[static_cast<size_t>(i)] + qpow_[static_cast<size_t>(i)];
  }
}

i64 TargetSelector::select_into(int level, const char* candidate,
                                const char* marked, Scratch& scratch,
                                char* out) const {
  MP_REQUIRE(0 <= level && level <= k_, "target level " << level);
  scratch.cost.resize(static_cast<size_t>(offset_.back()));
  scratch.chosen.resize(static_cast<size_t>(offset_[static_cast<size_t>(k_)]));
  i64* cost = scratch.cost.data();
  u64* chosen = scratch.chosen.data();

  i64* leaf = cost + offset_[static_cast<size_t>(k_)];
  for (i64 code = 0; code < codes_; ++code) {
    leaf[code] = candidate[code] == 0 ? -1 : (marked[code] != 0 ? 0 : 1);
  }
  for (int d = k_ - 1; d >= 0; --d) {
    const i64 need = d >= level ? extensive() : majority();
    const i64 width = qpow_[static_cast<size_t>(d)];
    const i64* kid = cost + offset_[static_cast<size_t>(d) + 1];
    i64* node = cost + offset_[static_cast<size_t>(d)];
    u64* mask = chosen + offset_[static_cast<size_t>(d)];
    for (i64 p = 0; p < width; ++p) {
      // Take the `need` cheapest feasible children, lower digit first on
      // equal cost.
      u64 taken = 0;
      i64 sum = 0;
      i64 got = 0;
      for (; got < need; ++got) {
        i64 best = -1;
        i64 best_cost = 0;
        for (i64 c = 0; c < q_; ++c) {
          const i64 v = kid[p + c * width];
          if (v < 0 || ((taken >> c) & 1) != 0) continue;
          if (best < 0 || v < best_cost) {
            best = c;
            best_cost = v;
          }
        }
        if (best < 0) break;
        taken |= u64{1} << best;
        sum += best_cost;
      }
      node[p] = got == need ? sum : -1;
      mask[p] = taken;
    }
  }
  if (cost[0] < 0) return -1;
  if (out != nullptr) {
    std::memset(out, 0, static_cast<size_t>(codes_));
    mark_chosen(chosen, 0, 0, out);
  }
  return cost[0];
}

void TargetSelector::mark_chosen(const u64* chosen, int depth, i64 prefix,
                                 char* out) const {
  if (depth == k_) {
    out[prefix] = 1;
    return;
  }
  for (u64 m = chosen[offset_[static_cast<size_t>(depth)] + prefix]; m != 0;
       m &= m - 1) {
    const i64 c = std::countr_zero(m);
    mark_chosen(chosen, depth + 1,
                prefix + c * qpow_[static_cast<size_t>(depth)], out);
  }
}

TargetSelector::Selection TargetSelector::select(
    int level, const std::vector<char>& candidate,
    const std::vector<char>& marked) const {
  MP_REQUIRE(static_cast<i64>(candidate.size()) == codes_ &&
                 static_cast<i64>(marked.size()) == codes_,
             "bitmap size mismatch: " << candidate.size() << '/'
                                      << marked.size() << " vs " << codes_);
  Scratch scratch;
  std::vector<char> bits(static_cast<size_t>(codes_));
  Selection sel;
  const i64 unmarked =
      select_into(level, candidate.data(), marked.data(), scratch, bits.data());
  if (unmarked < 0) return sel;
  sel.feasible = true;
  sel.unmarked = unmarked;
  for (i64 code = 0; code < codes_; ++code) {
    if (bits[static_cast<size_t>(code)] != 0) sel.codes.push_back(code);
  }
  return sel;
}

std::vector<i64> TargetSelector::initial(int level) const {
  const std::vector<char> all(static_cast<size_t>(codes_), 1);
  const Selection sel = select(level, all, all);
  MP_ASSERT(sel.feasible, "full copy tree cannot satisfy level " << level);
  return sel.codes;
}

bool TargetSelector::is_target_set(const std::vector<char>& leaves) const {
  // Plain Definition 2 access = level-(k+1) rule: every internal node uses
  // plain majority. Passing level = k makes depth >= level only hold at
  // leaves, which have no children; use k_ (internal depths 0..k-1 < k).
  return is_level_target_set(leaves, k_);
}

bool TargetSelector::is_level_target_set(const std::vector<char>& leaves,
                                         int level) const {
  // A node is accessed iff enough of its children are: exactly the DP's
  // feasibility recursion with `leaves` as the candidates.
  MP_REQUIRE(static_cast<i64>(leaves.size()) == codes_, "bitmap size");
  Scratch scratch;
  return select_into(level, leaves.data(), leaves.data(), scratch, nullptr) >=
         0;
}

bool TargetSelector::intersects(const std::vector<i64>& a,
                                const std::vector<i64>& b) {
  // Both inputs sorted (select() sorts).
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace meshpram

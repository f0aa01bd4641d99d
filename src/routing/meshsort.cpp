#include "routing/meshsort.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include "mesh/node_order.hpp"
#include "mesh/parallel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

/// Compact sort record: the (key, copy, var) prefix decides every comparison
/// in the protocol's workloads without touching the payload arena (copy ids
/// are unique per packet there; var is the first payload tie field, carried
/// inline so the comparator has no dependent load). The handle indirects into
/// the payload for the rare deeper tie-break and for the final writeback.
/// 32 bytes — merging records instead of ~112-byte Packets is the main
/// bandwidth win of the sorter, and one record is exactly one AVX2 vector.
struct SortRec {
  u64 key;
  u64 copy;
  i64 var;
  u32 handle;
};
static_assert(sizeof(SortRec) == 32, "SortRec must stay one vector register");

SortRec make_hole_rec() { return SortRec{kHoleKey, 0, 0, ~0u}; }

bool is_hole_rec(const SortRec& r) { return r.key == kHoleKey; }

/// Strict total order: key first, then enough fields to make the order (and
/// therefore the sorted layout) canonical regardless of execution order —
/// the record form of tie(key, copy, var, origin, op, value).
bool rec_less(const std::vector<Packet>& payload, const SortRec& a,
              const SortRec& b) {
  if (a.key != b.key) return a.key < b.key;
  if (a.copy != b.copy) return a.copy < b.copy;
  if (a.key == kHoleKey) return false;  // holes compare equal
  if (a.var != b.var) return a.var < b.var;
  const Packet& pa = payload[a.handle];
  const Packet& pb = payload[b.handle];
  return std::tie(pa.origin, pa.op, pa.value) <
         std::tie(pb.origin, pb.op, pb.value);
}

/// Reusable per-thread sort storage (what RouteArena is to the router):
/// payload/record slabs shared by both modes, the Analytic sort's offsets,
/// bucketed records and key histograms, and the cached block-slot curve
/// table. One instance per thread; a thread runs at most one
/// sort_region call at a time (region tasks don't nest), so borrowing these
/// is race-free and every steady-state sort reuses the same allocations. The
/// Analytic sort's pool passes all work on the calling thread's instance.
struct SortBuffers {
  std::vector<Packet> payload;
  std::vector<SortRec> recs;
  std::vector<i64> offs;
  std::vector<SortRec> bucketed;
  std::vector<u32> hist;
  std::vector<u32> bucket_start;
  // Block-slot map (see BlockGrid): physical slot of each region-local
  // row-major block index, cached by geometry.
  std::vector<i32> slot_of_rm;
  std::vector<i32> curve_tmp;
  int curve_rows = 0;
  int curve_cols = 0;
  NodeOrderKind curve_kind = NodeOrderKind::RowMajor;
};

SortBuffers& sort_buffers() {
  static thread_local SortBuffers b;
  return b;
}

/// Per-worker merge scratch, reused across rounds and sort calls.
std::vector<SortRec>& merge_scratch() {
  static thread_local std::vector<SortRec> s;
  return s;
}

/// Working state: grid of fixed-capacity sorted blocks, local (row, col).
/// Blocks live in one strided record slab borrowed from the thread's
/// SortBuffers; under a Hilbert mesh order the blocks are placed along the
/// same curve (block (r,c) occupies [slot(r,c) * cap, ... + cap)), so a
/// row/column round streams the curve's contiguous runs. Packets sit still
/// in the payload arena until flush(). Rows are pairwise independent within
/// a row round (and columns within a column round), so rounds run
/// chunk-parallel over the pool with per-worker merge scratch — the merge
/// outcomes are data-dependent only, hence identical under any chunking.
class BlockGrid {
 public:
  BlockGrid(Mesh& mesh, const Region& region, SortBuffers& bufs)
      : mesh_(mesh), region_(region), rows_(region.rows()),
        cols_(region.cols()), payload_(bufs.payload), recs_(bufs.recs) {
    build_slot_map(bufs, mesh.order().kind());
    cap_ = std::max<i64>(1, mesh.max_load(region));
    payload_.clear();
    payload_.reserve(static_cast<size_t>(mesh.total_packets(region)));
    recs_.assign(static_cast<size_t>(rows_ * cols_ * cap_), make_hole_rec());
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) {
        SortRec* blk = at(r, c);
        auto& b = mesh.buf(mesh.node_id({region.r0() + r, region.c0() + c}));
        i64 j = 0;
        for (const Packet& p : b) {
          MP_REQUIRE(p.key != kHoleKey, "packet key collides with sentinel");
          blk[j++] = SortRec{p.key, p.copy, p.var,
                             static_cast<u32>(payload_.size())};
          payload_.push_back(p);
        }
        b.clear();  // keeps capacity (reuse contract)
        std::sort(blk, blk + cap_, [this](const SortRec& a, const SortRec& b2) {
          return rec_less(payload_, a, b2);
        });
      }
    }
    parallel_rounds_ = !in_parallel_worker() && execution_threads() > 1 &&
                       region.size() >= stripe_min_nodes();
  }

  i64 capacity() const { return cap_; }

  SortRec* at(int r, int c) {
    return recs_.data() + slot(r, c) * cap_;
  }
  const SortRec* at(int r, int c) const {
    return recs_.data() + slot(r, c) * cap_;
  }

  /// Merge-split comparator: after the call, `small` holds the cap smallest
  /// of the union and `large` the cap largest. Returns true if anything
  /// changed (used for early exit). The merge writes into pre-sized scratch
  /// (no push_back in the inner loop); ties take the `small` side, exactly
  /// like std::merge.
  bool merge_split(SortRec* small, SortRec* large,
                   std::vector<SortRec>& scratch) const {
    // Fast path: already in order (last of small <= first of large).
    if (!rec_less(payload_, large[0], small[cap_ - 1])) return false;
    scratch.resize(static_cast<size_t>(2 * cap_));
    SortRec* out = scratch.data();
    const SortRec* a = small;
    const SortRec* const ae = small + cap_;
    const SortRec* b = large;
    const SortRec* const be = large + cap_;
    while (a != ae && b != be) {
      if (rec_less(payload_, *b, *a)) {
        *out++ = *b++;
      } else {
        *out++ = *a++;
      }
    }
    out = std::copy(a, ae, out);
    std::copy(b, be, out);
    std::copy(scratch.data(), scratch.data() + cap_, small);
    std::copy(scratch.data() + cap_, scratch.data() + 2 * cap_, large);
    return true;
  }

  /// One odd-even round over all rows, pairing columns (c, c+1) with
  /// c % 2 == parity. Direction follows the snake: even local rows ascend
  /// west->east, odd rows east->west. Returns true if anything changed.
  bool row_round(int parity) {
    std::atomic<int> changed{0};
    run_lines(rows_, [&](i64 lb, i64 le) {
      std::vector<SortRec>& scratch = merge_scratch();
      bool ch = false;
      for (i64 r = lb; r < le; ++r) {
        const bool ascending = (r % 2 == 0);
        for (int c = parity; c + 1 < cols_; c += 2) {
          SortRec* left = at(static_cast<int>(r), c);
          SortRec* right = at(static_cast<int>(r), c + 1);
          ch |= ascending ? merge_split(left, right, scratch)
                          : merge_split(right, left, scratch);
        }
      }
      if (ch) changed.store(1, std::memory_order_relaxed);
    });
    return changed.load(std::memory_order_relaxed) != 0;
  }

  /// One odd-even round over all columns (top block keeps the smaller keys).
  bool col_round(int parity) {
    std::atomic<int> changed{0};
    run_lines(cols_, [&](i64 lb, i64 le) {
      std::vector<SortRec>& scratch = merge_scratch();
      bool ch = false;
      for (i64 c = lb; c < le; ++c) {
        for (int r = parity; r + 1 < rows_; r += 2) {
          ch |= merge_split(at(r, static_cast<int>(c)),
                            at(r + 1, static_cast<int>(c)), scratch);
        }
      }
      if (ch) changed.store(1, std::memory_order_relaxed);
    });
    return changed.load(std::memory_order_relaxed) != 0;
  }

  /// Full odd-even transposition pass along rows; returns rounds executed.
  i64 row_pass(bool* changed_any) {
    i64 rounds = 0;
    int quiet = 0;
    for (int t = 0; t < cols_ && quiet < 2; ++t) {
      const bool ch = row_round(t % 2);
      ++rounds;
      quiet = ch ? 0 : quiet + 1;
      *changed_any |= ch;
    }
    return rounds;
  }

  i64 col_pass(bool* changed_any) {
    i64 rounds = 0;
    int quiet = 0;
    for (int t = 0; t < rows_ && quiet < 2; ++t) {
      const bool ch = col_round(t % 2);
      ++rounds;
      quiet = ch ? 0 : quiet + 1;
      *changed_any |= ch;
    }
    return rounds;
  }

  bool snake_sorted() const {
    const SortRec* prev = nullptr;
    for (RegionCursor cur(region_); cur.valid(); cur.advance()) {
      const Coord x = cur.coord();
      const SortRec* blk = at(x.r - region_.r0(), x.c - region_.c0());
      if (prev != nullptr && rec_less(payload_, blk[0], *prev)) return false;
      // Strictly increasing keys need no further checks; the kernel returns
      // where that stops and the full comparator takes over from there.
      i64 j = simd::first_key_violation(blk, sizeof(SortRec), cap_);
      for (; j + 1 < cap_; ++j) {
        if (rec_less(payload_, blk[j + 1], blk[j])) return false;
      }
      prev = blk + cap_ - 1;
    }
    return true;
  }

  /// Writes blocks back to the mesh buffers, dropping hole sentinels; each
  /// packet moves exactly once (payload arena -> destination buffer).
  void flush() {
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) {
        auto& b =
            mesh_.buf(mesh_.node_id({region_.r0() + r, region_.c0() + c}));
        MP_ASSERT(b.empty(), "mesh buffer refilled during sort");
        const SortRec* blk = at(r, c);
        for (i64 j = 0; j < cap_; ++j) {
          if (!is_hole_rec(blk[j])) b.push_back(payload_[blk[j].handle]);
        }
      }
    }
  }

 private:
  /// Physical slot of region-local block (r, c); identity under row-major.
  i64 slot(int r, int c) const {
    const i64 rm = static_cast<i64>(r) * cols_ + c;
    return slot_map_ == nullptr ? rm : (*slot_map_)[static_cast<size_t>(rm)];
  }

  void build_slot_map(SortBuffers& bufs, NodeOrderKind kind) {
    if (kind == NodeOrderKind::RowMajor) {
      slot_map_ = nullptr;
      return;
    }
    if (bufs.curve_rows != rows_ || bufs.curve_cols != cols_ ||
        bufs.curve_kind != kind) {
      bufs.curve_rows = rows_;
      bufs.curve_cols = cols_;
      bufs.curve_kind = kind;
      fill_curve_order(rows_, cols_, kind, bufs.curve_tmp);
      bufs.slot_of_rm.assign(bufs.curve_tmp.size(), 0);
      for (size_t s = 0; s < bufs.curve_tmp.size(); ++s) {
        bufs.slot_of_rm[static_cast<size_t>(bufs.curve_tmp[s])] =
            static_cast<i32>(s);
      }
    }
    slot_map_ = &bufs.slot_of_rm;
  }

  /// Runs fn(begin, end) over [0, lines) — chunked on the pool when the
  /// region qualified at construction, one serial chunk otherwise.
  void run_lines(int lines, const std::function<void(i64, i64)>& fn) {
    if (parallel_rounds_) {
      execution_pool().for_each_chunk(lines, 1, fn);
    } else {
      fn(0, lines);
    }
  }

  Mesh& mesh_;
  Region region_;
  int rows_;
  int cols_;
  i64 cap_ = 1;
  bool parallel_rounds_ = false;
  std::vector<Packet>& payload_;
  std::vector<SortRec>& recs_;
  const std::vector<i32>* slot_map_ = nullptr;
};

int shear_phases(int rows) {
  int p = 1;
  int covered = 1;
  while (covered < rows) {
    covered *= 2;
    ++p;
  }
  return p;  // ceil(log2(rows)) + 1
}

}  // namespace

i64 shearsort_step_bound(const Region& region, i64 capacity) {
  const i64 phases = shear_phases(region.rows());
  return capacity *
         (phases * (region.rows() + region.cols()) + region.cols());
}

bool region_sorted(const Mesh& mesh, const Region& region) {
  const Packet* prev = nullptr;
  bool saw_gap = false;
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    const auto& b = mesh.buf(cur.id());
    if (b.empty()) {
      saw_gap = true;
      continue;
    }
    if (saw_gap) return false;  // not packed at the front
    for (const Packet& p : b) {
      if (prev != nullptr && p.key < prev->key) return false;
      prev = &p;
    }
  }
  return true;
}

namespace {

const telemetry::Label kSortRegion = telemetry::intern("sort.region");
const telemetry::Label kDrain = telemetry::intern("mesh.drain");

/// Below this many packets the Analytic sort orders its records with one
/// std::sort on the calling thread.
constexpr size_t kSmallSort = 4096;

/// Snake positions per chunk of the Analytic gather and scatter.
constexpr i64 kPosGrain = 64;

void atomic_min(std::atomic<u64>& a, u64 v) {
  u64 cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v)) {
  }
}

void atomic_max(std::atomic<u64>& a, u64 v) {
  u64 cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v)) {
  }
}

/// Key buckets of at least this many records are ordered by a radix over
/// their copy ids instead of std::sort.
constexpr size_t kRadixBucket = 48;

/// Orders one key bucket b[0, len) by rec_less. Large buckets take a stable
/// LSD byte radix over the copy bytes that vary within the bucket, with
/// `tmp` (len records) as the ping-pong buffer, and then order the rare runs
/// of equal copy with the full comparator; small buckets take std::sort.
void order_bucket(SortRec* b, size_t len, SortRec* tmp,
                  const std::vector<Packet>& payload) {
  // Keys are equal within a bucket: copy decides unless it ties.
  const auto cmp = [&payload](const SortRec& x, const SortRec& y) {
    return x.copy != y.copy ? x.copy < y.copy : rec_less(payload, x, y);
  };
  if (len < kRadixBucket) {
    std::sort(b, b + len, cmp);
    return;
  }
  u64 vary = 0;
  for (size_t i = 1; i < len; ++i) vary |= b[i].copy ^ b[0].copy;
  SortRec* src = b;
  SortRec* dst = tmp;
  u32 hist[256];
  for (int shift = 0; shift < 64; shift += 8) {
    if (((vary >> shift) & 0xff) == 0) continue;
    std::fill(hist, hist + 256, 0u);
    for (size_t i = 0; i < len; ++i) ++hist[(src[i].copy >> shift) & 0xff];
    u32 sum = 0;
    for (u32& h : hist) {
      const u32 c = h;
      h = sum;
      sum += c;
    }
    for (size_t i = 0; i < len; ++i) {
      dst[hist[(src[i].copy >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != b) std::copy(src, src + len, b);
  for (size_t i = 0; i + 1 < len;) {
    size_t j = i + 1;
    while (j < len && b[j].copy == b[i].copy) ++j;
    if (j - i > 1) std::sort(b + i, b + j, cmp);
    i = j;
  }
}

/// Runs fn(part) for part in [0, parts): on the pool when parts > 1.
void run_parts(int parts, const std::function<void(i64)>& fn) {
  if (parts == 1) {
    fn(0);
  } else {
    execution_pool().for_each_index(parts, fn);
  }
}

/// Passes 2 and 3 of the Analytic sort: a counting sort of `in` by key into
/// `out`, then each key's bucket ordered by rec_less. Keys lie in
/// [kmin, kmin + nkeys). The records are split into `parts` equal ranges,
/// each with its own histogram (parts * nkeys counters); part t's records of
/// a key land after those of parts < t. The bucket sorts are split by
/// record count, not key count: part t orders the buckets that start in its
/// record range, so a few huge buckets still spread over the parts.
void bucket_by_key(SortRec* in, SortRec* out, size_t n, u64 kmin,
                   size_t nkeys, int parts, SortBuffers& bufs,
                   const std::vector<Packet>& payload) {
  const auto bound = [n, parts](i64 t) {
    return n * static_cast<size_t>(t) / static_cast<size_t>(parts);
  };
  std::vector<u32>& hist = bufs.hist;
  hist.resize(static_cast<size_t>(parts) * nkeys);
  run_parts(parts, [&](i64 t) {
    u32* h = hist.data() + static_cast<size_t>(t) * nkeys;
    std::fill(h, h + nkeys, 0u);
    for (size_t i = bound(t); i < bound(t + 1); ++i) ++h[in[i].key - kmin];
  });
  std::vector<u32>& start = bufs.bucket_start;
  start.resize(nkeys + 1);
  u32 sum = 0;
  for (size_t k = 0; k < nkeys; ++k) {
    start[k] = sum;
    for (int t = 0; t < parts; ++t) {
      u32& c = hist[static_cast<size_t>(t) * nkeys + k];
      const u32 count = c;
      c = sum;
      sum += count;
    }
  }
  start[nkeys] = sum;
  run_parts(parts, [&](i64 t) {
    u32* h = hist.data() + static_cast<size_t>(t) * nkeys;
    for (size_t i = bound(t); i < bound(t + 1); ++i) {
      out[h[in[i].key - kmin]++] = in[i];
    }
  });
  // `in` is free again: each bucket borrows its own index range of it as
  // radix scratch.
  run_parts(parts, [&](i64 t) {
    const auto first = start.begin();
    const auto last = start.begin() + static_cast<i64>(nkeys);
    const auto b = std::lower_bound(first, last, bound(t));
    const auto e = std::lower_bound(first, last, bound(t + 1));
    for (auto k = b; k != e; ++k) {
      if (k[1] - k[0] > 1) {
        order_bucket(out + k[0], k[1] - k[0], in + k[0], payload);
      }
    }
  });
}

/// SortMode::Analytic: the canonical placement, computed directly. Packet i
/// of the rec_less order lands at snake position i / cap, and rec_less is a
/// strict total order, so any correct sort yields the same buffers. Four
/// passes:
///   1. gather: prefix sums of the buffer sizes give every snake position
///      its offset, and each position copies its packets there and builds
///      their 32-byte records;
///   2. a counting sort of the records by key;
///   3. each key's bucket ordered by rec_less;
///   4. scatter: each position takes its cap records.
/// Every protocol key is a dense small integer (a page id or a snake
/// position), so passes 2-3 apply when the keys span at most
/// max(N, region size) values, which also bounds the histograms. Fewer than
/// kSmallSort packets, or sparser keys, take one std::sort instead.
/// Passes 1 and 4 split the snake positions into chunks and passes 2-3 split
/// the records into one part per pool thread, but only when the caller is
/// not itself a pool task and the pool has several threads
/// (for_each_region_chunk's gate); otherwise all four run serially.
i64 analytic_sort(Mesh& mesh, const Region& region) {
  SortBuffers& bufs = sort_buffers();
  const i64 m = region.size();
  std::vector<i64>& offs = bufs.offs;
  offs.resize(static_cast<size_t>(m));
  i64 cap = 0;
  i64 total = 0;
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    const i64 load = static_cast<i64>(mesh.buf(cur.id()).size());
    offs[static_cast<size_t>(cur.pos())] = total;
    total += load;
    cap = std::max(cap, load);
  }
  if (total == 0) return 0;
  const size_t n = static_cast<size_t>(total);
  MP_REQUIRE(n <= std::numeric_limits<u32>::max(),
             "too many packets for 32-bit sort handles");
  // Grow-only: resize() would construct every element again per call.
  if (bufs.payload.size() < n) bufs.payload.resize(n);
  if (bufs.recs.size() < n) bufs.recs.resize(n);
  std::vector<Packet>& payload = bufs.payload;
  SortRec* recs = bufs.recs.data();

  std::atomic<u64> kmin{~0ULL};
  std::atomic<u64> kmax{0};
  {
    telemetry::Span span(telemetry::Cat::Phase, kDrain);
    for_each_region_chunk(
        mesh, region, kPosGrain, [&](RegionCursor& cur, i64 end) {
          u64 lo = ~0ULL;
          u64 hi = 0;
          for (; cur.pos() < end; cur.advance()) {
            auto& b = mesh.buf(cur.id());
            auto h = static_cast<size_t>(offs[static_cast<size_t>(cur.pos())]);
            for (const Packet& p : b) {
              payload[h] = p;
              recs[h] = SortRec{p.key, p.copy, p.var, static_cast<u32>(h)};
              lo = std::min(lo, p.key);
              hi = std::max(hi, p.key);
              ++h;
            }
            b.clear();  // keeps capacity (reuse contract)
          }
          atomic_min(kmin, lo);
          atomic_max(kmax, hi);
        });
  }

  const SortRec* order = recs;
  const u64 key_span = kmax.load() - kmin.load();
  if (n < kSmallSort || key_span >= std::max<u64>(n, static_cast<u64>(m))) {
    std::sort(recs, recs + n, [&payload](const SortRec& a, const SortRec& b) {
      return rec_less(payload, a, b);
    });
  } else {
    if (bufs.bucketed.size() < n) bufs.bucketed.resize(n);
    const int parts = in_parallel_worker() ? 1 : execution_threads();
    bucket_by_key(recs, bufs.bucketed.data(), n, kmin.load(),
                  static_cast<size_t>(key_span) + 1, parts, bufs, payload);
    order = bufs.bucketed.data();
  }

  for_each_region_chunk(
      mesh, region, kPosGrain, [&](RegionCursor& cur, i64 end) {
        for (; cur.pos() < end; cur.advance()) {
          const size_t lo = static_cast<size_t>(cur.pos() * cap);
          if (lo >= n) break;
          const size_t hi = std::min(n, lo + static_cast<size_t>(cap));
          auto& b = mesh.buf(cur.id());
          for (size_t i = lo; i < hi; ++i) {
            b.push_back(payload[order[i].handle]);
          }
        }
      });
  return shearsort_step_bound(region, cap);
}

i64 sort_region_impl(Mesh& mesh, const Region& region,
                     const SortOptions& opts) {
  if (opts.mode == SortMode::Analytic) return analytic_sort(mesh, region);
  if (mesh.total_packets(region) == 0) return 0;

  BlockGrid grid(mesh, region, sort_buffers());
  const int max_phases = shear_phases(region.rows());
  i64 rounds = 0;
  // Shearsort: log(rows)+1 alternating row/column passes...
  for (int p = 0; p < max_phases; ++p) {
    bool changed = false;
    rounds += grid.row_pass(&changed);
    rounds += grid.col_pass(&changed);
    if (!changed) break;
  }
  // ... plus a final row pass to finish the snake.
  {
    bool changed = false;
    rounds += grid.row_pass(&changed);
  }
  // Safety net: the 0-1 principle guarantees the bound above, but run extra
  // passes (and fail loudly) rather than return unsorted data if a bug slips
  // in.
  int extra = 0;
  while (!grid.snake_sorted()) {
    MP_ASSERT(extra++ <= max_phases + 2,
              "shearsort failed to converge on " << region.rows() << 'x'
                                                 << region.cols());
    bool changed = false;
    rounds += grid.row_pass(&changed);
    rounds += grid.col_pass(&changed);
    bool fin = false;
    rounds += grid.row_pass(&fin);
  }
  grid.flush();
  return rounds * grid.capacity();
}

}  // namespace

i64 sort_region(Mesh& mesh, const Region& region, const SortOptions& opts) {
  telemetry::Span span(telemetry::Cat::Phase, kSortRegion);
  const i64 steps = sort_region_impl(mesh, region, opts);
  span.set_steps(steps);
  return steps;
}

}  // namespace meshpram

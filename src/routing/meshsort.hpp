// Deterministic k-k sorting on a rectangular submesh.
//
// The paper relies on mesh sorting/ranking in O(l1 * sqrt(n)) steps
// [KSS94, Kun93]. We implement block SHEARSORT: every node holds a fixed
// block of L = max-initial-load slots (padded with hole sentinels), blocks
// are kept locally sorted, and rows/columns run odd-even block transposition
// (a merge-split comparator per neighboring pair) in alternating passes:
//
//   repeat <= ceil(log2 rows) + 1 times:
//     sort all rows in snake direction   (cols rounds, L words per round)
//     sort all columns downward          (rows rounds, L words per round)
//   final row pass in snake direction
//
// Correctness follows from the 0-1 principle (every merge-split is a monotone
// block comparator). The step count is O(L * (rows + cols) * log rows) — a
// log factor above the cited bound; DESIGN.md §2.2 records this substitution.
// Hole sentinels (key = kHoleKey) sort to the tail of the snake, so real
// packets end up packed at the front of the snake order.
//
// SortMode::Simulated performs every merge-split for real, with early exit
// when a full pass makes no exchange, and charges the rounds actually
// executed. SortMode::Analytic produces the identical final placement but
// charges the full data-independent worst-case round count (the algorithm is
// oblivious, so this is exactly what a hardware run would cost without the
// early-exit wire); it exists so that large benches stay fast.
//
// The Analytic placement is computed directly: the sort order is a strict
// total order and packet i of it lands at snake position i / cap, so any
// correct host sort yields bit-identical buffers. It gathers the packets
// into per-position offsets, counting-sorts their records by key (protocol
// keys are dense page ids or snake positions), orders each key's bucket, and
// scatters cap packets per position. The passes run on the execution pool
// when the caller is not itself a pool task and the pool has more than one
// thread; otherwise (region tasks, dist rank threads, 1-thread runs) the same
// passes run serially. See DESIGN.md §4b.
#pragma once

#include "mesh/machine.hpp"
#include "mesh/region.hpp"

namespace meshpram {

inline constexpr u64 kHoleKey = ~0ULL;

enum class SortMode { Simulated, Analytic };

struct SortOptions {
  SortMode mode = SortMode::Simulated;
};

/// Sorts all packets buffered in `region` by Packet::key (ties broken by
/// Packet::copy, then origin, for determinism) into snake order, packed at
/// the front. Returns the number of machine steps charged; the caller adds
/// them to the clock (possibly max-ed across parallel regions).
i64 sort_region(Mesh& mesh, const Region& region,
                const SortOptions& opts = {});

/// Worst-case step count of block shearsort on `region` with node capacity L
/// (the Analytic charge).
i64 shearsort_step_bound(const Region& region, i64 capacity);

/// Validation helper: true if the packets in `region` are in ascending key
/// order along the snake, packed at the front.
bool region_sorted(const Mesh& mesh, const Region& region);

}  // namespace meshpram

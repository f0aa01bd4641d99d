// Deterministic parallel execution over disjoint submesh regions.
//
// The paper runs each protocol phase "in parallel and independently in every
// level-i submesh"; parallel_for_regions turns that logical parallelism into
// host parallelism. Each region is handed to one pool worker which may touch
// ONLY the node state (packet buffers, copy stores) inside its region — the
// disjoint-region ownership rule, checked in debug builds. The per-region
// step costs are returned indexed like `regions`, so the caller merges them
// into StepCounter / ParallelCost in region order after the join: counted
// mesh steps are bit-identical to a sequential run at any thread count.
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "mesh/machine.hpp"
#include "mesh/region.hpp"
#include "mesh/step_counter.hpp"

namespace meshpram {

/// Sense-reversing spin barrier for the routing loop's stripe teams: one
/// region split into row bands that meet twice per routing step, once to
/// hand over the hops crossing band edges and once to sum the deliveries.
/// Spinning (with yield) rather than blocking: the work between barriers is
/// microseconds, and every team member owns a pool thread for the whole
/// call, so there is nothing better for a waiter to do.
///
/// MP_ASSERT/MP_REQUIRE stay armed in release builds, so any team member can
/// throw between barriers; kill() aborts the rendezvous — every current and
/// future wait() returns false and the workers unwind instead of deadlocking.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  /// Blocks until all parties arrive; returns false if the barrier was
  /// killed (the caller must stop using shared state and return).
  bool wait() {
    if (parties_ == 1) return !killed_.load(std::memory_order_acquire);
    if (killed_.load(std::memory_order_acquire)) return false;
    const u64 phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.fetch_add(1, std::memory_order_release);
    } else {
      while (phase_.load(std::memory_order_acquire) == phase) {
        if (killed_.load(std::memory_order_acquire)) return false;
        std::this_thread::yield();
      }
    }
    return !killed_.load(std::memory_order_acquire);
  }

  /// Aborts the rendezvous permanently (exception escape hatch).
  void kill() { killed_.store(true, std::memory_order_release); }

 private:
  int parties_;
  std::atomic<i64> arrived_{0};
  std::atomic<u64> phase_{0};
  std::atomic<bool> killed_{false};
};

/// Runs fn(region) for every region of `regions` on the execution pool and
/// returns the per-region step costs in input order. `fn` must obey the
/// disjoint-region ownership rule: it may read shared immutable state
/// (placements, maps) but may only mutate mesh state of nodes inside the
/// region it was handed. Regions must be disjoint and contained in the mesh
/// (disjointness is verified in debug builds; containment always).
std::vector<i64> parallel_for_regions(
    Mesh& mesh, const std::vector<Region>& regions,
    const std::function<i64(const Region&)>& fn);

/// Indexed variant: fn also receives the region's index in `regions`, for
/// callers that collect per-region side results into pre-sized arrays.
std::vector<i64> parallel_for_regions(
    Mesh& mesh, const std::vector<Region>& regions,
    const std::function<i64(const Region&, size_t)>& fn);

/// Convenience: parallel_for_regions + ParallelCost::observe in region order.
/// Returns the max per-region cost (the quantity the theorems charge).
i64 parallel_max_regions(Mesh& mesh, const std::vector<Region>& regions,
                         const std::function<i64(const Region&)>& fn);

/// Minimum region size (in nodes) before a routing/sorting kernel engages
/// its intra-region worker team (route_greedy's row bands, the meshsort
/// odd-even rounds). Default 4096, overridable via the
/// MESHPRAM_STRIPE_MIN_NODES environment variable; set_stripe_min_nodes(0)
/// restores that default. Purely a performance knob — results never depend
/// on it (or on the thread count).
void set_stripe_min_nodes(i64 nodes);
i64 stripe_min_nodes();

/// Chunk-parallel snake walk of `region`: splits the snake positions into
/// contiguous chunks and runs fn(cursor, end_pos) per chunk, where `cursor`
/// starts at the chunk's first position and fn advances it up to (not past)
/// `end_pos`. Falls back to one serial chunk when the pool has one thread,
/// the caller is already a pool worker, or the region is smaller than
/// 2*min_grain. Per-position work must be disjoint across positions so the
/// result is identical under any chunking (same rule as for_each_chunk).
void for_each_region_chunk(const Mesh& mesh, const Region& region,
                           i64 min_grain,
                           const std::function<void(RegionCursor&, i64)>& fn);

}  // namespace meshpram

// Cycle-accurate greedy XY (dimension-order) store-and-forward routing.
//
// Every packet first corrects its column (east/west), then its row
// (north/south). Per machine step, every directed link carries at most one
// packet; when several queued packets want the same outgoing link, the one
// with the largest remaining distance goes first (farthest-first is the
// classic priority that makes greedy routing optimal for permutations).
// Queues are unbounded (store-and-forward with buffering at the nodes);
// congestion and queueing delay are therefore emergent, which is exactly
// what the (l1,l2)-routing benches measure against Theorem 2.
#pragma once

#include "mesh/machine.hpp"
#include "mesh/region.hpp"

namespace meshpram {

struct RouteStats {
  i64 steps = 0;          ///< parallel machine steps (cycles)
  i64 max_queue = 0;      ///< peak per-node transit queue occupancy
  i64 packets = 0;        ///< packets routed
  i64 total_distance = 0; ///< sum of source-destination Manhattan distances
  // Fault-injection accounting (all zero without an active fault plan that
  // affects routing; see fault/plan.hpp for the event semantics).
  i64 fault_retried = 0;  ///< hop attempts blocked by stall backoff or drops
  i64 fault_dropped = 0;  ///< link-level drops (detected and retransmitted)
  i64 fault_detoured = 0; ///< hops taken off the XY path around dead links
};

/// Routes every packet buffered in `region` to its Packet::dest node buffer.
/// All destinations must lie inside `region`. Returns cycle-accurate stats
/// (`packets` and `total_distance` count the packets buffered in `region`,
/// at-home ones included). When every packet is already home, the call is
/// one read-only pass over the buffers (destinations still checked) and
/// records no span.
///
/// Every route runs the active-list loop of greedy_band.hpp, which costs
/// O(nodes with queued packets) per step. Regions of at least
/// stripe_min_nodes() nodes (mesh/parallel.hpp), routed from outside the
/// pool, are split into min(threads, rows) row bands, one pool thread each;
/// the bands trade the hops that cross their edges in memory, twice
/// synchronised per step. Results, RouteStats, and the congestion counter
/// grids are bit-identical to a team of one at any thread count (see
/// DESIGN.md §9 for the determinism argument).
///
/// When the mesh carries a fault plan that affects routing (dead or stalled
/// links, a positive drop rate), the call switches to the fault-aware hop
/// rule (greedy_fault.cpp) on the same loop, always as a team of one:
/// stalled hops back off and retry, dead links are detoured, drops are
/// retransmitted — no packet is ever lost. Plans that only kill memory
/// modules stay on the XY rule, so their step counts are bit-identical to
/// the fault-free run.
RouteStats route_greedy(Mesh& mesh, const Region& region);

/// Same, but under a routing-affecting fault plan the detours may cross all
/// of `detour_scope` (which must contain `region`): a dead link inside a thin
/// region can cut it internally while the surrounding mesh still has paths
/// around. The caller guarantees that every packet in `detour_scope` outside
/// `region` already sits at its destination; those buffers are neither
/// walked nor touched, so set-up walks |region| buffers whatever the scope,
/// and the result equals routing `detour_scope` as a whole (except that
/// `packets` and `total_distance` count only `region`). Fault-free routing
/// never leaves `region` (an XY path stays inside the rectangle spanned by
/// its endpoints) and ignores `detour_scope`.
RouteStats route_greedy(Mesh& mesh, const Region& region,
                        const Region& detour_scope);

/// Test hook: extra per-node queue capacity laid out beyond the setup-time
/// maximum depth (default 2). Raising it pre-grows the arenas so the
/// in-place grow path never triggers; the adversarial-burst tests compare
/// the two configurations for bit-identical delivery. Not thread-safe; set
/// it before spawning work.
void set_route_initial_headroom(i64 slots);
i64 route_initial_headroom();

namespace detail {
/// Fault-aware greedy kernel: the routing loop with the fault hop rule, as a
/// team of one. Called by route_greedy after setup_band over `scope` (the
/// detour scope); `in_flight` is the number of in-transit records already
/// in `ar`'s queues and listed in ar.frontier. Fills steps/max_queue/fault_*
/// of `stats` and adds the fault events to mesh.fault_tally(). Throws
/// fault::FaultError if the plan leaves some packet unroutable (step cap
/// exceeded).
void route_greedy_fault(Mesh& mesh, const Region& scope, RouteArena& ar,
                        i64 in_flight, RouteStats& stats);
}  // namespace detail

}  // namespace meshpram

#include "routing/greedy.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "mesh/arena.hpp"
#include "mesh/parallel.hpp"
#include "routing/greedy_serial.hpp"
#include "routing/xy.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

/// Queues at most this deep scan into stack buffers instead of the heap
/// scratch — routing queues are mostly a handful of records.
constexpr i32 kSmallScan = 32;

/// Per-worker scratch for the vectorized candidate scan (direction + distance
/// of every queued record at once). thread_local: both the serial router and
/// each stripe worker scan one node at a time.
struct ScanScratch {
  std::vector<unsigned char> dir;
  std::vector<u16> rem;

  void fit(i32 n) {
    if (dir.size() < static_cast<size_t>(n)) {
      dir.resize(static_cast<size_t>(n));
      rem.resize(static_cast<size_t>(n));
    }
  }
};

ScanScratch& scan_scratch() {
  static thread_local ScanScratch s;
  return s;
}

const telemetry::Label kRouteGreedy = telemetry::intern("route.greedy");
const telemetry::Label kRouteStripe = telemetry::intern("route.stripe");

/// Extra queue capacity beyond the setup max depth (set_route_initial_headroom).
i64 g_route_headroom = 2;

/// Padded per-stripe accumulators: delivered is summed by every rank after
/// each step (all ranks compute the same total), max_queue is merged by the
/// caller after the join.
struct alignas(64) RankSlot {
  i64 delivered = 0;
  i64 max_queue = 0;
  i64 steps = 0;
};

struct Stripe {
  i64 pos_begin = 0;
  i64 pos_end = 0;
};

/// State shared by one route call's stripe team.
struct RouteShared {
  Mesh& mesh;
  const Region& region;
  RouteArena& ar;
  bool count_congestion;
  i64 in_flight0 = 0;
  std::vector<Stripe> stripes;
  std::vector<RankSlot> slots;
  // Per-rank overflow spills (pos, rec), merged by rank 0 under the third
  // barrier of a step. Spilling instead of growing in place: a stripe worker
  // may not resize the shared queue slab while others read it.
  std::vector<std::vector<std::pair<i64, TransitRec>>> spills;
  // Step number (1-based) of the most recent overflow. Written by spillers
  // before the absorb barrier, compared against the (identical) local step
  // counter by every rank after it — no reset, so there is no window where
  // ranks can disagree about whether a grow round happens.
  std::atomic<i64> overflow_step{0};
  SpinBarrier barrier;

  RouteShared(Mesh& mesh_, const Region& region_, RouteArena& ar_,
              bool count_congestion_, int team_)
      : mesh(mesh_),
        region(region_),
        ar(ar_),
        count_congestion(count_congestion_),
        stripes(static_cast<size_t>(team_)),
        slots(static_cast<size_t>(team_)),
        spills(static_cast<size_t>(team_)),
        barrier(team_) {}
};

/// Forward sweep over one stripe: each node sends its best candidate per
/// outgoing direction (farthest remaining distance first, first occurrence in
/// queue order breaking ties — identical to the serial scan). Chosen records
/// are tombstoned and compacted in one pass (mark-and-compact), preserving
/// the queue order of survivors; deposits go into the destination's incoming
/// lane, which may belong to a neighboring stripe (single writer per lane).
void forward_sweep(RouteShared& sh, int rank) {
  RouteArena& ar = sh.ar;
  const Region& region = sh.region;
  const Stripe s = sh.stripes[static_cast<size_t>(rank)];
  ScanScratch& sc = scan_scratch();
  unsigned char dir_buf[kSmallScan];
  u16 rem_buf[kSmallScan];
  RegionCursor cur(region, sh.mesh.cols(), s.pos_begin);
  for (; cur.pos() < s.pos_end; cur.advance()) {
    const i64 pos = cur.pos();
    const i32 cnt = ar.count(pos);
    if (cnt == 0) continue;
    TransitRec* q = ar.queue(pos);
    const Coord at = cur.coord();
    // Vectorized scan: direction and remaining distance of every queued
    // record (the kernel mirrors xy_dir's east/west-then-south/north
    // priority); the argmax keeps the scalar first-occurrence tie-break.
    // Shallow queues (the common case) use stack buffers over the heap
    // scratch.
    unsigned char* dirs = dir_buf;
    u16* rems = rem_buf;
    if (cnt > kSmallScan) {
      sc.fit(cnt);
      dirs = sc.dir.data();
      rems = sc.rem.data();
    }
    simd::transit_scan(q, cnt, static_cast<i16>(at.r), static_cast<i16>(at.c),
                       dirs, rems);
    std::array<i32, kNumDirs> best;
    best.fill(-1);
    std::array<i64, kNumDirs> best_dist{};
    for (i32 i = 0; i < cnt; ++i) {
      const i64 rem = rems[i];
      MP_ASSERT(rem > 0, "arrived packet still in transit");
      const auto di = static_cast<size_t>(dirs[i]);
      if (best[di] < 0 || rem > best_dist[di]) {
        best[di] = i;
        best_dist[di] = rem;
      }
    }
    i64 moves = 0;
    for (int di = 0; di < kNumDirs; ++di) {
      const i32 idx = best[static_cast<size_t>(di)];
      if (idx < 0) continue;
      const TransitRec rec = q[idx];
      q[idx].handle = RouteArena::kInvalidHandle;
      const Coord to = step_toward(at, static_cast<Dir>(di));
      MP_ASSERT(region.contains(to), "XY routing left the region");
      const i64 dpos = region.snake_of(to);
      ar.lane_rec(dpos, kLaneOfMove[di]) = rec;
      ar.lane_flags(dpos)[kLaneOfMove[di]] = 1;
      ++moves;
    }
    if (moves > 0) {
      i32 w = 0;
      for (i32 i = 0; i < cnt; ++i) {
        if (q[i].handle != RouteArena::kInvalidHandle) q[w++] = q[i];
      }
      ar.count(pos) = w;
      if (sh.count_congestion) {
        sh.mesh.counters().add_forwarded(cur.id(), moves);
      }
    }
  }
}

/// Absorb sweep over one stripe: consume the node's incoming lanes in
/// canonical order, delivering home packets to the mesh buffer and appending
/// the rest to the transit queue. A full queue spills instead of growing and
/// flags a grow round (see RouteShared::spills).
void absorb_sweep(RouteShared& sh, int rank, i64 step) {
  RouteArena& ar = sh.ar;
  const Region& region = sh.region;
  const Stripe s = sh.stripes[static_cast<size_t>(rank)];
  RankSlot& slot = sh.slots[static_cast<size_t>(rank)];
  i64 delivered = 0;
  i64 max_q = slot.max_queue;
  RegionCursor cur(region, sh.mesh.cols(), s.pos_begin);
  for (; cur.pos() < s.pos_end; cur.advance()) {
    const i64 pos = cur.pos();
    unsigned char* flags = ar.lane_flags(pos);
    u32 any;
    std::memcpy(&any, flags, sizeof(any));
    if (any == 0) continue;
    const Coord at = cur.coord();
    const bool east_row = ((at.r - region.r0()) & 1) == 0;
    const int* order = east_row ? kLaneOrderEast : kLaneOrderWest;
    const i32 id = cur.id();
    i64 spilled = 0;
    for (int oi = 0; oi < kNumDirs; ++oi) {
      const int lane = order[oi];
      if (!flags[lane]) continue;
      flags[lane] = 0;
      const TransitRec rec = ar.lane_rec(pos, lane);
      if (rec.dest_r == at.r && rec.dest_c == at.c) {
        sh.mesh.buf(id).push_back(ar.payload[rec.handle]);
        ++delivered;
      } else if (ar.count(pos) < ar.cap()) {
        ar.queue(pos)[ar.count(pos)++] = rec;
      } else {
        sh.spills[static_cast<size_t>(rank)].emplace_back(pos, rec);
        ++spilled;
        sh.overflow_step.store(step, std::memory_order_relaxed);
      }
    }
    // Logical queue depth includes spilled records; observed only at nodes
    // that received arrivals this step, exactly like the serial path.
    const i64 logical = ar.count(pos) + spilled;
    max_q = std::max(max_q, logical);
    if (sh.count_congestion) sh.mesh.counters().observe_queue(id, logical);
  }
  slot.delivered += delivered;
  slot.max_queue = max_q;
}

/// Grow round (rank 0, under the third barrier): doubling always fits the
/// spills, since at most kNumDirs arrivals spill per node per step and
/// cap >= kNumDirs. A node's spills all come from its owner in canonical lane
/// order, so appending rank-by-rank preserves the serial append order.
void merge_spills(RouteShared& sh) {
  RouteArena& ar = sh.ar;
  ar.grow(ar.cap() * 2);
  for (auto& ranks : sh.spills) {
    for (const auto& [pos, rec] : ranks) {
      ar.queue(pos)[ar.count(pos)++] = rec;
    }
    ranks.clear();
  }
}

void route_stripe_worker(RouteShared& sh, int rank) {
  i64 steps = 0;
  i64 in_flight = sh.in_flight0;
  while (in_flight > 0) {
    ++steps;
    forward_sweep(sh, rank);
    if (!sh.barrier.wait()) return;
    absorb_sweep(sh, rank, steps);
    if (!sh.barrier.wait()) return;
    if (sh.overflow_step.load(std::memory_order_relaxed) == steps) {
      if (rank == 0) merge_spills(sh);
      if (!sh.barrier.wait()) return;
    }
    in_flight = sh.in_flight0;
    for (const RankSlot& slot : sh.slots) in_flight -= slot.delivered;
  }
  sh.slots[static_cast<size_t>(rank)].steps = steps;
}

/// Read-only pass for a route with nothing in flight: checks every packet's
/// destination like the set-up does and counts the packets into `stats`.
/// Returns false at the first packet that still has to move.
bool all_home(const Mesh& mesh, const Region& region, RouteStats& stats) {
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    for (const Packet& p : mesh.buf(cur.id())) {
      MP_REQUIRE(p.dest >= 0 && p.dest < mesh.size(),
                 "packet without destination");
      MP_REQUIRE(region.contains(mesh.coord(p.dest)),
                 "destination " << mesh.coord(p.dest)
                                << " outside routing region " << region);
      if (p.dest != cur.id()) return false;
      ++stats.packets;
    }
  }
  return true;
}

/// The fault-free hop rule for the shared serial loop (greedy_serial.hpp):
/// per outgoing direction, the queued record with the largest remaining
/// distance, first occurrence in queue order breaking ties — the same choice
/// as the stripe workers' vectorized scan, derived here from the relative
/// offsets in registers.
struct XyRule {
  void begin_step(i64 /*step*/) {}

  void select(const ActiveNode& /*an*/, const TransitRec* q, i32 cnt,
              i64 /*step*/, std::array<i32, kNumDirs>& win) {
    std::array<i32, kNumDirs> best_dist{};
    for (i32 i = 0; i < cnt; ++i) {
      const int dr = q[i].dest_r;
      const int dc = q[i].dest_c;
      // Same decision table as simd::transit_scan: column first (XY).
      const auto di = static_cast<size_t>(xy_dir(dr, dc));
      const i32 rem = (dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc);
      if (win[di] < 0 || rem > best_dist[di]) {
        win[di] = i;
        best_dist[di] = rem;
      }
    }
  }
};

}  // namespace

void set_route_initial_headroom(i64 slots) {
  MP_REQUIRE(slots >= 0, "route headroom " << slots);
  g_route_headroom = slots;
}

i64 route_initial_headroom() { return g_route_headroom; }

RouteStats route_greedy(Mesh& mesh, const Region& region) {
  return route_greedy(mesh, region, region);
}

RouteStats route_greedy(Mesh& mesh, const Region& region,
                        const Region& detour_scope) {
  // Fault plans that touch routing divert to the serial fault-aware kernel
  // (stall backoff, detours, drop retransmission), whose detours may cross
  // all of `detour_scope`. Module-only plans — and no plan at all — keep the
  // fast path, which never leaves `region`: an XY path stays inside the
  // rectangle spanned by its endpoints.
  const fault::FaultPlan* plan = mesh.fault_plan();
  const bool fault_kernel = plan != nullptr && plan->affects_routing();
  const Region& scope = fault_kernel ? detour_scope : region;
  const bool wide = !(scope == region);
  MP_REQUIRE(!wide || (scope.contains({region.r0(), region.c0()}) &&
                       scope.contains({region.r0() + region.rows() - 1,
                                       region.c0() + region.cols() - 1})),
             "routing region " << region << " outside detour scope "
                               << scope);

  // Nothing in flight (one-node regions, or a route_sorted whose sort
  // already left every packet at its destination): the read-only pass is
  // the whole call, with no span and no arena lease.
  RouteStats stats;
  if (all_home(mesh, region, stats)) return stats;
  stats = RouteStats{};

  telemetry::Span span(telemetry::Cat::Phase, kRouteGreedy);
  // Per-node congestion counters are hot-loop writes; hoist the gate. Each
  // node's cells are written by exactly one stripe worker (sources count
  // forwards, receivers observe queues, and both are node-owned), so the
  // counter grids stay thread-count invariant.
  const bool count_congestion = telemetry::sampling_on();

  RouteArena* const arena = mesh.route_arenas().acquire();
  struct Lease {
    Mesh& mesh;
    RouteArena* arena;
    ~Lease() { mesh.route_arenas().release(arena); }
  } lease{mesh, arena};
  RouteArena& ar = *arena;
  ar.reset(scope, mesh.order().kind());

  // Serial setup on the calling thread: split each buffer of `region` into
  // home packets (kept in place) and in-transit payload, recording 8-byte
  // transit records and per-node queue depths for the slab layout. Only
  // `region` is walked: by contract every packet elsewhere in the scope is
  // already home, so a wide scope adds only the arena's flat O(scope) reset
  // above, not a walk of its buffers.
  MP_REQUIRE(mesh.rows() <= 32767 && mesh.cols() <= 32767,
             "mesh too large for 16-bit transit coordinates");
  i64 in_flight = 0;
  i64 max_depth = 0;
  ar.frontier.clear();  // nodes with queued packets, in discovery order
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    const Coord x = cur.coord();
    const i32 id = cur.id();
    const i64 pos = wide ? scope.snake_of(x) : cur.pos();
    auto& b = mesh.buf(id);
    auto keep = b.begin();
    for (Packet& p : b) {
      MP_REQUIRE(p.dest >= 0 && p.dest < mesh.size(),
                 "packet without destination");
      const Coord d = mesh.coord(p.dest);
      MP_REQUIRE(region.contains(d),
                 "destination " << d << " outside routing region " << region);
      ++stats.packets;
      stats.total_distance += manhattan(x, d);
      if (p.dest == id) {
        *keep++ = p;  // already home; stays in the buffer
      } else {
        ar.setup_rec.push_back(TransitRec{static_cast<u32>(ar.payload.size()),
                                          static_cast<i16>(d.r),
                                          static_cast<i16>(d.c)});
        ar.setup_pos.push_back(pos);
        ar.payload.push_back(p);
        const i32 depth = ++ar.count(pos);
        if (depth == 1) {
          ar.frontier.push_back({static_cast<i32>(pos),
                                 static_cast<i16>(x.r),
                                 static_cast<i16>(x.c)});
        }
        max_depth = std::max<i64>(max_depth, depth);
        ++in_flight;
      }
    }
    b.erase(keep, b.end());
  }

  if (in_flight > 0) {
    // Initial capacity with headroom so the first arrivals don't force an
    // immediate grow; doubling takes over from there. Only the nodes in the
    // active list hold a nonzero count, so the post-layout re-zero before the
    // scatter touches O(active) nodes, not O(region).
    ar.layout(std::max<i64>(kNumDirs, max_depth + g_route_headroom));
    for (const ActiveNode& an : ar.frontier) ar.count(an.pos) = 0;
    for (size_t i = 0; i < ar.setup_rec.size(); ++i) {
      const i64 pos = ar.setup_pos[i];
      ar.queue(pos)[ar.count(pos)++] = ar.setup_rec[i];
    }

    // Stripe team: contiguous row bands, one pool thread each. Serial when
    // the caller is itself a pool worker (the region loops already use every
    // thread, and the pool is not reentrant) or the region is small. The
    // fault kernel always runs serial.
    int team = 1;
    if (!in_parallel_worker() && execution_threads() > 1 &&
        region.size() >= stripe_min_nodes()) {
      team = static_cast<int>(
          std::min<i64>(execution_threads(), region.rows()));
    }
    if (fault_kernel) {
      detail::route_greedy_fault(mesh, scope, ar, in_flight, stats);
    } else if (team == 1) {
      XyRule rule;
      detail::route_serial(mesh, region, ar, in_flight, count_congestion,
                           rule, stats);
    } else {
      RouteShared sh(mesh, region, ar, count_congestion, team);
      sh.in_flight0 = in_flight;
      const i64 base = region.rows() / team;
      const i64 extra = region.rows() % team;
      i64 row = 0;
      for (int t = 0; t < team; ++t) {
        const i64 nrows = base + (t < extra ? 1 : 0);
        sh.stripes[static_cast<size_t>(t)] = {row * region.cols(),
                                              (row + nrows) * region.cols()};
        row += nrows;
      }
      execution_pool().for_each_index(team, [&sh](i64 rank) {
        telemetry::Span worker(telemetry::Cat::Region, kRouteStripe, rank);
        try {
          route_stripe_worker(sh, static_cast<int>(rank));
        } catch (...) {
          sh.barrier.kill();  // release the team before unwinding
          throw;
        }
        worker.set_steps(sh.slots[static_cast<size_t>(rank)].steps);
      });
      stats.steps = sh.slots[0].steps;
      for (const RankSlot& slot : sh.slots) {
        MP_ASSERT(slot.steps == stats.steps, "stripe team diverged");
        stats.max_queue = std::max(stats.max_queue, slot.max_queue);
      }
    }
  }
  span.set_steps(stats.steps);
  return stats;
}

}  // namespace meshpram

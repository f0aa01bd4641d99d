// The greedy routing loop: one band of rows of the routing region, routed on
// the band's own RouteArena. It is the only greedy routing loop.
//
// route_greedy (greedy.cpp) runs it as a team of one for every per-region
// route, for regions below stripe_min_nodes() and, with the fault hop rule
// (greedy_fault.cpp), under a routing-affecting fault plan; and as a stripe
// team that splits one region into row bands, one pool thread each.
// dist_route_whole (dist/route.cpp) runs it on each rank's band of the whole
// mesh. Two parameters tell the uses apart:
//   - the hop rule picks which queued records a node sends: XyRule below
//     (farthest-first per direction) or FaultRule (stall backoff, Pledge
//     wall-following, ARQ drops);
//   - the exchange carries the hops that leave the band through its top or
//     bottom edge: NoExchange below for a team of one, the in-memory
//     TeamExchange of a stripe team (greedy.cpp), or the RankExchange of
//     boundary frames over a Transport (dist/route.cpp).
// The loop owns everything else — relative (dr, dc) records, lane deposits,
// queue compaction, absorb order, and the frontier/arrivals bookkeeping — so
// a step costs O(nodes with queued packets), not O(band).
//
// Why neither the visit order nor the band split can change a result: a
// node's choices in a step depend only on its own queue (and, for the fault
// rule, on the per-packet state of the records in it and on pure plan
// queries for its own links). Each lane has exactly one writer: the
// neighbour on that side, which for the lane a hop into a band's edge row
// lands in lies in the next band, so the exchange writes that lane instead.
// Each queue and buffer has one owner, the counter cells are per node, and
// the tallies are sums and maxima. A node drains its lanes in a fixed order
// keyed by its row parity within the *routing region* (kLaneOrder* in
// xy.hpp), never within the band, so its queue after every step is the one a
// single loop over the whole region builds. Snake positions, which only
// address the band's arena, are counted within the band.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "mesh/arena.hpp"
#include "mesh/machine.hpp"
#include "routing/greedy.hpp"
#include "routing/xy.hpp"
#include "util/error.hpp"

namespace meshpram::detail {

/// Route set-up, shared by every caller of route_band: resets `ar` over
/// `scope` (which contains `band`), splits each buffer of `band` into home
/// packets, which stay in place, and in-transit payload, and lays the transit
/// records into the arena's queues with the frontier of nodes that hold
/// them. Every destination must lie in `region`. Adds the band's packets and
/// their distances to `stats` and returns the number in transit.
i64 setup_band(Mesh& mesh, const Region& region, const Region& band,
               const Region& scope, RouteArena& ar, RouteStats& stats);

/// The fault-free hop rule: per outgoing direction, the queued record with
/// the largest remaining distance, first occurrence in queue order breaking
/// ties.
struct XyRule {
  void begin_step(i64 /*step*/) {}

  void select(const ActiveNode& /*an*/, const TransitRec* q, i32 cnt,
              i64 /*step*/, std::array<i32, kNumDirs>& win) {
    std::array<i32, kNumDirs> best_dist{};
    for (i32 i = 0; i < cnt; ++i) {
      const int dr = q[i].dr;
      const int dc = q[i].dc;
      const auto di = static_cast<size_t>(xy_dir(dr, dc));
      const i32 rem = (dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc);
      if (win[di] < 0 || rem > best_dist[di]) {
        win[di] = i;
        best_dist[di] = rem;
      }
    }
  }
};

/// The exchange of a team of one: the band is the whole routing region, so
/// no hop leaves it and the edge tests compile away.
struct NoExchange {
  static constexpr bool kBanded = false;
  bool start(i64 local, i64& in_flight) {
    in_flight = local;
    return true;
  }
  bool settle(i64 delivered, i64& in_flight, i64 /*step*/) {
    in_flight -= delivered;
    return true;
  }
};

/// Runs the routing steps of one band until no packet of the whole team is
/// in flight. `ar` holds the band's `local_in_flight` records as setup_band
/// left them. Fills stats.steps (equal on every band) and stats.max_queue
/// (this band's peak).
///
/// `rule` decides each node's senders:
///   rule.begin_step(step)          once per step, before any node moves;
///   rule.select(an, q, cnt, step, win)
///                                  for every node `an` with cnt > 0 queued
///                                  records q[0..cnt) (offsets relative to
///                                  the node); sets win[d] to the index of the
///                                  record that leaves in direction d, or
///                                  leaves it -1. Chosen moves must stay inside
///                                  `region`.
/// `ex` carries the hops that cross the band's top or bottom edge:
///   Exchange::kBanded              false only when band == region;
///   ex.start(local, in_flight)     sets in_flight to the team's total after
///                                  set-up;
///   ex.outbox(north)               this step's hops leaving through the top
///                                  (north) or bottom edge;
///   ex.trade()                     hands the outboxes over;
///   ex.incoming(north)             then the hops entering the top (north) or
///                                  bottom edge row, or null without a
///                                  neighbour there;
///   ex.settle(delivered, in_flight, step)
///                                  subtracts the team's deliveries of the
///                                  step from in_flight.
/// start, trade and settle return false when a team member failed; the band
/// then stops at once.
template <class Rule, class Exchange>
void route_band(Mesh& mesh, const Region& region, const Region& band,
                RouteArena& ar, i64 local_in_flight, bool count_congestion,
                Rule& rule, Exchange& ex, RouteStats& stats) {
  const int cols = mesh.cols();
  const i64 bcols = band.cols();
  const int top = band.r0();
  const int bottom = band.r0() + band.rows() - 1;

  // A lane holds at most one record per step; the node's first deposit of
  // the step puts it on the arrivals list.
  const auto deposit = [&ar](i64 dpos, int r, int c, int lane,
                             const TransitRec& rec) {
    const i64 ds = ar.slot_of(dpos);
    ar.lane_rec_at(ds, lane) = rec;
    ar.lane_flags_at(ds)[lane] = 1;
    if (!ar.arrival_mark[static_cast<size_t>(dpos)]) {
      ar.arrival_mark[static_cast<size_t>(dpos)] = 1;
      ar.arrivals.push_back(
          {static_cast<i32>(dpos), static_cast<i16>(r), static_cast<i16>(c)});
    }
  };

  i64 in_flight = 0;
  if (!ex.start(local_in_flight, in_flight)) return;
  i64 steps = 0;
  while (in_flight > 0) {
    ++steps;
    rule.begin_step(steps);
    // Forward: each active node sends the records its rule picks.
    for (const ActiveNode& an : ar.frontier) {
      const i64 pos = an.pos;
      const i64 s = ar.slot_of(pos);
      const i32 cnt = ar.count_at(s);
      TransitRec* q = ar.queue_at(s);
      std::array<i32, kNumDirs> win;
      win.fill(-1);
      rule.select(an, q, cnt, steps, win);
      i64 moves = 0;
      const i64 br = an.r - top;
      const bool snake_east = (br & 1) == 0;
      for (int di = 0; di < kNumDirs; ++di) {
        const i32 idx = win[static_cast<size_t>(di)];
        if (idx < 0) continue;
        TransitRec rec = q[idx];
        q[idx].handle = RouteArena::kInvalidHandle;
        const Coord to = step_toward({an.r, an.c}, static_cast<Dir>(di));
        MP_ASSERT(region.contains(to), "routing left the region");
        // Account for the hop the record is about to take.
        if (di == 1) {
          --rec.dc;  // East
        } else if (di == 3) {
          ++rec.dc;  // West
        } else if (di == 2) {
          --rec.dr;  // South
        } else {
          ++rec.dr;  // North
        }
        ++moves;
        if constexpr (Exchange::kBanded) {
          if (to.r < top || to.r > bottom) {
            ex.outbox(to.r < top)
                .push_back({to.c, rec.dr, rec.dc, ar.payload[rec.handle]});
            continue;
          }
        }
        // Neighbour's snake position without the general snake_of: lateral
        // moves step by one (sign flips on odd rows), vertical moves land on
        // the mirrored offset of the adjacent row.
        i64 dpos;
        if (di == 1) {
          dpos = snake_east ? pos + 1 : pos - 1;
        } else if (di == 3) {
          dpos = snake_east ? pos - 1 : pos + 1;
        } else if (di == 2) {
          dpos = 2 * (br + 1) * bcols - 1 - pos;
        } else {
          dpos = 2 * br * bcols - 1 - pos;
        }
        MP_ASSERT(dpos == band.snake_of(to), "snake arithmetic mismatch");
        deposit(dpos, to.r, to.c, kLaneOfMove[di], rec);
      }
      if (moves > 0) {
        i32 w = 0;
        for (i32 i = 0; i < cnt; ++i) {
          if (q[i].handle != RouteArena::kInvalidHandle) q[w++] = q[i];
        }
        ar.count_at(s) = w;
        if (count_congestion) {
          mesh.counters().add_forwarded(an.r * cols + an.c, moves);
        }
      }
    }
    // Exchange: a hop from the band above moved South into the top row, one
    // from below moved North into the bottom row. Nothing inside the band
    // writes those lanes, so imports and local deposits never collide, even
    // in a one-row band.
    if constexpr (Exchange::kBanded) {
      if (!ex.trade()) return;
      for (const bool north : {true, false}) {
        const std::vector<BoundaryHop>* hops = ex.incoming(north);
        if (hops == nullptr) continue;
        const int row = north ? top : bottom;
        const int lane = kLaneOfMove[static_cast<int>(north ? Dir::South
                                                            : Dir::North)];
        for (const BoundaryHop& h : *hops) {
          const auto handle = static_cast<u32>(ar.payload.size());
          ar.payload.push_back(h.payload);
          deposit(band.snake_of({row, h.col}), row, h.col, lane,
                  TransitRec{handle, h.dr, h.dc});
        }
      }
    }
    // Absorb: only nodes that received a deposit have work. The lane order
    // follows the node's row parity within the routing region.
    i64 delivered = 0;
    for (const ActiveNode& an : ar.arrivals) {
      const i64 s = ar.slot_of(an.pos);
      unsigned char* flags = ar.lane_flags_at(s);
      const bool east_row = ((an.r - region.r0()) & 1) == 0;
      const int* order = east_row ? kLaneOrderEast : kLaneOrderWest;
      const i32 id = an.r * cols + an.c;
      for (int oi = 0; oi < kNumDirs; ++oi) {
        const int lane = order[oi];
        if (!flags[lane]) continue;
        flags[lane] = 0;
        const TransitRec rec = ar.lane_rec_at(s, lane);
        if (rec.dr == 0 && rec.dc == 0) {
          mesh.buf(id).push_back(ar.payload[rec.handle]);
          ++delivered;
        } else {
          // The offset was updated at the sender; requeue verbatim.
          if (ar.count_at(s) >= ar.cap()) ar.grow(ar.cap() * 2);
          ar.queue_at(s)[ar.count_at(s)++] = rec;
        }
      }
      const i64 logical = ar.count_at(s);
      stats.max_queue = std::max(stats.max_queue, logical);
      if (count_congestion) mesh.counters().observe_queue(id, logical);
    }
    // Next frontier: survivors of the old one plus arrivals that queued.
    ar.frontier_next.clear();
    for (const ActiveNode& an : ar.frontier) {
      if (ar.count(an.pos) > 0) {
        ar.frontier_next.push_back(an);
      } else {
        ar.in_frontier[static_cast<size_t>(an.pos)] = 0;
      }
    }
    for (const ActiveNode& an : ar.arrivals) {
      ar.arrival_mark[static_cast<size_t>(an.pos)] = 0;
      if (ar.count(an.pos) > 0 &&
          !ar.in_frontier[static_cast<size_t>(an.pos)]) {
        ar.in_frontier[static_cast<size_t>(an.pos)] = 1;
        ar.frontier_next.push_back(an);
      }
    }
    ar.arrivals.clear();
    ar.frontier.swap(ar.frontier_next);
    if (!ex.settle(delivered, in_flight, steps)) return;
  }
  stats.steps = steps;
}

}  // namespace meshpram::detail

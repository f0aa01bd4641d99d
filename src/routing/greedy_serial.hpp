// The serial active-list step loop shared by both greedy hop rules.
//
// route_greedy's serial path (greedy.cpp) and the fault-aware kernel
// (greedy_fault.cpp) run the same store-and-forward machine step and differ
// only in which queued records a node sends: the fault-free rule takes the
// farthest-first argmax per direction, the fault rule adds stall backoff,
// Pledge wall-following and ARQ drops. The loop below owns everything else —
// relative (dr, dc) records, lane deposits, queue compaction, absorb order,
// and the frontier/arrivals bookkeeping — so a step costs O(active nodes),
// not O(region).
//
// Why the visit order cannot change a result: a node's choices in a step
// depend only on its own queue (and, for the fault rule, on the per-packet
// state of the records in it and on pure plan queries for its own links);
// each lane has exactly one writer, each queue and buffer one owner, the
// counter cells are per node, and the tallies are sums and maxima. Any order
// of visiting the active nodes therefore yields the same step.
#pragma once

#include <algorithm>
#include <array>

#include "mesh/arena.hpp"
#include "mesh/machine.hpp"
#include "routing/greedy.hpp"
#include "routing/xy.hpp"
#include "util/error.hpp"

namespace meshpram::detail {

/// Runs the routing steps of one route call on the calling thread. `ar`
/// holds `in_flight` records scattered into its queues, and ar.frontier lists
/// the nodes with queued records. Fills stats.steps and stats.max_queue.
///
/// `rule` decides each node's senders:
///   rule.begin_step(step)          once per step, before any node moves;
///   rule.select(an, q, cnt, step, win)
///                                  for every node `an` with cnt > 0 queued
///                                  records q[0..cnt) (coordinates relative to
///                                  the node); sets win[d] to the index of the
///                                  record that leaves in direction d, or
///                                  leaves it -1. Chosen moves must stay inside
///                                  `region`.
template <class Rule>
void route_serial(Mesh& mesh, const Region& region, RouteArena& ar,
                  i64 in_flight, bool count_congestion, Rule& rule,
                  RouteStats& stats) {
  const int cols = mesh.cols();
  const i64 rcols = region.cols();

  // Seed: rewrite each queued record's coordinate fields from the absolute
  // destination to the remaining (dr, dc) offset. The loop owns the arena
  // until every queue drains, so nothing else sees the relative encoding; it
  // makes a record's direction and distance two register-width reads that
  // update incrementally per hop instead of a rescan every step. The caller
  // recorded the nodes with queued packets while it split the buffers, so
  // seeding costs O(active), not an O(region) sweep.
  for (const ActiveNode& an : ar.frontier) {
    const i64 s = ar.slot_of(an.pos);
    const i32 cnt = ar.count_at(s);
    TransitRec* q = ar.queue_at(s);
    for (i32 i = 0; i < cnt; ++i) {
      q[i].dest_r = static_cast<i16>(q[i].dest_r - an.r);
      q[i].dest_c = static_cast<i16>(q[i].dest_c - an.c);
      MP_ASSERT(q[i].dest_r != 0 || q[i].dest_c != 0,
                "arrived packet still in transit");
    }
    ar.in_frontier[static_cast<size_t>(an.pos)] = 1;
  }

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
      const i64 rr = an.r - region.r0();
      const bool east_row = (rr & 1) == 0;
      for (int di = 0; di < kNumDirs; ++di) {
        const i32 idx = win[static_cast<size_t>(di)];
        if (idx < 0) continue;
        TransitRec rec = q[idx];
        q[idx].handle = RouteArena::kInvalidHandle;
        const Coord to = step_toward({an.r, an.c}, static_cast<Dir>(di));
        MP_ASSERT(region.contains(to), "routing left the region");
        // Neighbour's snake position without the general snake_of: lateral
        // moves step by one (sign flips on odd rows), vertical moves land on
        // the mirrored offset of the adjacent row.
        i64 dpos;
        if (di == 1) {
          dpos = east_row ? pos + 1 : pos - 1;  // East
        } else if (di == 3) {
          dpos = east_row ? pos - 1 : pos + 1;  // West
        } else if (di == 2) {
          dpos = 2 * (rr + 1) * rcols - 1 - pos;  // South
        } else {
          dpos = 2 * rr * rcols - 1 - pos;  // North
        }
        MP_ASSERT(dpos == region.snake_of(to), "snake arithmetic mismatch");
        // Account for the hop the record is about to take.
        if (di == 1) {
          --rec.dest_c;
        } else if (di == 3) {
          ++rec.dest_c;
        } else if (di == 2) {
          --rec.dest_r;
        } else {
          ++rec.dest_r;
        }
        const i64 ds = ar.slot_of(dpos);
        ar.lane_rec_at(ds, kLaneOfMove[di]) = rec;
        ar.lane_flags_at(ds)[kLaneOfMove[di]] = 1;
        if (!ar.arrival_mark[static_cast<size_t>(dpos)]) {
          ar.arrival_mark[static_cast<size_t>(dpos)] = 1;
          ar.arrivals.push_back({static_cast<i32>(dpos),
                                 static_cast<i16>(to.r),
                                 static_cast<i16>(to.c)});
        }
        ++moves;
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
    // Absorb: only nodes that received a deposit have work.
    i64 delivered = 0;
    for (const ActiveNode& an : ar.arrivals) {
      const i64 s = ar.slot_of(an.pos);
      unsigned char* flags = ar.lane_flags_at(s);
      const Coord at{an.r, an.c};
      const bool east_row = ((at.r - region.r0()) & 1) == 0;
      const int* order = east_row ? kLaneOrderEast : kLaneOrderWest;
      for (int oi = 0; oi < kNumDirs; ++oi) {
        const int lane = order[oi];
        if (!flags[lane]) continue;
        flags[lane] = 0;
        const TransitRec rec = ar.lane_rec_at(s, lane);
        if (rec.dest_r == 0 && rec.dest_c == 0) {
          mesh.buf(at.r * cols + at.c).push_back(ar.payload[rec.handle]);
          ++delivered;
        } else {
          // The offset was updated at the sender; requeue verbatim.
          if (ar.count_at(s) >= ar.cap()) ar.grow(ar.cap() * 2);
          ar.queue_at(s)[ar.count_at(s)++] = rec;
        }
      }
      const i64 logical = ar.count_at(s);
      stats.max_queue = std::max(stats.max_queue, logical);
      if (count_congestion) {
        mesh.counters().observe_queue(at.r * cols + at.c, logical);
      }
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
    in_flight -= delivered;
  }
  stats.steps = steps;
}

}  // namespace meshpram::detail

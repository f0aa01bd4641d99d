// Fault-aware hop rule of the greedy XY router (DESIGN.md §10).
//
// route_greedy dispatches here when the mesh's fault plan affects routing
// (dead or stalled links, a positive drop rate). The rule runs on the same
// active-list loop as the fault-free argmax (greedy_band.hpp), always as a
// team of one, so a routing step visits only the nodes holding queued
// packets, and each visited node computes its 4-bit wall mask and stall mask
// once per step before choosing its senders. Set-up walks only the routing
// region, even when detours may cross a wider scope (route_greedy's
// detour_scope): every packet outside the region is already home.
//
// Determinism: every fault query is a pure function of (plan, node,
// direction, PRAM step, routing step), per-packet state travels with the
// packet's payload handle, each lane has one writer and each queue one
// owner, so the order in which the loop visits nodes cannot change a
// decision. Results are bit-identical to a snake-order sweep of the whole
// scope and at any thread count (the fault path is always serial).
//
// Fault handling per packet:
//   stall    — transient by definition (every stall window ends), so a packet
//              whose chosen link is stalled simply waits: step-tagged backoff
//              (retry next step, then exponential, capped at 8 steps), one
//              retry counted per blocked attempt. A stall never alters the
//              route decision — that keeps the maze the wall-follower below
//              perceives static.
//   detour   — dead links and the region boundary are permanent walls, and
//              the packet routes around them with the Pledge maze algorithm:
//              follow the XY gradient until a wall blocks it frontally, then
//              wall-follow (left hand on the wall: prefer left, straight,
//              right, U-turn) while summing signed quarter-turns; resume the
//              gradient once the turn counter returns to zero — or the packet
//              is closer to its destination than where it met the wall — and
//              the gradient direction is wall-free. Pledge provably escapes
//              any finite obstacle set in a static maze, so a reachable
//              destination is always reached; an unreachable one is caught
//              by the step cap and reported as FaultError.
//   drop     — a winner whose traversal the plan drops keeps its link slot
//              for the step (the corrupted word occupied the wire) but stays
//              queued; link-level ARQ retransmits it on a later step.
//
// No fault ever destroys an in-flight packet, so the access protocol's
// conservation assertions hold unchanged; a plan that walls a destination off
// completely is detected by the step cap and reported as FaultError rather
// than looping forever.
//
// MESHPRAM_FAULT_TRACE=<node id> prints every route decision for packets
// destined to that node. Within one routing step the lines come in
// active-list order, not snake order.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mesh/arena.hpp"
#include "routing/greedy.hpp"
#include "routing/greedy_band.hpp"
#include "routing/xy.hpp"
#include "telemetry/telemetry.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace meshpram::detail {

namespace {

const telemetry::Label kRouteFault = telemetry::intern("route.greedy.fault");

/// Step-tagged backoff: first two blocks retry next step, then exponential
/// capped at 8 steps.
i64 backoff_until(i64 step, i32 blocks) {
  if (blocks <= 2) return step + 1;
  return step + std::min<i64>(i64{1} << std::min<i32>(blocks - 2, 3), 8);
}

/// Dir is laid out clockwise (N=0 E=1 S=2 W=3): rotating right is +1.
Dir rot(Dir d, int quarter_turns_cw) {
  return static_cast<Dir>((static_cast<int>(d) + quarter_turns_cw) & 3);
}

/// Per-payload-handle fault state (stall backoff + Pledge wall-follower).
struct HandleState {
  i64 blocked_until = 0;  ///< packet waits while blocked_until > step
  i64 entry_rem = 0;      ///< Manhattan distance where the wall was met
  i32 turns = 0;          ///< signed quarter-turns since entering the wall
  i32 wall_steps = 0;     ///< hops spent on the current wall (safety net)
  i32 blocks = 0;         ///< consecutive blocked attempts (stall backoff)
  i32 heading = 0;        ///< Dir of the last hop while wall-following
  bool wall = false;      ///< currently wall-following
};

/// The fault hop rule for the routing loop (greedy_band.hpp): stall
/// backoff, Pledge wall-following and ARQ drops on top of farthest-first
/// arbitration. Records carry relative (dr, dc) offsets; absolute
/// destinations are rebuilt only for the FaultError text and the
/// MESHPRAM_FAULT_TRACE lines.
class FaultRule {
 public:
  FaultRule(Mesh& mesh, const Region& region, RouteArena& ar, i64 in_flight)
      : mesh_(mesh),
        region_(region),
        ar_(ar),
        plan_(*mesh.fault_plan()),
        pram_now_(mesh.fault_now()),
        count_congestion_(telemetry::sampling_on()),
        mesh_cols_(mesh.cols()),
        hs_(ar.payload.size()),
        trace_dest_(static_cast<i32>(
            env_i64("MESHPRAM_FAULT_TRACE", 0, mesh.size() - 1)
                .value_or(-1))),
        // Generous cap: any reachable destination is reached long before
        // this on a connected survivor mesh (a Pledge traversal rounds each
        // obstacle in at most its perimeter of hops); hitting the cap means
        // the plan walled a packet in. The region-size term budgets
        // worst-case wall traversals even when only a handful of packets are
        // in flight.
        step_cap_(64 * (region.rows() + region.cols()) + 16 * in_flight +
                  8 * region.size() + 256),
        // Safety net for the wall-follower: the boundary of any obstacle set
        // fits in 4*size directed wall edges, so a correct traversal never
        // needs more hops than that. A counter corrupted beyond it (possible
        // only while stall windows were rewriting the perceived maze) is
        // discarded and the packet restarts Pledge fresh — on the now-static
        // maze the fresh run is correct.
        wall_reset_(static_cast<i32>(4 * region.size() + 16)) {}

  i64 retried = 0;
  i64 dropped = 0;
  i64 detoured = 0;

  void begin_step(i64 step) {
    if (step > step_cap_) throw_unroutable();
  }

  void select(const ActiveNode& an, const TransitRec* q, i32 cnt, i64 step,
              std::array<i32, kNumDirs>& win) {
    const Coord at{an.r, an.c};
    const i32 id = nid_of(at);
    // This node's walls and stalled links, once per step. A wall is
    // permanent: the region boundary or a dead link. A packet that the
    // hardened sort network left at a DEAD node is the one exception: the
    // dead node's switch fabric keeps relaying (the same model boundary that
    // lets the systolic phases traverse it), so resident words percolate
    // outward — straight through a contiguous dead cluster — until they exit
    // into an alive node. The router never hands a dead node new packets:
    // its incident links are dead for everyone routing from an alive node.
    const bool at_dead = plan_.node_dead(id);
    unsigned walls = 0;
    unsigned stalls = 0;
    for (int d = 0; d < kNumDirs; ++d) {
      const Dir c = static_cast<Dir>(d);
      if (!region_.contains(step_toward(at, c)) ||
          (!at_dead && plan_.link_dead(id, c))) {
        walls |= 1u << d;
      } else if (!at_dead && plan_.link_stalled(id, c, pram_now_, step)) {
        stalls |= 1u << d;
      }
    }
    const auto wall_at = [walls](Dir c) {
      return ((walls >> static_cast<int>(c)) & 1u) != 0;
    };
    const auto pause_at = [stalls](Dir c) {
      return ((stalls >> static_cast<int>(c)) & 1u) != 0;
    };

    std::array<i64, kNumDirs> best_dist{};
    std::array<bool, kNumDirs> best_wall{};
    std::array<bool, kNumDirs> best_enter{};
    std::array<i32, kNumDirs> best_turn{};
    for (i32 i = 0; i < cnt; ++i) {
      HandleState& st = hs_[q[i].handle];
      if (st.blocked_until > step) continue;  // backing off
      const int dr = q[i].dr;
      const int dc = q[i].dc;
      MP_ASSERT(dr != 0 || dc != 0, "arrived packet still in transit");
      const Dir primary = xy_dir(dr, dc);  // the XY gradient
      const i64 rem = std::abs(dr) + std::abs(dc);
      if (st.wall && st.wall_steps > wall_reset_) {
        st.wall = false;  // corrupted traversal (see wall_reset_): restart
        st.turns = 0;
        st.wall_steps = 0;
      }
      Dir use = primary;
      i32 turn_delta = 0;
      bool wall_move = false;
      bool enter = false;
      bool wait = false;
      bool found = false;
      const bool may_leave_wall = st.wall &&
                                  (st.turns == 0 || rem < st.entry_rem) &&
                                  !wall_at(primary);
      if (!st.wall || may_leave_wall) {
        // Greedy: follow the XY gradient (re-joining it if the wall is
        // done). A committed greedy move clears all wall state.
        if (!wall_at(primary)) {
          if (pause_at(primary)) {
            wait = true;
          } else {
            found = true;
          }
        } else {
          // Frontal block: put the left hand on the wall ahead — rotate
          // right until a non-wall direction appears, counting each
          // quarter-turn. A cul-de-sac U-turns out at +2.
          enter = true;
          for (int k = 1; k <= 3 && !found && !wait; ++k) {
            const Dir c = rot(primary, k);
            if (wall_at(c)) continue;
            if (pause_at(c)) {
              wait = true;
            } else {
              use = c;
              turn_delta = k;
              wall_move = true;
              found = true;
            }
          }
          if (!found) wait = true;  // every link is a wall: wait (and let
                                    // the step cap report a walled-in
                                    // packet if none ever opens)
        }
      } else {
        // Wall traversal, left hand on the wall: prefer left, straight,
        // right, then U-turn, relative to the last hop's heading. The first
        // non-wall candidate IS the Pledge move; if that link is stalled the
        // packet waits for it rather than re-deciding, so the traversal is a
        // pure function of the dead-link maze.
        const Dir h = static_cast<Dir>(st.heading);
        const Dir cand[4] = {rot(h, 3), h, rot(h, 1), rot(h, 2)};
        const i32 delta[4] = {-1, 0, +1, +2};
        for (int k = 0; k < 4 && !found && !wait; ++k) {
          if (wall_at(cand[k])) continue;
          if (pause_at(cand[k])) {
            wait = true;
          } else {
            use = cand[k];
            turn_delta = delta[k];
            wall_move = true;
            found = true;
          }
        }
        if (!found) wait = true;
      }
      if (wait) {
        ++st.blocks;
        st.blocked_until = backoff_until(step, st.blocks);
        ++retried;
        if (count_congestion_) mesh_.counters().add_retries(id, 1);
        continue;
      }
      if (trace_dest_ >= 0 && nid_of({at.r + dr, at.c + dc}) == trace_dest_) {
        std::fprintf(stderr,
                     "[trace] step=%lld at=%d use=%d wall=%d enter=%d "
                     "turns=%d+%d rem=%lld entry_rem=%lld\n",
                     (long long)step, id, static_cast<int>(use),
                     static_cast<int>(st.wall || wall_move),
                     static_cast<int>(enter), st.turns, turn_delta,
                     (long long)rem, (long long)st.entry_rem);
      }
      const auto di = static_cast<size_t>(use);
      if (win[di] < 0 || rem > best_dist[di]) {
        win[di] = i;
        best_dist[di] = rem;
        best_wall[di] = wall_move;
        best_enter[di] = enter;
        best_turn[di] = turn_delta;
      }
    }
    for (int d = 0; d < kNumDirs; ++d) {
      const auto di = static_cast<size_t>(d);
      if (win[di] < 0) continue;
      if (plan_.drop(id, static_cast<Dir>(d), pram_now_, step)) {
        // Corrupted on the wire: the slot is spent, the packet stays queued
        // for retransmission.
        win[di] = -1;
        ++dropped;
        ++retried;
        if (count_congestion_) mesh_.counters().add_retries(id, 1);
        continue;
      }
      // Moves: clear the backoff state and commit the wall-follower's
      // transition. Wall state only ever changes on an actual hop — a packet
      // that loses arbitration or gets dropped re-derives the same decision
      // next step, so the traversal stays consistent.
      HandleState& st = hs_[q[win[di]].handle];
      st.blocked_until = 0;
      st.blocks = 0;
      if (best_wall[di]) {
        if (best_enter[di]) {
          st.wall = true;
          st.turns = best_turn[di];
          st.wall_steps = 1;
          st.entry_rem = best_dist[di];
        } else {
          st.turns += best_turn[di];
          ++st.wall_steps;
        }
        st.heading = d;
        ++detoured;
      } else {
        st.wall = false;
        st.turns = 0;
        st.wall_steps = 0;
      }
    }
  }

 private:
  i32 nid_of(Coord x) const { return static_cast<i32>(x.r * mesh_cols_ + x.c); }

  /// Step cap exceeded: lists up to eight stuck packets in snake order.
  [[noreturn]] void throw_unroutable() {
    std::vector<ActiveNode> stuck = ar_.frontier;
    std::sort(stuck.begin(), stuck.end(),
              [](const ActiveNode& a, const ActiveNode& b) {
                return a.pos < b.pos;
              });
    i64 remaining = 0;
    std::string detail;
    int listed = 0;
    for (const ActiveNode& an : stuck) {
      const i32 cnt = ar_.count_at(ar_.slot_of(an.pos));
      const TransitRec* q = ar_.queue_at(ar_.slot_of(an.pos));
      remaining += cnt;
      for (i32 i = 0; i < cnt && listed < 8; ++i, ++listed) {
        const i32 dest = nid_of({an.r + q[i].dr, an.c + q[i].dc});
        detail += "; packet at " + std::to_string(nid_of({an.r, an.c})) +
                  " -> " + std::to_string(dest) +
                  (plan_.node_dead(dest) ? " (dest DEAD)" : "");
      }
    }
    throw fault::FaultError(
        "fault plan leaves " + std::to_string(remaining) +
        " packet(s) unroutable after " + std::to_string(step_cap_) +
        " steps (" + plan_.summary() + ")" + detail);
  }

  Mesh& mesh_;
  const Region& region_;
  RouteArena& ar_;
  const fault::FaultPlan& plan_;
  const i64 pram_now_;
  const bool count_congestion_;
  const i64 mesh_cols_;
  std::vector<HandleState> hs_;  // per payload handle
  const i32 trace_dest_;
  const i64 step_cap_;
  const i32 wall_reset_;
};

}  // namespace

void route_greedy_fault(Mesh& mesh, const Region& scope, RouteArena& ar,
                        i64 in_flight, RouteStats& stats) {
  telemetry::Span span(telemetry::Cat::Fault, kRouteFault);
  FaultRule rule(mesh, scope, ar, in_flight);
  NoExchange none;
  route_band(mesh, scope, scope, ar, in_flight, telemetry::sampling_on(), rule,
             none, stats);
  stats.fault_retried = rule.retried;
  stats.fault_dropped = rule.dropped;
  stats.fault_detoured = rule.detoured;
  FaultTally& tally = mesh.fault_tally();
  tally.retried.fetch_add(rule.retried, std::memory_order_relaxed);
  tally.dropped.fetch_add(rule.dropped, std::memory_order_relaxed);
  tally.detoured.fetch_add(rule.detoured, std::memory_order_relaxed);
  span.set_steps(stats.steps);
}

}  // namespace meshpram::detail

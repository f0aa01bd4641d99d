#include "routing/greedy.hpp"

#include <algorithm>
#include <vector>

#include "mesh/arena.hpp"
#include "mesh/parallel.hpp"
#include "routing/greedy_band.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

const telemetry::Label kRouteGreedy = telemetry::intern("route.greedy");
const telemetry::Label kRouteStripe = telemetry::intern("route.stripe");

/// Extra queue capacity beyond the setup max depth (set_route_initial_headroom).
i64 g_route_headroom = 2;

/// One band's mailbox in a stripe team. out[0] holds the step's hops leaving
/// through the band's top edge, out[1] through its bottom edge; `pending` is
/// the band's set-up count minus its deliveries so far, so the bands'
/// pendings sum to the team's in-flight total.
struct alignas(64) BandSlot {
  std::vector<BoundaryHop> out[2];
  i64 pending = 0;
  RouteStats stats;
};

/// The stripe team's in-memory exchange (see route_band). Each band writes
/// only its own slot; its neighbours read the slot's outboxes between the two
/// barriers of a step, and every band reads every `pending` after the second.
class TeamExchange {
 public:
  static constexpr bool kBanded = true;

  TeamExchange(std::vector<BandSlot>& slots, SpinBarrier& barrier, int band)
      : slots_(slots), barrier_(barrier), band_(band) {}

  bool start(i64 local, i64& in_flight) {
    own().pending = local;
    return sum(in_flight);
  }
  std::vector<BoundaryHop>& outbox(bool north) {
    return own().out[north ? 0 : 1];
  }
  bool trade() { return barrier_.wait(); }
  const std::vector<BoundaryHop>* incoming(bool north) const {
    const size_t b = static_cast<size_t>(band_);
    if (north) return b > 0 ? &slots_[b - 1].out[1] : nullptr;
    return b + 1 < slots_.size() ? &slots_[b + 1].out[0] : nullptr;
  }
  bool settle(i64 delivered, i64& in_flight, i64 /*step*/) {
    own().pending -= delivered;
    if (!sum(in_flight)) return false;
    // Both neighbours imported these before the barrier.
    own().out[0].clear();
    own().out[1].clear();
    return true;
  }

 private:
  BandSlot& own() { return slots_[static_cast<size_t>(band_)]; }

  bool sum(i64& in_flight) {
    if (!barrier_.wait()) return false;
    in_flight = 0;
    for (const BandSlot& slot : slots_) in_flight += slot.pending;
    return true;
  }

  std::vector<BandSlot>& slots_;
  SpinBarrier& barrier_;
  int band_;
};

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

/// Routes `region` on a team of `team` row bands, one pool thread each. Band
/// b holds rows/team rows, plus one for the first rows%team bands; each band
/// sets itself up, then runs route_band on its own arena.
void route_team(Mesh& mesh, const Region& region, int team,
                bool count_congestion, RouteStats& stats) {
  std::vector<BandSlot> slots(static_cast<size_t>(team));
  SpinBarrier barrier(team);
  const int base = region.rows() / team;
  const int extra = region.rows() % team;
  execution_pool().for_each_index(team, [&](i64 index) {
    const int b = static_cast<int>(index);
    telemetry::Span worker(telemetry::Cat::Region, kRouteStripe, b);
    const Region band(region.r0() + b * base + std::min(b, extra),
                      region.c0(), base + (b < extra ? 1 : 0),
                      region.cols());
    RouteStats& bs = slots[static_cast<size_t>(b)].stats;
    try {
      ArenaPool::Lease ar(mesh.route_arenas());
      const i64 local = detail::setup_band(mesh, region, band, band, *ar, bs);
      detail::XyRule rule;
      TeamExchange ex(slots, barrier, b);
      detail::route_band(mesh, region, band, *ar, local, count_congestion,
                         rule, ex, bs);
    } catch (...) {
      barrier.kill();  // release the team before unwinding
      throw;
    }
    worker.set_steps(bs.steps);
  });
  stats.steps = slots[0].stats.steps;
  for (const BandSlot& slot : slots) {
    MP_ASSERT(slot.stats.steps == stats.steps, "stripe team diverged");
    stats.max_queue = std::max(stats.max_queue, slot.stats.max_queue);
    stats.packets += slot.stats.packets;
    stats.total_distance += slot.stats.total_distance;
  }
}

}  // namespace

namespace detail {

i64 setup_band(Mesh& mesh, const Region& region, const Region& band,
               const Region& scope, RouteArena& ar, RouteStats& stats) {
  MP_REQUIRE(mesh.rows() <= 32767 && mesh.cols() <= 32767,
             "mesh too large for 16-bit transit coordinates");
  ar.reset(scope, mesh.order().kind());
  const bool wide = !(scope == band);
  i64 in_flight = 0;
  i64 max_depth = 0;
  for (RegionCursor cur = mesh.cursor(band); cur.valid(); cur.advance()) {
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
        continue;
      }
      ar.setup_rec.push_back(TransitRec{static_cast<u32>(ar.payload.size()),
                                        static_cast<i16>(d.r - x.r),
                                        static_cast<i16>(d.c - x.c)});
      ar.setup_pos.push_back(pos);
      ar.payload.push_back(p);
      const i32 depth = ++ar.count(pos);
      if (depth == 1) {
        ar.frontier.push_back(
            {static_cast<i32>(pos), static_cast<i16>(x.r),
             static_cast<i16>(x.c)});
        ar.in_frontier[static_cast<size_t>(pos)] = 1;
      }
      max_depth = std::max<i64>(max_depth, depth);
      ++in_flight;
    }
    b.erase(keep, b.end());
  }
  // Initial capacity with headroom so the first arrivals don't force an
  // immediate grow; doubling takes over from there. Only the nodes in the
  // frontier hold a nonzero count, so the re-zero before the scatter touches
  // O(active) nodes, not O(scope). A band with nothing to send still lays
  // out its queues: hops from its neighbours may land on it.
  ar.layout(std::max<i64>(kNumDirs, max_depth + g_route_headroom));
  for (const ActiveNode& an : ar.frontier) ar.count(an.pos) = 0;
  for (size_t i = 0; i < ar.setup_rec.size(); ++i) {
    const i64 pos = ar.setup_pos[i];
    ar.queue(pos)[ar.count(pos)++] = ar.setup_rec[i];
  }
  return in_flight;
}

}  // namespace detail

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
  // Fault plans that touch routing divert to the fault hop rule (stall
  // backoff, detours, drop retransmission), whose detours may cross all of
  // `detour_scope`. Module-only plans — and no plan at all — keep the XY
  // rule, which never leaves `region`: an XY path stays inside the
  // rectangle spanned by its endpoints.
  const fault::FaultPlan* plan = mesh.fault_plan();
  const bool fault_kernel = plan != nullptr && plan->affects_routing();
  const Region& scope = fault_kernel ? detour_scope : region;
  MP_REQUIRE(scope == region ||
                 (scope.contains({region.r0(), region.c0()}) &&
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
  // node's cells are written only by the band that owns the node (sources
  // count forwards, receivers observe queues), so the counter grids stay
  // thread-count invariant.
  const bool count_congestion = telemetry::sampling_on();

  // Stripe team: one row band per pool thread, when the caller is not itself
  // a pool worker (the region loops already use every thread, and the pool
  // is not reentrant) and the region is large. The fault rule always runs
  // as a team of one.
  int team = 1;
  if (!fault_kernel && !in_parallel_worker() && execution_threads() > 1 &&
      region.size() >= stripe_min_nodes()) {
    team = static_cast<int>(std::min<i64>(execution_threads(), region.rows()));
  }
  if (team > 1) {
    route_team(mesh, region, team, count_congestion, stats);
  } else {
    ArenaPool::Lease ar(mesh.route_arenas());
    const i64 in_flight =
        detail::setup_band(mesh, region, region, scope, *ar, stats);
    if (fault_kernel) {
      detail::route_greedy_fault(mesh, scope, *ar, in_flight, stats);
    } else {
      detail::XyRule rule;
      detail::NoExchange none;
      detail::route_band(mesh, region, region, *ar, in_flight,
                         count_congestion, rule, none, stats);
    }
  }
  span.set_steps(stats.steps);
  return stats;
}

}  // namespace meshpram

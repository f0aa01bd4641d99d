// The staged access protocol (access.hpp): packet generation, forward
// stages k+1..2, delivery and access, the return journey, and collection.
//
// Routing scope. Every per-region route call is
// route_greedy(mesh_, g, mesh_.whole()): packets start and end in the stage
// region g, and only a fault detour may use the rest of the mesh. Fault-free,
// the call routes inside g (an XY path never leaves it), so a stage's
// regions run in parallel and the stage is charged the max over them. Under
// a plan that affects_routing(), a detour may have to leave g (a dead link
// inside a 1-wide strip disconnects the strip internally while the
// surrounding mesh still has paths around), so the fault kernel routes at
// whole-mesh scope; the stage loops then run one region after another and
// are charged the sum (stage_cost in execute()). Set-up still walks only g:
// every route call leaves all of its packets home, and a stage re-targets
// only the packets of the region it routes next, so every packet outside g
// already sits at its destination. The conservation assertion in the
// collect phase checks, at the end of each step, that no packet was lost
// or stranded.
//
// Rank scope. The caller's RankScope (access.hpp) carries every difference
// between the single process and a rank of the distributed machine: the
// inner-stage loops route only the regions the scope routes and pass their
// charge through stage_charge, the two whole-mesh routes go through
// route_whole, and only owned nodes serve accesses and collect results. The
// body never asks which caller it serves.

#include "protocol/access.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "mesh/parallel.hpp"
#include "routing/greedy.hpp"
#include "routing/rank.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

/// Chunk size for the flat per-node sweeps (same grain as culling.cpp). All
/// of them touch only the node's own buffer/store/result cell, so the
/// chunking never shows in the results.
constexpr i64 kNodeGrain = 64;

// Stage-cat spans partition StepStats::total_steps (telemetry.hpp): CULLING
// iterations + forward stages + delivery + return stages; everything else
// here is Phase-cat detail nested inside them.
const telemetry::Label kCullingRun = telemetry::intern("culling.run");
const telemetry::Label kGenPackets = telemetry::intern("access.gen_packets");
const telemetry::Label kDistribute = telemetry::intern("access.distribute");
const telemetry::Label kForwardStage = telemetry::intern("access.forward");
const telemetry::Label kDeliverStage = telemetry::intern("access.deliver");
const telemetry::Label kApplyAccess = telemetry::intern("access.apply");
const telemetry::Label kReturnStage = telemetry::intern("access.return");
const telemetry::Label kCollect = telemetry::intern("access.collect");

/// The single process's scope: one rank that is the whole machine.
class WholeMesh final : public RankScope {
 public:
  bool routes_region(const Region&) const override { return true; }
  bool owns_node(i32) const override { return true; }
  i64 stage_charge(i64 local) override { return local; }
  i64 route_whole(Mesh& mesh) override {
    return route_greedy(mesh, mesh.whole()).steps;
  }
  void exchange_fills(Mesh&) override {}
  void gather_results(std::vector<i64>&) override {}
};

}  // namespace

AccessProtocol::AccessProtocol(Mesh& mesh, const Placement& placement,
                               SortOptions sort_opts)
    : mesh_(mesh),
      placement_(placement),
      sort_opts_(sort_opts),
      culling_(mesh, placement, sort_opts) {
  const int k = placement.map().params().k();
  level_regions_.resize(static_cast<size_t>(k) + 1);
  for (int i = 1; i <= k; ++i) {
    std::set<std::tuple<int, int, int, int>> seen;
    for (const PageInfo& page : placement.pages(i)) {
      const Region& g = page.region;
      if (seen.insert({g.r0(), g.c0(), g.rows(), g.cols()}).second) {
        level_regions_[static_cast<size_t>(i)].push_back(g);
      }
    }
  }
}

i64 AccessProtocol::distribute_stage(const Region& region, int dest_level,
                                     RankScope& scope) {
  telemetry::Span span(telemetry::Cat::Phase, kDistribute, dest_level);
  // Key every packet by its destination page at dest_level, read from this
  // step's copy table. Chunk-parallel when called for the whole mesh (stage
  // k+1); the per-region calls come from pool workers and stay serial
  // (for_each_region_chunk gates on that).
  const CopyTable& copies = culling_.copies();
  for_each_region_chunk(
      mesh_, region, kNodeGrain, [&](RegionCursor& cur, i64 end) {
        for (; cur.pos() < end; cur.advance()) {
          for (Packet& p : mesh_.buf(cur.id())) {
            p.key = static_cast<u64>(copies.page(p, dest_level));
          }
        }
      });
  i64 steps = sort_region(mesh_, region, sort_opts_);
  steps += rank_within_groups(mesh_, region);

  const auto& pages = placement_.pages(dest_level);
  const fault::FaultPlan* plan = mesh_.fault_plan();
  const bool skip_dead = plan != nullptr && plan->has_dead_nodes();
  for_each_region_chunk(
      mesh_, region, kNodeGrain, [&](RegionCursor& cur, i64 end) {
        for (; cur.pos() < end; cur.advance()) {
          for (Packet& p : mesh_.buf(cur.id())) {
            const Region& sub = pages[static_cast<size_t>(p.key)].region;
            MP_ASSERT(region.contains(sub.at_snake(0)),
                      "destination page region escapes the stage region");
            if (skip_dead) {
              // Degraded mode: spread rank r over the page's alive nodes
              // only — dead processors host no intermediate stops. With no
              // dead node in the page this equals the fault-free formula.
              const auto& alive =
                  alive_slots_[static_cast<size_t>(dest_level)]
                              [static_cast<size_t>(p.key)];
              MP_ASSERT(!alive.empty(),
                        "packet targets a fully dead page region; its copies "
                        "should have been culled");
              p.dest = alive[static_cast<size_t>(
                  static_cast<i64>(p.rank) %
                  static_cast<i64>(alive.size()))];
            } else {
              p.dest = mesh_.node_id(
                  sub.at_snake(static_cast<i64>(p.rank) % sub.size()));
            }
          }
        }
      });
  steps += dest_level == placement_.map().params().k()
               ? scope.route_whole(mesh_)
               : route_greedy(mesh_, region, mesh_.whole()).steps;

  // Record the stop for the return journey.
  for_each_region_chunk(
      mesh_, region, kNodeGrain, [&](RegionCursor& cur, i64 end) {
        for (; cur.pos() < end; cur.advance()) {
          const i32 id = cur.id();
          for (Packet& p : mesh_.buf(id)) p.push_trail(id);
        }
      });
  span.set_steps(steps);
  return steps;
}

void AccessProtocol::build_alive_slots(const fault::FaultPlan* plan) {
  const int k = placement_.map().params().k();
  alive_slots_.assign(static_cast<size_t>(k) + 1, {});
  for (int level = 1; level <= k; ++level) {
    const auto& pages = placement_.pages(level);
    auto& lvl = alive_slots_[static_cast<size_t>(level)];
    lvl.resize(pages.size());
    for (size_t pg = 0; pg < pages.size(); ++pg) {
      const Region& g = pages[pg].region;
      auto& slots = lvl[pg];
      slots.reserve(static_cast<size_t>(g.size()));
      for (i64 s = 0; s < g.size(); ++s) {
        const i32 id = mesh_.node_id(g.at_snake(s));
        if (!plan->node_dead(id)) slots.push_back(id);
      }
      // A fully dead page region is legal: every copy under it sits on a
      // dead module (node faults kill the module too), so CULLING never
      // selects one and no packet ever targets the page. The slot list stays
      // empty; distribute_stage asserts it is never consulted.
    }
  }
  alive_plan_ = plan;
}

std::vector<i64> AccessProtocol::execute(
    const std::vector<AccessRequest>& requests, i64 timestamp,
    StepStats* stats, const i32* write_group, RankScope* rank_scope) {
  WholeMesh whole_mesh;
  RankScope& scope = rank_scope != nullptr ? *rank_scope : whole_mesh;
  const HmosParams& params = placement_.map().params();
  const int k = params.k();
  const i64 n = mesh_.size();
  MP_REQUIRE(static_cast<i64>(requests.size()) == n,
             "requests size " << requests.size() << " != mesh size " << n);
  MP_REQUIRE(mesh_.total_packets(mesh_.whole()) == 0,
             "mesh buffers must be empty before an access step");
  MP_REQUIRE(write_group == nullptr || mesh_.fault_plan() == nullptr,
             "coalesced (grouped) steps are not supported under a fault plan");

  // EREW: requested variables must be pairwise distinct.
  {
    std::set<i64> vars;
    for (const AccessRequest& r : requests) {
      if (r.var < 0) continue;
      MP_REQUIRE(r.var < params.num_vars(), "variable " << r.var);
      MP_REQUIRE(vars.insert(r.var).second,
                 "EREW violation: variable " << r.var
                                             << " requested twice in a step");
    }
  }

  StepStats local;
  StepStats& st = stats != nullptr ? *stats : local;
  st = StepStats{};

  // ---- Fault-plan setup ---------------------------------------------------
  const fault::FaultPlan* plan = mesh_.fault_plan();
  std::vector<char> request_ok;
  if (plan != nullptr) {
    mesh_.set_fault_now(timestamp);
    mesh_.fault_tally().reset();
    st.fault.dead_nodes = plan->dead_node_count();
    st.fault.dead_modules = plan->dead_module_count();
    request_ok.assign(static_cast<size_t>(n), 1);
    if (plan->has_dead_nodes() && alive_plan_ != plan) {
      build_alive_slots(plan);
    }
  }

  // ---- Copy selection -----------------------------------------------------
  std::vector<i64> request_vars(static_cast<size_t>(n), -1);
  for (i64 node = 0; node < n; ++node) {
    request_vars[static_cast<size_t>(node)] =
        requests[static_cast<size_t>(node)].var;
  }
  if (plan != nullptr && plan->has_dead_nodes()) {
    // A fail-stop processor issues no requests: its access fails up front.
    for (i64 node = 0; node < n; ++node) {
      if (request_vars[static_cast<size_t>(node)] >= 0 &&
          plan->node_dead(static_cast<i32>(node))) {
        request_vars[static_cast<size_t>(node)] = -1;
        request_ok[static_cast<size_t>(node)] = 0;
        ++st.fault.requests_failed;
      }
    }
  }
  std::vector<std::vector<i64>> selections;
  {
    telemetry::Span culling_span(telemetry::Cat::Phase, kCullingRun);
    selections = culling_.run(request_vars, &st.culling,
                              plan != nullptr ? &request_ok : nullptr);
    st.culling_steps = st.culling.steps;
    culling_span.set_steps(st.culling_steps);
  }
  st.fault.copies_lost += st.culling.copies_lost;
  st.fault.requests_degraded += st.culling.requests_degraded;
  st.fault.requests_failed += st.culling.requests_failed;

  // ---- Packet generation --------------------------------------------------
  {
    telemetry::Span gen_span(telemetry::Cat::Phase, kGenPackets);
    std::atomic<i64> packets{0};  // commutative sum: thread-count invariant
    // Chunked over physical slots so the buffer writes stream the slab.
    execution_pool().for_each_chunk(n, kNodeGrain, [&](i64 begin, i64 end) {
      i64 local = 0;
      for (i64 slot = begin; slot < end; ++slot) {
        const i32 node = mesh_.order().id_of(static_cast<i32>(slot));
        const AccessRequest& req = requests[static_cast<size_t>(node)];
        if (req.var < 0) continue;
        for (i64 code : selections[static_cast<size_t>(node)]) {
          Packet p;
          p.var = req.var;
          p.copy = static_cast<u64>(req.var) *
                       static_cast<u64>(params.redundancy()) +
                   static_cast<u64>(code);
          p.origin = node;
          p.op = req.op;
          p.value = req.value;
          if (req.op == Op::Write) {
            // Writes carry their logical time with them: grouped steps stamp
            // each origin's group offset here so one routing pass leaves the
            // same timestamps sequential execution would.
            p.timestamp =
                timestamp + (write_group != nullptr ? write_group[node] : 0);
          }
          mesh_.buf(node).push_back(p);
          ++local;
        }
      }
      packets.fetch_add(local, std::memory_order_relaxed);
    });
    st.packets += packets.load(std::memory_order_relaxed);
  }

  // ---- Forward stages k+1 .. 2 -------------------------------------------
  // Stage k+1 spans the whole mesh; the inner stages run one worker per
  // level-i submesh (disjoint regions, see mesh/parallel.hpp) and are charged
  // the max over them. Under routing faults the submeshes cannot run
  // concurrently (detours may cross their boundaries, see the file comment),
  // so each stage loop runs serially and is charged the sum of its submesh
  // costs instead. Either way a stage covers only the regions the scope
  // routes, and the scope combines the charge across ranks.
  const bool routing_faults = plan != nullptr && plan->affects_routing();
  std::vector<Region> routed;
  auto stage_cost = [&](const std::vector<Region>& regions,
                        const std::function<i64(const Region&)>& fn) -> i64 {
    routed.clear();
    for (const Region& g : regions) {
      if (scope.routes_region(g)) routed.push_back(g);
    }
    i64 cost = 0;
    if (!routing_faults) {
      cost = parallel_max_regions(mesh_, routed, fn);
    } else {
      for (const Region& g : routed) cost += fn(g);
    }
    return scope.stage_charge(cost);
  };
  for (int stage = k + 1; stage >= 2; --stage) {
    telemetry::Span stage_span(telemetry::Cat::Stage, kForwardStage, stage);
    const i64 cost =
        stage == k + 1
            ? distribute_stage(mesh_.whole(), k, scope)
            : stage_cost(level_regions_[static_cast<size_t>(stage)],
                         [&](const Region& g) {
                           return distribute_stage(g, stage - 1, scope);
                         });
    st.forward_stage_steps.push_back(cost);
    st.forward_steps += cost;
    stage_span.set_steps(cost);
  }

  // ---- Stage 1: deliver and access ----------------------------------------
  {
    telemetry::Span deliver_span(telemetry::Cat::Stage, kDeliverStage, 1);
    const CopyTable& copies = culling_.copies();
    const i64 cost = stage_cost(level_regions_[1], [&](const Region& g) {
      for (RegionCursor cur = mesh_.cursor(g); cur.valid(); cur.advance()) {
        for (Packet& p : mesh_.buf(cur.id())) p.dest = copies.holder(p);
      }
      return route_greedy(mesh_, g, mesh_.whole()).steps;
    });
    st.forward_stage_steps.push_back(cost);
    st.forward_steps += cost;
    deliver_span.set_steps(cost);
  }
  {
    // Perform the accesses at the destination processors.
    telemetry::Span apply_span(telemetry::Cat::Phase, kApplyAccess);
    const bool count_touches = telemetry::sampling_on();
    mesh_.for_each_node(kNodeGrain, [&](i32 node) {
      if (!scope.owns_node(node)) return;
      auto& store = mesh_.store(node);
      auto& b = mesh_.buf(node);
      if (count_touches && !b.empty()) {
        mesh_.counters().add_copies_touched(node, static_cast<i64>(b.size()));
      }
      for (Packet& p : b) {
        if (p.op == Op::Write) {
          store[p.copy] = CopySlot{p.value, p.timestamp};
        } else {
          const CopySlot* slot = store.find(p.copy);
          if (slot != nullptr) {
            p.value = slot->value;
            p.timestamp = slot->timestamp;
          } else {
            p.value = 0;
            p.timestamp = -1;
          }
        }
      }
    });
    scope.exchange_fills(mesh_);
  }

  // ---- Return journey ------------------------------------------------------
  // Retrace trail stops: level-1 regions first, then level 2, ..., then the
  // whole mesh back to the origins.
  for (int stage = 1; stage <= k; ++stage) {
    telemetry::Span stage_span(telemetry::Cat::Stage, kReturnStage, stage);
    const int trail_idx = k - stage;  // trail[k-1] = innermost stop
    const i64 cost = stage_cost(
        level_regions_[static_cast<size_t>(stage)], [&](const Region& g) {
          bool any = false;
          for (RegionCursor cur = mesh_.cursor(g); cur.valid();
               cur.advance()) {
            for (Packet& p : mesh_.buf(cur.id())) {
              MP_ASSERT(p.trail_len == k, "packet with incomplete trail");
              p.dest = p.trail[static_cast<size_t>(trail_idx)];
              any = true;
            }
          }
          if (!any) return i64{0};
          return route_greedy(mesh_, g, mesh_.whole()).steps;
        });
    st.return_steps += cost;
    stage_span.set_steps(cost);
  }
  {
    telemetry::Span stage_span(telemetry::Cat::Stage, kReturnStage, k + 1);
    mesh_.for_each_node(kNodeGrain, [&](i32 node) {
      for (Packet& p : mesh_.buf(node)) p.dest = p.origin;
    });
    const i64 steps = scope.route_whole(mesh_);
    st.return_steps += steps;
    stage_span.set_steps(steps);
  }

  // ---- Collect results -----------------------------------------------------
  telemetry::Span collect_span(telemetry::Cat::Phase, kCollect);
  std::vector<i64> results(static_cast<size_t>(n), 0);
  mesh_.for_each_node(kNodeGrain, [&](i32 node) {
    auto& b = mesh_.buf(node);
    if (!scope.owns_node(node)) {
      b.clear();  // the owning rank checks and collects this node
      return;
    }
    const AccessRequest& req = requests[static_cast<size_t>(node)];
    i64 best_ts = -2;
    i64 best_val = 0;
    i64 got = 0;
    for (const Packet& p : b) {
      MP_ASSERT(p.origin == node && p.var == req.var,
                "packet returned to the wrong origin");
      ++got;
      if (p.op == Op::Read && p.timestamp > best_ts) {
        best_ts = p.timestamp;
        best_val = p.value;
      }
    }
    if (req.var >= 0) {
      if (request_ok.empty() || request_ok[static_cast<size_t>(node)] != 0) {
        // No fault ever destroys an in-flight packet (drops are
        // retransmitted, stalls delay, detours reroute), so conservation
        // holds even under an active plan.
        MP_ASSERT(
            got == static_cast<i64>(
                       selections[static_cast<size_t>(node)].size()),
            "lost packets: " << got << " of "
                             << selections[static_cast<size_t>(node)].size()
                             << " returned");
        if (req.op == Op::Read) {
          results[static_cast<size_t>(node)] = best_val;
        }
      } else {
        MP_ASSERT(got == 0, "failed request received " << got << " packets");
      }
    }
    b.clear();
  });
  scope.gather_results(results);

  if (plan != nullptr) {
    mesh_.fault_tally().drain_into(st.fault);
    st.request_ok = std::move(request_ok);
  }
  st.total_steps = st.culling_steps + st.forward_steps + st.return_steps;
  return results;
}

}  // namespace meshpram

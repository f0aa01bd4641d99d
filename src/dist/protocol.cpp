#include "dist/protocol.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "dist/route.hpp"
#include "dist/wire.hpp"
#include "protocol/culling.hpp"
#include "routing/greedy.hpp"
#include "routing/rank.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace meshpram::dist {

namespace {

// Same labels as the single-process protocol (access.cpp): intern dedups by
// name, so a rank's trace uses the familiar stage names.
const telemetry::Label kCullingRun = telemetry::intern("culling.run");
const telemetry::Label kGenPackets = telemetry::intern("access.gen_packets");
const telemetry::Label kForwardStage = telemetry::intern("access.forward");
const telemetry::Label kDeliverStage = telemetry::intern("access.deliver");
const telemetry::Label kApplyAccess = telemetry::intern("access.apply");
const telemetry::Label kReturnStage = telemetry::intern("access.return");
const telemetry::Label kCollect = telemetry::intern("access.collect");

/// Replicated-fallback apply shard: owned nodes perform the accesses, then
/// the read fills are allgathered so every replica's packets agree.
class FillShard final : public ApplyShard {
 public:
  FillShard(const RankPartition& part, int rank, Collectives& coll)
      : part_(part), rank_(rank), coll_(coll) {}

  bool owns_node(i32 node) const override {
    return part_.owns_node(rank_, node);
  }

  void exchange_fills(Mesh& mesh) override {
    if (part_.ranks() == 1) return;
    const std::string local = encode_band_fills(mesh, part_.band(rank_));
    const std::vector<std::string> all = coll_.allgather(local);
    for (int r = 0; r < part_.ranks(); ++r) {
      if (r == rank_) continue;
      decode_band_fills(mesh, part_.band(r), all[static_cast<size_t>(r)]);
    }
  }

 private:
  const RankPartition& part_;
  int rank_;
  Collectives& coll_;
};

}  // namespace

DistProtocol::DistProtocol(PramMeshSimulator& sim, const RankPartition& part,
                           int rank, bool validate)
    : mesh_(sim.mesh()),
      placement_(sim.placement()),
      sort_opts_{sim.config().sort_mode},
      oracle_(sim.mesh(), sim.placement(), SortOptions{sim.config().sort_mode}),
      part_(part),
      rank_(rank),
      validate_(validate) {
  const int k = placement_.map().params().k();
  owned_regions_.resize(static_cast<size_t>(k) + 1);
  for (int level = 1; level <= k; ++level) {
    std::set<std::tuple<int, int, int, int>> seen;
    for (const PageInfo& page : placement_.pages(level)) {
      const Region& g = page.region;
      if (part_.owner_of_region(g) != rank_) continue;
      if (seen.insert({g.r0(), g.c0(), g.rows(), g.cols()}).second) {
        owned_regions_[static_cast<size_t>(level)].push_back(g);
      }
    }
  }
}

void DistProtocol::replicate_buffers(Collectives& coll) {
  if (part_.ranks() == 1) return;
  const std::string local = encode_band_buffers(mesh_, part_.band(rank_));
  const std::vector<std::string> all = coll.allgather(local);
  for (int r = 0; r < part_.ranks(); ++r) {
    if (r == rank_) continue;
    decode_band_buffers(mesh_, part_.band(r), all[static_cast<size_t>(r)]);
  }
}

u64 DistProtocol::buffers_digest() {
  std::string bytes;
  ByteWriter w(bytes);
  for (i64 node = 0; node < mesh_.size(); ++node) {
    const auto& b = mesh_.buf(static_cast<i32>(node));
    w.put_u32(static_cast<u32>(b.size()));
    for (const Packet& p : b) put_packet(w, p);
  }
  return fnv1a64(bytes);
}

std::vector<i64> DistProtocol::execute(
    const std::vector<AccessRequest>& requests, i64 timestamp,
    StepStats* stats, Collectives& coll) {
  StepStats local;
  StepStats& st = stats != nullptr ? *stats : local;
  const fault::FaultPlan* plan = mesh_.fault_plan();
  std::vector<i64> results;
  if (plan != nullptr && plan->affects_routing()) {
    results = execute_replicated(requests, timestamp, st, coll);
  } else {
    results = execute_partitioned(requests, timestamp, st, coll);
  }
  // Bit-identity tripwire: every rank must have produced the same results
  // and the same step charge. O(n) hash per step, runs in every mode.
  std::string digest;
  ByteWriter w(digest);
  for (const i64 v : results) w.put_i64(v);
  w.put_i64(st.total_steps);
  coll.check_uniform(fnv1a64(digest), "step results");
  return results;
}

std::vector<i64> DistProtocol::execute_replicated(
    const std::vector<AccessRequest>& requests, i64 timestamp, StepStats& st,
    Collectives& coll) {
  FillShard shard(part_, rank_, coll);
  oracle_.set_apply_shard(&shard);
  std::vector<i64> results;
  try {
    results = oracle_.execute(requests, timestamp, &st);
  } catch (...) {
    oracle_.set_apply_shard(nullptr);
    throw;
  }
  oracle_.set_apply_shard(nullptr);
  return results;
}

std::vector<i64> DistProtocol::execute_partitioned(
    const std::vector<AccessRequest>& requests, i64 timestamp, StepStats& st,
    Collectives& coll) {
  const HmosParams& params = placement_.map().params();
  const int k = params.k();
  const i64 n = mesh_.size();
  const RankBand& band = part_.band(rank_);
  const Region whole = mesh_.whole();
  MP_REQUIRE(static_cast<i64>(requests.size()) == n,
             "requests size " << requests.size() << " != mesh size " << n);
  MP_REQUIRE(mesh_.total_packets(whole) == 0,
             "mesh buffers must be empty before an access step");

  // EREW: replicated check, every rank validates the same request vector.
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

  st = StepStats{};

  const fault::FaultPlan* plan = mesh_.fault_plan();
  std::vector<char> request_ok;
  if (plan != nullptr) {
    MP_ASSERT(!plan->affects_routing() && !plan->has_dead_nodes(),
              "partitioned mode requires a module-only fault plan");
    mesh_.set_fault_now(timestamp);
    mesh_.fault_tally().reset();
    st.fault.dead_nodes = plan->dead_node_count();
    st.fault.dead_modules = plan->dead_module_count();
    request_ok.assign(static_cast<size_t>(n), 1);
  }

  // ---- Copy selection: replicated (touches no copy store) ----------------
  std::vector<i64> request_vars(static_cast<size_t>(n), -1);
  for (i64 node = 0; node < n; ++node) {
    request_vars[static_cast<size_t>(node)] =
        requests[static_cast<size_t>(node)].var;
  }
  std::vector<std::vector<i64>> selections;
  {
    telemetry::Span culling_span(telemetry::Cat::Phase, kCullingRun);
    selections = oracle_.culling_.run(request_vars, &st.culling,
                                      plan != nullptr ? &request_ok : nullptr);
    st.culling_steps = st.culling.steps;
    culling_span.set_steps(st.culling_steps);
  }
  st.fault.copies_lost += st.culling.copies_lost;
  st.fault.requests_degraded += st.culling.requests_degraded;
  st.fault.requests_failed += st.culling.requests_failed;

  // ---- Packet generation: owned nodes only -------------------------------
  i64 local_packets = 0;
  {
    telemetry::Span gen_span(telemetry::Cat::Phase, kGenPackets);
    for (i64 node = band.node_begin; node < band.node_end; ++node) {
      const AccessRequest& req = requests[static_cast<size_t>(node)];
      if (req.var < 0) continue;
      for (const i64 code : selections[static_cast<size_t>(node)]) {
        Packet p;
        p.var = req.var;
        p.copy = static_cast<u64>(req.var) *
                     static_cast<u64>(params.redundancy()) +
                 static_cast<u64>(code);
        p.origin = static_cast<i32>(node);
        p.op = req.op;
        p.value = req.value;
        mesh_.buf(static_cast<i32>(node)).push_back(p);
        ++local_packets;
      }
    }
  }
  st.packets = coll.allreduce_sum(local_packets);

  // ---- Forward stages k+1 .. 2 -------------------------------------------
  // Page keys and delivery nodes come from the copy table CULLING just
  // filled: every rank runs CULLING, so every rank holds every row.
  const CopyTable& copies = oracle_.culling_.copies();
  for (int stage = k + 1; stage >= 2; --stage) {
    telemetry::Span stage_span(telemetry::Cat::Stage, kForwardStage, stage);
    i64 stage_steps = 0;
    if (stage == k + 1) {
      // The whole-mesh sort needs every packet: replicate the raw buffers,
      // key/sort/rank identically on every rank (deterministic kernels),
      // then drop back to the owned band and route distributed.
      replicate_buffers(coll);
      for (RegionCursor cur = mesh_.cursor(whole); cur.valid();
           cur.advance()) {
        for (Packet& p : mesh_.buf(cur.id())) {
          p.key = static_cast<u64>(copies.page(p, k));
        }
      }
      i64 steps = sort_region(mesh_, whole, sort_opts_);
      steps += rank_within_groups(mesh_, whole);
      if (validate_) coll.check_uniform(buffers_digest(), "post-sort buffers");
      for (int r = 0; r < part_.ranks(); ++r) {
        if (r == rank_) continue;
        const RankBand& other = part_.band(r);
        mesh_.clear_buffers(Region(other.row_begin, 0, other.rows(),
                                   mesh_.cols()));
      }
      const auto& pages = placement_.pages(k);
      const Region band_region(band.row_begin, 0, band.rows(), mesh_.cols());
      for (RegionCursor cur(band_region, mesh_.cols()); cur.valid();
           cur.advance()) {
        for (Packet& p : mesh_.buf(cur.id())) {
          const Region& sub = pages[static_cast<size_t>(p.key)].region;
          p.dest = mesh_.node_id(
              sub.at_snake(static_cast<i64>(p.rank) % sub.size()));
        }
      }
      const DistRouteStats rs =
          dist_route_whole(mesh_, part_, rank_, coll, validate_);
      boundary_hops_ += rs.boundary_hops;
      boundary_bytes_ += rs.boundary_bytes;
      steps += rs.steps;
      for (RegionCursor cur(band_region, mesh_.cols()); cur.valid();
           cur.advance()) {
        const i32 id = cur.id();
        for (Packet& p : mesh_.buf(id)) p.push_trail(id);
      }
      // sort/rank are replicated and the distributed route is lockstep, so
      // the charge is already identical on every rank — no reduce needed.
      stage_steps = steps;
    } else {
      i64 local_max = 0;
      for (const Region& g : owned_regions_[static_cast<size_t>(stage)]) {
        local_max = std::max(local_max, oracle_.distribute_stage(g, stage - 1));
      }
      stage_steps = coll.allreduce_max(local_max);
    }
    st.forward_stage_steps.push_back(stage_steps);
    st.forward_steps += stage_steps;
    stage_span.set_steps(stage_steps);
  }

  // ---- Stage 1: deliver and access ----------------------------------------
  {
    telemetry::Span deliver_span(telemetry::Cat::Stage, kDeliverStage, 1);
    i64 local_max = 0;
    for (const Region& g : owned_regions_[1]) {
      for (RegionCursor cur = mesh_.cursor(g); cur.valid(); cur.advance()) {
        for (Packet& p : mesh_.buf(cur.id())) p.dest = copies.holder(p);
      }
      local_max = std::max(local_max, route_greedy(mesh_, g).steps);
    }
    const i64 steps = coll.allreduce_max(local_max);
    st.forward_stage_steps.push_back(steps);
    st.forward_steps += steps;
    deliver_span.set_steps(steps);
  }
  {
    telemetry::Span apply_span(telemetry::Cat::Phase, kApplyAccess);
    const bool count_touches = telemetry::sampling_on();
    for (i64 node = band.node_begin; node < band.node_end; ++node) {
      auto& store = mesh_.store(static_cast<i32>(node));
      auto& b = mesh_.buf(static_cast<i32>(node));
      if (count_touches && !b.empty()) {
        mesh_.counters().add_copies_touched(node, static_cast<i64>(b.size()));
      }
      for (Packet& p : b) {
        if (p.op == Op::Write) {
          store[p.copy] = CopySlot{p.value, timestamp};
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
    }
  }

  // ---- Return journey -----------------------------------------------------
  for (int stage = 1; stage <= k; ++stage) {
    telemetry::Span stage_span(telemetry::Cat::Stage, kReturnStage, stage);
    const int trail_idx = k - stage;
    i64 local_max = 0;
    for (const Region& g : owned_regions_[static_cast<size_t>(stage)]) {
      bool any = false;
      for (RegionCursor cur = mesh_.cursor(g); cur.valid(); cur.advance()) {
        for (Packet& p : mesh_.buf(cur.id())) {
          MP_ASSERT(p.trail_len == k, "packet with incomplete trail");
          p.dest = p.trail[static_cast<size_t>(trail_idx)];
          any = true;
        }
      }
      if (any) {
        local_max = std::max(local_max, route_greedy(mesh_, g).steps);
      }
    }
    const i64 steps = coll.allreduce_max(local_max);
    st.return_steps += steps;
    stage_span.set_steps(steps);
  }
  {
    telemetry::Span stage_span(telemetry::Cat::Stage, kReturnStage, k + 1);
    for (i64 node = band.node_begin; node < band.node_end; ++node) {
      for (Packet& p : mesh_.buf(static_cast<i32>(node))) p.dest = p.origin;
    }
    const DistRouteStats rs =
        dist_route_whole(mesh_, part_, rank_, coll, validate_);
    boundary_hops_ += rs.boundary_hops;
    boundary_bytes_ += rs.boundary_bytes;
    st.return_steps += rs.steps;
    stage_span.set_steps(rs.steps);
  }

  // ---- Collect results ----------------------------------------------------
  telemetry::Span collect_span(telemetry::Cat::Phase, kCollect);
  std::vector<i64> results(static_cast<size_t>(n), 0);
  for (i64 node = band.node_begin; node < band.node_end; ++node) {
    auto& b = mesh_.buf(static_cast<i32>(node));
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
  }
  if (part_.ranks() > 1) {
    std::string local;
    ByteWriter w(local);
    for (i64 node = band.node_begin; node < band.node_end; ++node) {
      w.put_i64(results[static_cast<size_t>(node)]);
    }
    const std::vector<std::string> all = coll.allgather(local);
    for (int r = 0; r < part_.ranks(); ++r) {
      if (r == rank_) continue;
      const RankBand& ob = part_.band(r);
      ByteReader rd(all[static_cast<size_t>(r)], "collect slices");
      for (i64 node = ob.node_begin; node < ob.node_end; ++node) {
        results[static_cast<size_t>(node)] = rd.get_i64();
      }
      rd.expect_done();
    }
  }

  if (plan != nullptr) {
    mesh_.fault_tally().drain_into(st.fault);
    st.request_ok = std::move(request_ok);
  }
  st.total_steps = st.culling_steps + st.forward_steps + st.return_steps;
  return results;
}

}  // namespace meshpram::dist

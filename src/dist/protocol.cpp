#include "dist/protocol.hpp"

#include "dist/route.hpp"
#include "dist/wire.hpp"
#include "routing/greedy.hpp"
#include "util/bytes.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace meshpram::dist {

namespace {

/// FNV digest of every buffer in node order (validate mode).
u64 buffers_digest(Mesh& mesh) {
  std::string bytes;
  ByteWriter w(bytes);
  for (i64 node = 0; node < mesh.size(); ++node) {
    const auto& b = mesh.buf(static_cast<i32>(node));
    w.put_u32(static_cast<u32>(b.size()));
    for (const Packet& p : b) put_packet(w, p);
  }
  return fnv1a64(bytes);
}

/// What both rank scopes share: the rank owns its band's nodes (their copy
/// stores and results), and the bands' result slices are allgathered.
class BandOwner : public RankScope {
 public:
  BandOwner(const RankPartition& part, int rank, Collectives& coll)
      : part_(part), rank_(rank), coll_(coll) {}

  bool owns_node(i32 node) const override {
    return part_.owns_node(rank_, node);
  }

  void gather_results(std::vector<i64>& results) override {
    if (part_.ranks() == 1) return;
    const RankBand& band = part_.band(rank_);
    std::string local;
    ByteWriter w(local);
    for (i64 node = band.node_begin; node < band.node_end; ++node) {
      w.put_i64(results[static_cast<size_t>(node)]);
    }
    const std::vector<std::string> all = coll_.allgather(local);
    for (int r = 0; r < part_.ranks(); ++r) {
      if (r == rank_) continue;
      const RankBand& other = part_.band(r);
      ByteReader rd(all[static_cast<size_t>(r)], "collect slices");
      for (i64 node = other.node_begin; node < other.node_end; ++node) {
        results[static_cast<size_t>(node)] = rd.get_i64();
      }
      rd.expect_done();
    }
  }

 protected:
  const RankPartition& part_;
  int rank_;
  Collectives& coll_;
};

/// Partitioned mode: the rank routes its band's page regions (partition
/// legality keeps each inside one band) and its band of the two whole-mesh
/// routes; an allreduce-max reproduces the parallel stage charge.
class BandScope final : public BandOwner {
 public:
  BandScope(const RankPartition& part, int rank, Collectives& coll,
            bool validate, i64& boundary_hops, i64& boundary_bytes)
      : BandOwner(part, rank, coll),
        validate_(validate),
        boundary_hops_(boundary_hops),
        boundary_bytes_(boundary_bytes) {}

  bool routes_region(const Region& g) const override {
    return part_.owner_of_region(g) == rank_;
  }
  i64 stage_charge(i64 local) override { return coll_.allreduce_max(local); }

  i64 route_whole(Mesh& mesh) override {
    if (!banded_) {
      // Stage k+1: every rank generated, sorted and targeted every packet
      // with the same deterministic kernels. Validate mode checks that the
      // replicas agree; then the rank keeps only its own band's packets.
      if (validate_) {
        coll_.check_uniform(buffers_digest(mesh), "post-sort buffers");
      }
      for (int r = 0; r < part_.ranks(); ++r) {
        if (r == rank_) continue;
        const RankBand& other = part_.band(r);
        mesh.clear_buffers(
            Region(other.row_begin, 0, other.rows(), mesh.cols()));
      }
      banded_ = true;
    }
    const DistRouteStats rs =
        dist_route_whole(mesh, part_, rank_, coll_, validate_);
    boundary_hops_ += rs.boundary_hops;
    boundary_bytes_ += rs.boundary_bytes;
    return rs.steps;
  }

  void exchange_fills(Mesh&) override {}  // no other band's packet is here

 private:
  bool validate_;
  i64& boundary_hops_;
  i64& boundary_bytes_;
  bool banded_ = false;  ///< other bands' packets dropped this step
};

/// Replicated fallback: the rank routes its whole replica on the serial
/// fault kernel, so every charge is already the global one. Owned nodes
/// serve the accesses; the read fills are then allgathered so every
/// replica's packets agree.
class ReplicaScope final : public BandOwner {
 public:
  using BandOwner::BandOwner;

  bool routes_region(const Region&) const override { return true; }
  i64 stage_charge(i64 local) override { return local; }
  i64 route_whole(Mesh& mesh) override {
    return route_greedy(mesh, mesh.whole()).steps;
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
};

}  // namespace

DistProtocol::DistProtocol(PramMeshSimulator& sim, const RankPartition& part,
                           int rank, bool validate)
    : mesh_(sim.mesh()),
      protocol_(sim.mesh(), sim.placement(),
                SortOptions{sim.config().sort_mode}),
      part_(part),
      rank_(rank),
      validate_(validate) {}

std::vector<i64> DistProtocol::execute(
    const std::vector<AccessRequest>& requests, i64 timestamp,
    StepStats* stats, Collectives& coll) {
  StepStats local;
  StepStats& st = stats != nullptr ? *stats : local;
  const fault::FaultPlan* plan = mesh_.fault_plan();
  std::vector<i64> results;
  if (plan != nullptr && plan->affects_routing()) {
    ReplicaScope scope(part_, rank_, coll);
    results = protocol_.execute(requests, timestamp, &st, nullptr, &scope);
  } else {
    MP_ASSERT(plan == nullptr || !plan->has_dead_nodes(),
              "partitioned mode requires a module-only fault plan");
    BandScope scope(part_, rank_, coll, validate_, boundary_hops_,
                    boundary_bytes_);
    results = protocol_.execute(requests, timestamp, &st, nullptr, &scope);
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

int resolve_ranks(int ranks) {
  if (ranks > 0) return ranks;
  return static_cast<int>(env_i64("MESHPRAM_RANKS", 1, 4096).value_or(1));
}

bool resolve_validate(int validate) {
  if (validate >= 0) return validate != 0;
  return env_i64("MESHPRAM_DIST_VALIDATE", 0, 1).value_or(0) != 0;
}

int probe_max_ranks(const SimConfig& config) {
  PramMeshSimulator probe(config);
  return RankPartition::max_ranks(probe.placement(), config.mesh_rows);
}

}  // namespace meshpram::dist

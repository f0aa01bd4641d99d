// The SPMD access-protocol executor (DESIGN.md §13.4).
//
// Each rank owns one row band of the mesh: its nodes' buffers and copy
// stores hold data, every other band's stay empty. The global plan (HMOS
// parameters, placement, fault plan, step schedule) is replicated — each
// rank holds a full simulator replica, so region geometry, sort kernels and
// culling run identically everywhere with zero communication.
//
// Two execution modes, chosen per step:
//
//  * partitioned (no fault plan, or a module-only plan): CULLING is
//    replicated (it touches no copy store), so every rank's copy table holds
//    every request's copy addresses; packets are generated on owned
//    nodes only; the whole-mesh stage k+1 replicates the raw buffers once,
//    sorts/ranks identically on every rank, then drops back to owned bands
//    and routes through the boundary-lane exchange; the inner stages (k..1),
//    the access itself and the return retrace never leave a band (partition
//    legality) and reuse the single-process kernels verbatim on the rank's
//    owned page regions, with an allreduce-max reproducing the parallel
//    stage charge.
//
//  * replicated fallback (plans with dead links/stalls/drops — these route
//    detours across region boundaries, which the band partition cannot
//    contain): every rank runs the unmodified single-process protocol on its
//    replica, sharded only at the apply phase through the ApplyShard hook
//    (owned stores serve reads/writes, read fills are exchanged). Costs a
//    factor ranks in compute, preserves bit-identity under every fault plan.
//
// Every step ends with a cross-rank FNV uniformity check over (results,
// total_steps) — divergence dies loudly at the step that caused it.
#pragma once

#include <vector>

#include "dist/collectives.hpp"
#include "dist/partition.hpp"
#include "protocol/simulator.hpp"

namespace meshpram::dist {

class DistProtocol {
 public:
  /// Binds to `sim`'s mesh/placement (the rank's replica). `part` and the
  /// sim must outlive the protocol.
  DistProtocol(PramMeshSimulator& sim, const RankPartition& part, int rank,
               bool validate);

  /// One PRAM access step in lockstep with the other ranks. Returns the full
  /// per-processor result vector (identical on every rank).
  std::vector<i64> execute(const std::vector<AccessRequest>& requests,
                           i64 timestamp, StepStats* stats,
                           Collectives& coll);

  /// Cumulative boundary-lane traffic this rank exported (route.hpp).
  i64 boundary_hops() const { return boundary_hops_; }
  i64 boundary_bytes() const { return boundary_bytes_; }

 private:
  std::vector<i64> execute_partitioned(
      const std::vector<AccessRequest>& requests, i64 timestamp, StepStats& st,
      Collectives& coll);
  std::vector<i64> execute_replicated(
      const std::vector<AccessRequest>& requests, i64 timestamp, StepStats& st,
      Collectives& coll);

  /// Allgathers every band's raw buffers so all ranks hold the full packet
  /// set (stage k+1 sorts the whole mesh).
  void replicate_buffers(Collectives& coll);
  /// FNV digest of every buffer in node order (validate mode).
  u64 buffers_digest();

  Mesh& mesh_;
  const Placement& placement_;
  SortOptions sort_opts_;
  AccessProtocol oracle_;
  const RankPartition& part_;
  int rank_;
  bool validate_;
  /// Deduplicated page regions per level owned by this rank (subset of the
  /// oracle's level_regions_ — legality guarantees each lies in one band).
  std::vector<std::vector<Region>> owned_regions_;
  i64 boundary_hops_ = 0;
  i64 boundary_bytes_ = 0;
};

}  // namespace meshpram::dist

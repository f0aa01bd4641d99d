// The SPMD access-protocol executor (DESIGN.md §13.4).
//
// Each rank owns one row band of the mesh: its nodes' copy stores hold data,
// every other band's stay empty. The global plan (HMOS parameters,
// placement, fault plan, step schedule) is replicated — each rank holds a
// full simulator replica, so region geometry, sort kernels and CULLING run
// identically everywhere with zero communication.
//
// A rank runs the single-process step body, AccessProtocol::execute, on its
// replica with a RankScope (access.hpp) chosen per step from the fault plan.
// Every rank generates every packet from the replicated requests and
// CULLING's selections and sorts the whole mesh at stage k+1, so no rank
// gathers another band's packet buffers. The two scopes:
//
//  * band scope (no fault plan, or a module-only plan): the rank routes the
//    page regions of its band, the inner-stage charges combine by
//    allreduce-max, and the two whole-mesh routes run the boundary-lane
//    exchange (route.hpp). Before the first of them the rank drops the other
//    bands' packets, so from there on it holds only its own band's.
//
//  * replica scope (plans with dead links, stalls or drops — these route
//    detours across region boundaries, which the band partition cannot
//    contain): the rank routes every region of its replica on the serial
//    fault kernel and keeps the charges as they are. Only the copy stores
//    stay partitioned: owned nodes serve the accesses, then the read fills
//    are allgathered so every replica carries the same packets home. Costs
//    a factor ranks in compute, preserves bit-identity under every plan.
//
// Under both, a rank collects its own band's results and allgathers the
// slices, and every step ends with a cross-rank FNV uniformity check over
// (results, total_steps) — divergence dies loudly at the step that caused
// it.
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
  Mesh& mesh_;
  AccessProtocol protocol_;
  const RankPartition& part_;
  int rank_;
  bool validate_;
  i64 boundary_hops_ = 0;
  i64 boundary_bytes_ = 0;
};

// Set-up plumbing both rank machines (DistMachine, ProcMachine) share.

/// `ranks` if positive, else MESHPRAM_RANKS (default 1).
int resolve_ranks(int ranks);
/// `validate` if non-negative, else MESHPRAM_DIST_VALIDATE (default off).
bool resolve_validate(int validate);
/// Largest rank count the HMOS geometry of `config` admits.
int probe_max_ranks(const SimConfig& config);

}  // namespace meshpram::dist

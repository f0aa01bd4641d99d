// The staged access protocol (§3.3).
//
// After CULLING selects the copies, each selected copy gets a request packet
// routed origin -> copy -> origin through the nested tessellations:
//
//   stage k+1 (whole mesh): sort by destination level-k submesh, rank, send
//     rank r to node (r mod size) of that submesh;
//   stage i, k >= i >= 2 (within every level-i submesh in parallel): same,
//     toward the destination level-(i-1) submeshes;
//   stage 1 (within every level-1 submesh): deliver to the copy's processor
//     and perform the access (read value+timestamp / write value,timestamp);
//   return: retrace the recorded intermediate stops in reverse, then report
//     to the origin. Reads take the value with the newest timestamp among
//     their target set (majority consistency, Definition 2).
//
// Parallel stages are charged the maximum cost over their submeshes (the
// sum under a fault plan that affects routing, see access.cpp).
//
// The destination pages of stages k+1..2 and the delivery node of stage 1
// come from CULLING's per-step copy table (culling.hpp): a packet's entry
// is the row of its origin at its copy's code, so no stage recomputes the
// memory map per packet.
//
// execute() is the only code that sequences these stages. A rank of the
// distributed machine (src/dist) runs it on its own replica and passes a
// RankScope that says which share of the step is its own; the single
// process runs it with the trivial scope (every region, every node, nothing
// to exchange).
#pragma once

#include <vector>

#include "hmos/placement.hpp"
#include "mesh/machine.hpp"
#include "protocol/culling.hpp"
#include "routing/meshsort.hpp"

namespace meshpram {

/// A rank's share of one access step. Every rank holds the replicated
/// requests and runs CULLING, so every rank generates every packet and sorts
/// the whole mesh at stage k+1; the hooks say what else is the rank's own
/// and how its share combines with the other ranks'. Hooks run per stage,
/// per region or per node, never per packet.
class RankScope {
 public:
  virtual ~RankScope() = default;
  /// Does this rank route page region `g` in the inner stages (k..1 and
  /// the return retrace)?
  virtual bool routes_region(const Region& g) const = 0;
  /// Does this rank hold `node`'s copy store and collect its result?
  virtual bool owns_node(i32 node) const = 0;
  /// Combines this rank's charge for an inner stage (the max, or under
  /// routing faults the sum, over its routed regions) into the stage's.
  virtual i64 stage_charge(i64 local) = 0;
  /// Routes every packet of the mesh to its Packet::dest (stage k+1 and the
  /// final return); returns the routing steps.
  virtual i64 route_whole(Mesh& mesh) = 0;
  /// After the owned nodes served their accesses: brings the read fills of
  /// every other node's packets into this rank's copies of them.
  virtual void exchange_fills(Mesh& mesh) = 0;
  /// After the owned nodes collected their results: fills in the rest.
  virtual void gather_results(std::vector<i64>& results) = 0;
};

struct AccessRequest {
  i64 var = -1;  ///< requested variable, -1 = processor idle this step
  Op op = Op::Read;
  i64 value = 0;  ///< payload for writes
};

struct StepStats {
  i64 total_steps = 0;
  i64 culling_steps = 0;
  i64 forward_steps = 0;
  i64 return_steps = 0;
  CullingStats culling;
  i64 packets = 0;
  /// forward_stage_steps[0] = stage k+1, ..., last = stage 1.
  std::vector<i64> forward_stage_steps;
  /// Fault accounting for the step (all zero without an installed plan).
  fault::FaultReport fault;
  /// request_ok[node] = 0 iff that processor's request failed (dead origin
  /// or no surviving target set). Empty when the mesh has no fault plan.
  std::vector<char> request_ok;
};

class AccessProtocol {
 public:
  AccessProtocol(Mesh& mesh, const Placement& placement,
                 SortOptions sort_opts = {});

  /// Executes one PRAM access step at logical time `timestamp` (strictly
  /// increasing across steps). requests[node] describes the access issued by
  /// that processor. Variables must be distinct (EREW). Returns per-node
  /// read results (0 for idle processors and writers).
  ///
  /// Degraded mode (mesh carries a fault plan): requests from dead
  /// processors and variables without a surviving target set fail up front
  /// (StepStats::request_ok / StepStats::fault) and everything else is
  /// served — copies on dead modules are excluded by CULLING, intermediate
  /// stops land only on alive processors, and the routing layer retries or
  /// detours around link faults. Every surviving read still returns the
  /// newest surviving timestamp, so reads that succeed agree with the
  /// fault-free values.
  ///
  /// Coalesced steps (`write_group` non-null, one i32 per node): node i's
  /// write is stamped `timestamp + write_group[i]` instead of `timestamp`,
  /// so several logically consecutive PRAM steps with disjoint variable
  /// sets can share one physical routing pass and still leave the copy
  /// stores bit-identical to sequential execution (the serving layer's
  /// cross-request coalescing, DESIGN.md §14). Only supported fault-free:
  /// fault behavior is keyed to a single step time.
  ///
  /// `scope` (null = this process is the whole machine) is the caller's rank
  /// share; the results are complete on every rank.
  std::vector<i64> execute(const std::vector<AccessRequest>& requests,
                           i64 timestamp, StepStats* stats = nullptr,
                           const i32* write_group = nullptr,
                           RankScope* scope = nullptr);

 private:
  /// Sort-by-subregion, rank, distribute: one forward stage inside `region`.
  /// `dest_level` = the level of the pages packets are heading into; level
  /// k is stage k+1, whose region is the whole mesh and whose route is
  /// `scope`'s.
  i64 distribute_stage(const Region& region, int dest_level,
                       RankScope& scope);

  /// Rebuilds alive_slots_ for the installed plan (per-level, per-page alive
  /// node ids in snake order). A fully dead page region gets an empty list —
  /// legal, because no surviving copy can target it.
  void build_alive_slots(const fault::FaultPlan* plan);

  Mesh& mesh_;
  const Placement& placement_;
  SortOptions sort_opts_;
  /// Long-lived so its copy table's storage is reused across steps; the
  /// forward stages read packet keys and delivery nodes from that table.
  Culling culling_;
  /// Deduplicated page regions per level (shared 1x1 regions collapse).
  std::vector<std::vector<Region>> level_regions_;
  /// Degraded-mode intermediate-stop slots: alive_slots_[level][page] = alive
  /// node ids of that page's region in snake order. Built lazily per plan
  /// (static, so rebuilt only when the installed plan changes) and empty on
  /// the fault-free path.
  std::vector<std::vector<std::vector<i32>>> alive_slots_;
  const fault::FaultPlan* alive_plan_ = nullptr;
};

}  // namespace meshpram

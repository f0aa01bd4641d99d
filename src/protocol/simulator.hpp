// PramMeshSimulator — the library facade.
//
// Owns the whole stack (mesh machine, HMOS parameters, level graphs,
// placement) and exposes PRAM access steps. This is the class a downstream
// user instantiates; examples/quickstart.cpp shows the 10-line version.
#pragma once

#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "hmos/memory_map.hpp"
#include "hmos/params.hpp"
#include "hmos/placement.hpp"
#include "mesh/machine.hpp"
#include "protocol/access.hpp"

namespace meshpram {

/// What to do when a request cannot be served under the installed fault plan
/// (dead origin, or no surviving target set for the variable).
enum class FaultPolicy {
  Degrade,   ///< serve the survivors; failures reported per step
  HardFail,  ///< throw fault::FaultError on the first failed request
};

struct SimConfig {
  int mesh_rows = 32;
  int mesh_cols = 32;
  i64 num_vars = 4096;  ///< shared-memory size M (>= n)
  i64 q = 3;            ///< replication branching (prime power >= 3)
  int k = 2;            ///< HMOS depth; redundancy = q^k
  SortMode sort_mode = SortMode::Simulated;
  /// Fault plan to install (copied). An empty plan (the default) falls back
  /// to MESHPRAM_FAULT_PLAN; if that is unset too, the run is fault-free.
  fault::FaultPlan fault_plan;
  FaultPolicy fault_policy = FaultPolicy::Degrade;
  /// Snapshot restore sets this false: a restored simulator must reproduce
  /// the captured run exactly, so an empty embedded plan means fault-free
  /// even when MESHPRAM_FAULT_PLAN is set in the restoring process.
  bool fault_plan_from_env = true;
};

/// Per-step outcome under fault injection: read values, per-processor
/// success flags, and the step's FaultReport.
struct DegradedResult {
  std::vector<i64> values;
  std::vector<char> ok;  ///< ok[i] = 0 iff processor i's request failed
  fault::FaultReport report;

  bool all_ok() const { return report.requests_failed == 0; }
};

class PramMeshSimulator {
 public:
  explicit PramMeshSimulator(const SimConfig& config);

  i64 processors() const { return mesh_->size(); }
  i64 num_vars() const { return params_->num_vars(); }

  /// One synchronous PRAM step: requests[i] is processor i's access
  /// (var = -1 for idle). Variables must be distinct (EREW). Returns the
  /// per-processor read results; stats (optional) receives the step costs.
  /// `feed_clock` false skips the mesh accounting-clock add (the serving
  /// layer passes false so snapshots stay a pure function of the machine
  /// state regardless of how requests were batched; see step_grouped).
  std::vector<i64> step(const std::vector<AccessRequest>& requests,
                        StepStats* stats = nullptr, bool feed_clock = true);

  /// Executes several logically consecutive PRAM steps in ONE physical mesh
  /// routing pass (the serving layer's cross-request coalescing, DESIGN.md
  /// §14). groups[g] is the access list of logical step g; the union must be
  /// EREW-disjoint and the concatenation must fit the processor count.
  /// Group g's writes are stamped with logical time now()+g and the logical
  /// clock advances by groups.size(), so the resulting machine state (copy
  /// values AND timestamps) is bit-identical to executing the groups
  /// sequentially with step(). Read results come back concatenated in group
  /// order: group g's access i sits at slot sum(|groups[<g]|) + i.
  ///
  /// Not supported under a fault plan (fault behavior is keyed to a single
  /// step time). Unlike step(), the mesh accounting clock is NOT fed: the
  /// serving layer owns its own accounting (SessionStats), and the machine
  /// clock must stay a pure function of the direct-API step history so
  /// coalesced and sequential runs snapshot identically.
  std::vector<i64> step_grouped(
      const std::vector<const std::vector<AccessRequest>*>& groups,
      StepStats* stats = nullptr);

  /// Like step(), but surfaces the degraded-mode outcome (per-processor
  /// success flags + FaultReport) instead of burying it in StepStats. Under
  /// FaultPolicy::HardFail both step() and step_degraded() throw
  /// fault::FaultError as soon as any request fails.
  DegradedResult step_degraded(const std::vector<AccessRequest>& requests,
                               StepStats* stats = nullptr);

  /// Convenience: every processor writes values[i] to vars[i] (one step).
  void write_step(const std::vector<i64>& vars, const std::vector<i64>& values,
                  StepStats* stats = nullptr);
  /// Convenience: every processor reads vars[i] (one step).
  std::vector<i64> read_step(const std::vector<i64>& vars,
                             StepStats* stats = nullptr);

  /// Logical time = number of executed PRAM steps.
  i64 now() const { return now_; }

  /// The configuration this simulator was built from (fault_plan holds the
  /// effective installed plan, resolved from the env fallback if that was
  /// the source). Rebuilding from it reproduces identical placements.
  const SimConfig& config() const { return config_; }

  /// Snapshot-restore hook (serve/snapshot.cpp): sets the logical clock of a
  /// freshly built simulator to the captured step count so timestamps of
  /// subsequent writes continue the original sequence. Not for general use —
  /// rewinding time would violate the strictly-increasing timestamp contract.
  void set_logical_time(i64 now) { now_ = now; }

  const HmosParams& params() const { return *params_; }
  const MemoryMap& memory_map() const { return *map_; }
  const Placement& placement() const { return *placement_; }
  Mesh& mesh() { return *mesh_; }
  const Mesh& mesh() const { return *mesh_; }

  /// The installed fault plan, or nullptr for a fault-free run.
  const fault::FaultPlan* fault_plan() const { return mesh_->fault_plan(); }
  FaultPolicy fault_policy() const { return fault_policy_; }

 private:
  SimConfig config_;
  std::unique_ptr<HmosParams> params_;
  std::unique_ptr<MemoryMap> map_;
  std::unique_ptr<Mesh> mesh_;
  std::unique_ptr<Placement> placement_;
  std::unique_ptr<AccessProtocol> protocol_;
  /// Owned copy of the active plan; unique_ptr so the address handed to the
  /// mesh stays stable if the simulator is moved.
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  FaultPolicy fault_policy_ = FaultPolicy::Degrade;
  i64 now_ = 0;
};

// Step plumbing PramMeshSimulator shares with the rank machines (src/dist),
// which mirror its step surface.

/// `requests` padded with idle processors to `processors` entries; throws
/// ConfigError when there are more requests than processors.
std::vector<AccessRequest> pad_requests(
    const std::vector<AccessRequest>& requests, i64 processors);

/// Under FaultPolicy::HardFail, throws fault::FaultError when any request of
/// the step failed.
void enforce_fault_policy(FaultPolicy policy, const StepStats& st);

/// step_degraded() for any machine with PramMeshSimulator's step() and
/// processors(): runs the step and surfaces its success flags and report.
template <class Machine>
DegradedResult run_step_degraded(Machine& machine,
                                 const std::vector<AccessRequest>& requests,
                                 StepStats* stats) {
  StepStats local;
  StepStats& st = stats != nullptr ? *stats : local;
  DegradedResult r;
  r.values = machine.step(requests, &st);
  r.report = st.fault;
  if (st.request_ok.empty()) {
    r.ok.assign(static_cast<size_t>(machine.processors()), 1);
  } else {
    r.ok = st.request_ok;
  }
  return r;
}

}  // namespace meshpram

// DistMachine — the distributed-simulation facade (DESIGN.md §13).
//
// Runs one PramMeshSimulator replica per rank as SPMD threads over an
// in-process ChannelHub, partitioned into row bands (partition.hpp). The
// facade mirrors PramMeshSimulator's surface (step / step_degraded / now /
// config) and is bit-identical to it at every rank count: same results, same
// StepStats, same congestion counters — `ctest -L dist` enforces exactly
// that against the single-process oracle.
//
// Threading: every step spawns one std::thread per rank; each rank thread
// installs a ScopedPool of size 1, so the kernels it runs are serial and
// thread-count invariance makes them bit-identical to any other pool size.
// If any rank throws, the hub is killed (unblocking peers with
// TransportError), the hub and endpoints are rebuilt so the machine stays
// usable, and the lowest-rank original error is rethrown.
#pragma once

#include <memory>
#include <vector>

#include "dist/channel.hpp"
#include "dist/collectives.hpp"
#include "dist/partition.hpp"
#include "dist/protocol.hpp"
#include "mesh/step_counter.hpp"
#include "protocol/simulator.hpp"
#include "telemetry/counters.hpp"
#include "util/thread_pool.hpp"

namespace meshpram::dist {

struct DistConfig {
  SimConfig sim;
  /// Rank count; 0 consults MESHPRAM_RANKS (default 1). Must not exceed
  /// DistMachine::max_ranks(sim).
  int ranks = 0;
  /// Lockstep validation: a cross-rank (in-flight, step) hash every routing
  /// step, boundary-frame checksums, and a cross-rank buffer digest after
  /// the stage-(k+1) sort; -1 consults MESHPRAM_DIST_VALIDATE (default off).
  int validate = -1;
};

class DistMachine {
 public:
  explicit DistMachine(const DistConfig& config);
  ~DistMachine();
  DistMachine(const DistMachine&) = delete;
  DistMachine& operator=(const DistMachine&) = delete;

  /// Largest rank count the HMOS geometry of `config` admits.
  static int max_ranks(const SimConfig& config);

  /// Builds a DistMachine continuing `sim`'s run: same effective config,
  /// logical time and step counters; copy stores scattered to their owning
  /// ranks. The source simulator is not modified.
  static std::unique_ptr<DistMachine> from_simulator(
      const PramMeshSimulator& sim, int ranks);

  int ranks() const { return partition_->ranks(); }
  bool validate() const { return validate_; }
  i64 processors() const { return sims_[0]->processors(); }
  i64 num_vars() const { return sims_[0]->num_vars(); }
  i64 now() const { return now_; }
  /// The effective (resolved) SimConfig every rank replica was built from.
  const SimConfig& config() const { return effective_; }
  const RankPartition& partition() const { return *partition_; }
  const StepCounter& clock() const { return clock_; }

  /// One synchronous PRAM step across all ranks (PramMeshSimulator::step).
  /// `feed_clock` false skips the accounting-clock add, mirroring the
  /// simulator's flag — the serving layer passes false so snapshots are
  /// batch-invariant.
  std::vector<i64> step(const std::vector<AccessRequest>& requests,
                        StepStats* stats = nullptr, bool feed_clock = true);
  DegradedResult step_degraded(const std::vector<AccessRequest>& requests,
                               StepStats* stats = nullptr);

  /// Congestion counter grids merged by band owner — bit-identical to the
  /// single-process grid when telemetry sampling was on for the same steps.
  telemetry::MeshCounters merged_counters() const;

  /// Cumulative transport traffic over all rank endpoints (survives the
  /// endpoint rebuild after a failed step).
  TransportStats transport_totals() const;
  /// Cumulative time ranks spent blocked in collectives (barrier wait).
  WaitStats wait_totals() const;
  /// Cumulative boundary-lane traffic of the distributed route.
  i64 boundary_hops() const;
  i64 boundary_bytes() const;

  /// Reconstructs an equivalent single-process simulator: effective config,
  /// logical time, step counters, and the union of every rank's copy stores.
  /// The snapshot path serializes this (dist/serve.hpp).
  std::unique_ptr<PramMeshSimulator> materialize() const;

 private:
  void rebuild_transport();

  SimConfig effective_;
  bool validate_ = false;
  std::vector<std::unique_ptr<PramMeshSimulator>> sims_;
  std::unique_ptr<RankPartition> partition_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;
  std::unique_ptr<ChannelHub> hub_;
  std::vector<std::unique_ptr<ChannelTransport>> endpoints_;
  std::vector<std::unique_ptr<DistProtocol>> protocols_;
  /// Endpoint stats accumulated across transport rebuilds.
  TransportStats retained_transport_;
  std::vector<WaitStats> wait_totals_;
  StepCounter clock_;
  i64 now_ = 0;
};

}  // namespace meshpram::dist

#include "dist/machine.hpp"

#include <exception>
#include <thread>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace meshpram::dist {

namespace {

const telemetry::Label kPramStep = telemetry::intern("pram.step");

}  // namespace

DistMachine::DistMachine(const DistConfig& config)
    : validate_(resolve_validate(config.validate)) {
  const int ranks = resolve_ranks(config.ranks);

  // Rank 0 resolves the effective config exactly like a standalone simulator
  // (env fault-plan fallback, plan validation, effective-plan retention);
  // every other rank is built from the resolved copy so all replicas agree
  // even when the env changes mid-run.
  sims_.push_back(std::make_unique<PramMeshSimulator>(config.sim));
  effective_ = sims_[0]->config();
  effective_.fault_plan_from_env = false;
  for (int r = 1; r < ranks; ++r) {
    sims_.push_back(std::make_unique<PramMeshSimulator>(effective_));
  }

  const int max = RankPartition::max_ranks(sims_[0]->placement(),
                                           effective_.mesh_rows);
  MP_REQUIRE(ranks <= max, "ranks=" << ranks << " exceeds the " << max
                                    << " atom(s) of this HMOS geometry");
  partition_ = std::make_unique<RankPartition>(
      sims_[0]->placement(), effective_.mesh_rows, effective_.mesh_cols,
      ranks);

  for (int r = 0; r < ranks; ++r) {
    pools_.push_back(std::make_unique<ThreadPool>(1));
  }
  rebuild_transport();
  for (int r = 0; r < ranks; ++r) {
    protocols_.push_back(std::make_unique<DistProtocol>(*sims_[r], *partition_,
                                                        r, validate_));
  }
  wait_totals_.resize(static_cast<size_t>(ranks));
}

DistMachine::~DistMachine() = default;

void DistMachine::rebuild_transport() {
  for (const auto& ep : endpoints_) retained_transport_ += ep->stats();
  endpoints_.clear();
  hub_ = std::make_unique<ChannelHub>(static_cast<int>(sims_.size()));
  for (int r = 0; r < static_cast<int>(sims_.size()); ++r) {
    endpoints_.push_back(std::make_unique<ChannelTransport>(*hub_, r));
  }
}

int DistMachine::max_ranks(const SimConfig& config) {
  return probe_max_ranks(config);
}

std::unique_ptr<DistMachine> DistMachine::from_simulator(
    const PramMeshSimulator& sim, int ranks) {
  DistConfig cfg;
  cfg.sim = sim.config();
  cfg.sim.fault_plan_from_env = false;
  cfg.ranks = ranks;
  auto m = std::make_unique<DistMachine>(cfg);
  m->now_ = sim.now();
  for (const auto& [label, steps] : sim.mesh().clock().by_phase()) {
    m->clock_.add(label, steps);
  }
  // Scatter the copy stores to their owning ranks.
  const Mesh& src = sim.mesh();
  for (i32 node = 0; node < src.size(); ++node) {
    const int owner = m->partition_->owner_of_node(node);
    Mesh& dst = m->sims_[static_cast<size_t>(owner)]->mesh();
    src.store(node).for_each([&dst, node](u64 key, const CopySlot& slot) {
      dst.store(node)[key] = slot;
    });
  }
  return m;
}

std::vector<i64> DistMachine::step(const std::vector<AccessRequest>& requests,
                                   StepStats* stats, bool feed_clock) {
  telemetry::begin_frame();  // sampling granularity = one PRAM step
  const std::vector<AccessRequest> padded =
      pad_requests(requests, processors());

  const int R = ranks();
  std::vector<std::vector<i64>> results(static_cast<size_t>(R));
  std::vector<StepStats> rank_stats(static_cast<size_t>(R));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(R));
  {
    telemetry::Span step_span(telemetry::Cat::Step, kPramStep, now_);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
      threads.emplace_back([this, r, &padded, &results, &rank_stats,
                            &errors] {
        // Serial kernels on this rank: thread-count invariance makes them
        // bit-identical to the oracle's parallel runs.
        ScopedPool guard(*pools_[static_cast<size_t>(r)]);
        Collectives coll(*endpoints_[static_cast<size_t>(r)]);
        try {
          results[static_cast<size_t>(r)] =
              protocols_[static_cast<size_t>(r)]->execute(
                  padded, now_, &rank_stats[static_cast<size_t>(r)], coll);
        } catch (...) {
          errors[static_cast<size_t>(r)] = std::current_exception();
          hub_->kill();  // unblock every peer waiting on this rank
        }
        wait_totals_[static_cast<size_t>(r)] += coll.wait();
      });
    }
    for (std::thread& t : threads) t.join();
    if (errors[0] == nullptr) {
      step_span.set_steps(rank_stats[0].total_steps);
    }
  }

  for (int r = 0; r < R; ++r) {
    if (errors[static_cast<size_t>(r)] == nullptr) continue;
    // Rebuild the killed hub so the machine stays usable, then rethrow the
    // lowest-rank error that is not a secondary TransportError (the rank
    // that actually failed carries the real diagnosis).
    rebuild_transport();
    std::exception_ptr chosen;
    for (const std::exception_ptr& e : errors) {
      if (e == nullptr) continue;
      if (chosen == nullptr) chosen = e;
      try {
        std::rethrow_exception(e);
      } catch (const TransportError&) {
      } catch (...) {
        chosen = e;
        break;
      }
    }
    std::rethrow_exception(chosen);
  }

  const StepStats& st = rank_stats[0];
  if (stats != nullptr) *stats = st;
  ++now_;
  if (stats != nullptr && feed_clock) {
    clock_.add("pram_step", stats->total_steps);
  }
  enforce_fault_policy(effective_.fault_policy, st);
  return std::move(results[0]);
}

DegradedResult DistMachine::step_degraded(
    const std::vector<AccessRequest>& requests, StepStats* stats) {
  return run_step_degraded(*this, requests, stats);
}

telemetry::MeshCounters DistMachine::merged_counters() const {
  telemetry::MeshCounters out;
  out.resize(effective_.mesh_rows, effective_.mesh_cols);
  for (int r = 0; r < ranks(); ++r) {
    const RankBand& band = partition_->band(r);
    out.adopt_range(sims_[static_cast<size_t>(r)]->mesh().counters(),
                    band.node_begin, band.node_end);
  }
  return out;
}

TransportStats DistMachine::transport_totals() const {
  TransportStats total = retained_transport_;
  for (const auto& ep : endpoints_) total += ep->stats();
  return total;
}

WaitStats DistMachine::wait_totals() const {
  WaitStats total;
  for (const WaitStats& w : wait_totals_) total += w;
  return total;
}

i64 DistMachine::boundary_hops() const {
  i64 total = 0;
  for (const auto& p : protocols_) total += p->boundary_hops();
  return total;
}

i64 DistMachine::boundary_bytes() const {
  i64 total = 0;
  for (const auto& p : protocols_) total += p->boundary_bytes();
  return total;
}

std::unique_ptr<PramMeshSimulator> DistMachine::materialize() const {
  auto sim = std::make_unique<PramMeshSimulator>(effective_);
  sim->set_logical_time(now_);
  for (const auto& [label, steps] : clock_.by_phase()) {
    sim->mesh().clock().add(label, steps);
  }
  for (int r = 0; r < ranks(); ++r) {
    const RankBand& band = partition_->band(r);
    const Mesh& src = sims_[static_cast<size_t>(r)]->mesh();
    Mesh& dst = sim->mesh();
    for (i64 node = band.node_begin; node < band.node_end; ++node) {
      src.store(static_cast<i32>(node))
          .for_each([&dst, node](u64 key, const CopySlot& slot) {
            dst.store(static_cast<i32>(node))[key] = slot;
          });
    }
  }
  return sim;
}

}  // namespace meshpram::dist

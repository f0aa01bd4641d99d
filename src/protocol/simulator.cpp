#include "protocol/simulator.hpp"

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace meshpram {

namespace {

const telemetry::Label kPramStep = telemetry::intern("pram.step");

}  // namespace

PramMeshSimulator::PramMeshSimulator(const SimConfig& config)
    : config_(config) {
  params_ = std::make_unique<HmosParams>(config.q, config.k, config.num_vars,
                                         config.mesh_rows, config.mesh_cols);
  map_ = std::make_unique<MemoryMap>(*params_);
  mesh_ = std::make_unique<Mesh>(config.mesh_rows, config.mesh_cols);
  placement_ = std::make_unique<Placement>(*map_, mesh_->whole());
  protocol_ = std::make_unique<AccessProtocol>(
      *mesh_, *placement_, SortOptions{config.sort_mode});
  fault_policy_ = config.fault_policy;
  fault::FaultPlan plan =
      config.fault_plan.empty() && config.fault_plan_from_env
          ? fault::FaultPlan::from_env(config.mesh_rows, config.mesh_cols)
          : config.fault_plan;
  if (!plan.empty()) {
    plan.validate();
    fault_plan_ = std::make_unique<fault::FaultPlan>(std::move(plan));
    mesh_->set_fault_plan(fault_plan_.get());
    config_.fault_plan = *fault_plan_;  // retain the effective plan
  }
}

std::vector<i64> PramMeshSimulator::step(
    const std::vector<AccessRequest>& requests, StepStats* stats,
    bool feed_clock) {
  telemetry::begin_frame();  // sampling granularity = one PRAM step
  const std::vector<AccessRequest> padded =
      pad_requests(requests, processors());
  StepStats local;
  StepStats& st = stats != nullptr ? *stats : local;
  std::vector<i64> results;
  {
    telemetry::Span step_span(telemetry::Cat::Step, kPramStep, now_);
    results = protocol_->execute(padded, now_, &st);
    step_span.set_steps(st.total_steps);
  }
  ++now_;
  if (stats != nullptr && feed_clock) {
    mesh_->clock().add("pram_step", stats->total_steps);
  }
  enforce_fault_policy(fault_policy_, st);
  return results;
}

std::vector<i64> PramMeshSimulator::step_grouped(
    const std::vector<const std::vector<AccessRequest>*>& groups,
    StepStats* stats) {
  MP_REQUIRE(!groups.empty(), "step_grouped: no groups");
  MP_REQUIRE(fault_plan() == nullptr,
             "step_grouped: coalesced steps are not supported under a fault "
             "plan");
  telemetry::begin_frame();
  const i64 n = processors();
  std::vector<AccessRequest> padded;
  padded.reserve(static_cast<size_t>(n));
  std::vector<i32> group_of;
  group_of.reserve(static_cast<size_t>(n));
  for (size_t g = 0; g < groups.size(); ++g) {
    MP_REQUIRE(groups[g] != nullptr, "step_grouped: null group");
    for (const AccessRequest& a : *groups[g]) {
      padded.push_back(a);
      group_of.push_back(static_cast<i32>(g));
    }
  }
  MP_REQUIRE(static_cast<i64>(padded.size()) <= n,
             "step_grouped: " << padded.size() << " accesses across "
                              << groups.size() << " groups exceed " << n
                              << " processors");
  padded.resize(static_cast<size_t>(n));
  group_of.resize(static_cast<size_t>(n), 0);
  StepStats local;
  StepStats& st = stats != nullptr ? *stats : local;
  std::vector<i64> results;
  {
    telemetry::Span step_span(telemetry::Cat::Step, kPramStep, now_);
    results = protocol_->execute(padded, now_, &st, group_of.data());
    step_span.set_steps(st.total_steps);
  }
  now_ += static_cast<i64>(groups.size());
  return results;
}

DegradedResult PramMeshSimulator::step_degraded(
    const std::vector<AccessRequest>& requests, StepStats* stats) {
  return run_step_degraded(*this, requests, stats);
}

void PramMeshSimulator::write_step(const std::vector<i64>& vars,
                                   const std::vector<i64>& values,
                                   StepStats* stats) {
  MP_REQUIRE(vars.size() == values.size(), "vars/values size mismatch");
  std::vector<AccessRequest> reqs(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    reqs[i] = AccessRequest{vars[i], Op::Write, values[i]};
  }
  step(reqs, stats);
}

std::vector<i64> PramMeshSimulator::read_step(const std::vector<i64>& vars,
                                              StepStats* stats) {
  std::vector<AccessRequest> reqs(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    reqs[i] = AccessRequest{vars[i], Op::Read, 0};
  }
  auto all = step(reqs, stats);
  all.resize(vars.size());
  return all;
}

std::vector<AccessRequest> pad_requests(
    const std::vector<AccessRequest>& requests, i64 processors) {
  MP_REQUIRE(static_cast<i64>(requests.size()) <= processors,
             "more requests (" << requests.size() << ") than processors ("
                               << processors << ')');
  std::vector<AccessRequest> padded = requests;
  padded.resize(static_cast<size_t>(processors));
  return padded;
}

void enforce_fault_policy(FaultPolicy policy, const StepStats& st) {
  if (policy == FaultPolicy::HardFail && st.fault.any_failures()) {
    throw fault::FaultError(
        std::to_string(st.fault.requests_failed) +
        " request(s) failed under the installed fault plan "
        "(FaultPolicy::HardFail)");
  }
}

}  // namespace meshpram

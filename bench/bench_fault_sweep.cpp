// EXP-FT1 — degraded-mode robustness sweep (DESIGN.md §10):
// slowdown and read availability of the staged access protocol as the
// injected fault rate grows.
//
// Per (k, side) the rate-0 point uses the exact configuration, seed and
// request stream of bench_simulation_mid_mem ("k=<k> side=<side>" point
// names), so its mesh_steps must reproduce that bench bit-for-bit —
// tools/bench_smoke.py checks the parity. Faulted points install a seeded
// random plan (nodes, modules, links, stalls, drops all scaled from one
// nominal rate) and report the measured step-count slowdown plus the
// fraction of requests still served (availability), both embedded in the
// recorded config string so BENCH_fault_sweep.json carries them.
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common.hpp"
#include "util/table.hpp"

using namespace meshpram;
using namespace meshpram::benchutil;

namespace {

struct FaultPoint {
  i64 steps = 0;
  double wall_ms = 0;
  double availability = 1;
  fault::FaultReport report;
  bool unroutable = false;
};

/// One nominal rate fans out over the fault classes: memory modules and
/// transient stalls at the full rate, fail-stop nodes and permanent link
/// deaths at half (they are the harshest), drops at the full rate.
fault::FaultSpec spec_for(double rate, int side, int k) {
  fault::FaultSpec spec;
  spec.seed = 1000003u * static_cast<u64>(k) + 1009u * static_cast<u64>(side) +
              static_cast<u64>(std::llround(rate * 1000));
  spec.node_rate = rate / 2;
  spec.module_rate = rate;
  spec.link_rate = rate / 2;
  spec.stall_rate = rate;
  spec.drop_rate = rate;
  return spec;
}

/// Mirrors benchutil::measure_sim_step (same config, seed and request
/// stream) so the rate-0 points reproduce bench_simulation_mid_mem's
/// mesh_steps exactly; only the fault plan and the step_degraded() call
/// differ, neither of which costs steps on an empty plan.
FaultPoint measure_fault_step(int side, i64 M, i64 q, int k, u64 seed,
                              const fault::FaultSpec& spec) {
  set_log_level(LogLevel::Error);  // the t_i<1 warning is expected here
  SimConfig cfg;
  cfg.mesh_rows = side;
  cfg.mesh_cols = side;
  cfg.num_vars = M;
  cfg.q = q;
  cfg.k = k;
  cfg.sort_mode = SortMode::Analytic;
  cfg.fault_plan = fault::FaultPlan::random(side, side, spec);
  PramMeshSimulator sim(cfg);
  const i64 n = sim.processors();
  Rng rng(seed);
  const auto reqs = random_requests(n, M, rng);
  FaultPoint p;
  StepStats st;
  const WallTimer timer;
  try {
    const DegradedResult r = sim.step_degraded(reqs, &st);
    p.wall_ms = timer.ms();
    p.steps = st.total_steps;
    p.report = r.report;
    i64 served = 0;
    for (const char ok : r.ok) served += ok != 0;
    p.availability = static_cast<double>(served) / static_cast<double>(n);
  } catch (const fault::FaultError&) {
    // A hostile enough random plan can wall an alive node in behind dead
    // links; record the point as unroutable instead of aborting the sweep.
    p.wall_ms = timer.ms();
    p.unroutable = true;
    p.availability = 0;
  }
  return p;
}

std::string fmt(double v, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

}  // namespace

int main() {
  const double alpha = 1.5;
  const std::vector<double> rates = {0.01, 0.03, 0.06};
  // Routing faults force whole-mesh detour scope with serialized stages, so
  // faulted points are capped at side 32 to keep the sweep quick; rate-0
  // parity points still cover every bench_simulation_mid_mem side.
  const int max_faulted_side = 32;

  std::cout << "=== EXP-FT1: fault-rate sweep, alpha = 1.5 (degraded-mode "
               "slowdown + availability) ===\n";
  BenchRecorder rec("fault_sweep");
  Table t({"k", "side", "rate", "T_sim", "slowdown", "avail", "failed",
           "degraded", "retried", "detoured", "dropped"});
  for (int k : {2, 3}) {
    for (int side : {16, 32, 64, 128}) {
      if (side > bench_max_side()) continue;
      const i64 n = static_cast<i64>(side) * side;
      const i64 M = static_cast<i64>(std::llround(std::pow(n, alpha)));
      const std::string base_cfg =
          "k=" + std::to_string(k) + " side=" + std::to_string(side);

      const FaultPoint base =
          measure_fault_step(side, M, 3, k, 7, fault::FaultSpec{});
      rec.point(base_cfg, base.wall_ms, base.steps);
      t.add(k, side, "0", base.steps, "1.00", fmt(base.availability, 4), 0, 0,
            0, 0, 0);

      if (side > max_faulted_side) {
        std::cout << "(side " << side
                  << ": faulted points skipped, rate-0 parity only)\n";
        continue;
      }
      for (const double rate : rates) {
        const FaultPoint p =
            measure_fault_step(side, M, 3, k, 7, spec_for(rate, side, k));
        if (p.unroutable) {
          rec.point(base_cfg + " rate=" + fmt(rate, 3) + " unroutable",
                    p.wall_ms, 0);
          t.add(k, side, fmt(rate, 3), "-", "-", "-", "-", "-", "-", "-", "-");
          continue;
        }
        const double slowdown =
            static_cast<double>(p.steps) / static_cast<double>(base.steps);
        rec.point(base_cfg + " rate=" + fmt(rate, 3) + " slowdown=" +
                      fmt(slowdown, 2) + " avail=" + fmt(p.availability, 4),
                  p.wall_ms, p.steps);
        t.add(k, side, fmt(rate, 3), p.steps, fmt(slowdown, 2),
              fmt(p.availability, 4), p.report.requests_failed,
              p.report.requests_degraded, p.report.packets_retried,
              p.report.packets_detoured, p.report.packets_dropped);
      }
    }
  }
  t.print(std::cout);
  rec.write();
  return 0;
}

// The three simulator workloads: sim_dense, sim_faults and dist_ranks.
//
// Each builds its machine, writes a seeded working set of 4n variables
// (n = processors) and runs one mixed warm-up step; that is the set-up,
// repeated kSetups times so setup_s is a median (see kSetups for the order).
// The timed phase runs steps in which every processor accesses a distinct
// working-set variable, half reads and half writes. The host-speed probe
// runs before the first set-up and after every set-up and step, and each
// set-up and step time is also reported at the reference host speed, scaled
// by the probes on either side of it (SpeedProbe). Counted-step metrics
// average the first `exact_steps` timed steps, a fixed prefix of the seeded
// step sequence, so they repeat exactly across runs of one seed whatever the
// host speed; peak RSS is read at the end of that prefix for the same reason.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "dist/machine.hpp"
#include "fault/plan.hpp"
#include "protocol/simulator.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace meshpram::perfbench {
namespace {

/// Pool threads of sim_dense and rank threads of dist_ranks: half the 4
/// vCPUs of the host the benchmark was tuned on. Their threads wait on each
/// other many times per step, so the team stalls whenever any of its threads
/// loses its vCPU (to hypervisor steal, the OS or the runner): each thread
/// adds to that exposure, and the spare vCPUs take the OS's and the runner's
/// load (README.md, noise findings).
constexpr int kCoupledThreads = 2;

struct MachineSpec {
  SimConfig cfg;
  int threads = 1;  ///< execution pool size (the driving thread's pool)
  int ranks = 0;    ///< > 0: a dist::DistMachine with this many rank threads
  bool degraded = false;  ///< step through step_degraded (fault workloads)
  i64 exact_steps = 4;
  /// Span-ring slots per thread in the traced run, drained after every
  /// step: about four times the most one thread recorded in one step.
  size_t ring_capacity = size_t{1} << 14;
};

struct StepOutcome {
  std::vector<i64> values;
  std::vector<char> ok;  ///< empty = every request served
};

StepOutcome run_step(PramMeshSimulator& sim, const MachineSpec& spec,
                     const std::vector<AccessRequest>& reqs, StepStats& st) {
  if (!spec.degraded) return {sim.step(reqs, &st), {}};
  DegradedResult r = sim.step_degraded(reqs, &st);
  return {std::move(r.values), std::move(r.ok)};
}

StepOutcome run_step(dist::DistMachine& m, const MachineSpec&,
                     const std::vector<AccessRequest>& reqs, StepStats& st) {
  return {m.step(reqs, &st), {}};
}

std::unique_ptr<PramMeshSimulator> build(const MachineSpec& spec,
                                         PramMeshSimulator*) {
  return std::make_unique<PramMeshSimulator>(spec.cfg);
}

std::unique_ptr<dist::DistMachine> build(const MachineSpec& spec,
                                         dist::DistMachine*) {
  dist::DistConfig dc;
  dc.sim = spec.cfg;
  dc.ranks = spec.ranks;
  dc.validate = 0;
  return std::make_unique<dist::DistMachine>(dc);
}

/// Checks one step's results against the shadow; counts attempts/failures.
void check_step(const std::vector<AccessRequest>& reqs, const StepOutcome& out,
                Shadow& shadow, Report& rep) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].var < 0) continue;
    ++rep.attempted;
    if (!out.ok.empty() && out.ok[i] == 0) {
      ++rep.failed;  // unservable under the fault plan: no state change
      continue;
    }
    if (!shadow.apply(reqs[i], out.values[i])) {
      rep.mismatch("processor " + std::to_string(i) + " read var " +
                   std::to_string(reqs[i].var) + " = " +
                   std::to_string(out.values[i]));
    }
  }
}

double page_load_ratio(const CullingStats& c) {
  double worst = 0;
  for (size_t i = 0; i < c.max_page_load.size() && i < c.bound.size(); ++i) {
    if (c.bound[i] > 0) {
      worst = std::max(worst, static_cast<double>(c.max_page_load[i]) /
                                  static_cast<double>(c.bound[i]));
    }
  }
  return worst;
}

/// Counted-step sums over the exact prefix of a phase.
struct CountedSums {
  i64 steps = 0;
  i64 total = 0, culling = 0, forward = 0, ret = 0, packets = 0;
  double page_load = 0;
  fault::FaultReport fault;

  void add(const StepStats& st) {
    ++steps;
    total += st.total_steps;
    culling += st.culling_steps;
    forward += st.forward_steps;
    ret += st.return_steps;
    packets += st.packets;
    page_load += page_load_ratio(st.culling);
    fault.packets_detoured += st.fault.packets_detoured;
    fault.packets_retried += st.fault.packets_retried;
    fault.packets_dropped += st.fault.packets_dropped;
    fault.requests_degraded += st.fault.requests_degraded;
  }
  double per_step(i64 v) const {
    return steps == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(steps);
  }
};

struct PhaseResult {
  std::vector<double> step_ms;      ///< host wall time
  std::vector<double> step_ref_ms;  ///< at the reference host speed
  std::vector<double> probe_ms;     ///< the probe run after each step
  CountedSums exact;      ///< the first exact_steps steps
  i64 return_steps = 0;   ///< counted return steps over every step
  SpanLedger spans;       ///< traced phases only
  // dist::DistMachine only: boundary traffic of the exact prefix, and the
  // time rank threads spent blocked in collectives over the phase.
  i64 boundary_bytes = 0;
  double wait_ms = 0;
  /// Peak RSS once the exact prefix has run. Copy stores keep growing as
  /// CULLING selects copies not written before, so the peak at the end of
  /// the phase would depend on how many steps the host managed.
  double rss_mb = 0;
};

i64 boundary_bytes(const PramMeshSimulator&) { return 0; }
i64 boundary_bytes(const dist::DistMachine& m) { return m.boundary_bytes(); }
double wait_ms(const PramMeshSimulator&) { return 0; }
double wait_ms(const dist::DistMachine& m) { return m.wait_totals().wait_ms; }

template <class M>
class MachineRun {
 public:
  MachineRun(const MachineSpec& spec, const Options& opt, SpeedProbe& probe,
             Report& rep)
      : spec_(spec), rep_(rep), probe_(probe) {
    probe_.run_ms();  // warm-up: the first run pays for cold caches
    last_probe_ms_ = probe_.run_ms();
    u64 s = opt.seed;
    const u64 ws_seed = splitmix64(s);
    step_seed_ = splitmix64(s);
    const i64 n = i64{spec.cfg.mesh_rows} * spec.cfg.mesh_cols;
    Rng ws_rng(ws_seed);
    working_set_ = ws_rng.sample(spec.cfg.num_vars, 4 * n);
  }

  /// Builds the machine, loads the working set and runs the warm-up step,
  /// `setups` times over, each after tearing down the machine before it; the
  /// last machine stays for the timed phases. `setup_s` gets each set-up's
  /// time at the reference host speed, `wall_s` its wall time.
  void setup(int setups, std::vector<double>& setup_s,
             std::vector<double>& wall_s, std::vector<double>& build_ms,
             std::vector<double>& load_ms) {
    for (int r = 0; r < setups; ++r) {
      machine_.reset();  // the previous instance's memory is released first
      const Clock::time_point t0 = Clock::now();
      machine_ = build(spec_, static_cast<M*>(nullptr));
      build_ms.push_back(seconds_since(t0) * 1e3);
      const Clock::time_point t1 = Clock::now();
      gen_.emplace(machine_->processors(), working_set_, step_seed_);
      shadow_.emplace(spec_.cfg.num_vars);
      for (const auto& reqs : gen_->load_steps()) step(reqs, nullptr);
      load_ms.push_back(seconds_since(t1) * 1e3);
      step(gen_->next(), nullptr);  // first mixed step: lazy allocation
      wall_s.push_back(seconds_since(t0));
      setup_s.push_back(scaled(wall_s.back()));
    }
  }

  /// Runs steps for `seconds` and at least `min_steps`.
  PhaseResult phase(double seconds, i64 min_steps, bool traced) {
    PhaseResult res;
    const i64 bytes0 = boundary_bytes(*machine_);
    const double wait0 = wait_ms(*machine_);
    if (traced) begin_tracing(spec_.ring_capacity);
    const Clock::time_point start = Clock::now();
    while (static_cast<i64>(res.step_ms.size()) < min_steps ||
           seconds_since(start) < seconds) {
      const std::vector<AccessRequest> reqs = gen_->next();
      StepStats st;
      res.step_ms.push_back(step(reqs, &st));
      if (traced) res.spans.add(drain_spans());
      res.step_ref_ms.push_back(scaled(res.step_ms.back()));
      res.probe_ms.push_back(last_probe_ms_);
      if (res.exact.steps < spec_.exact_steps) {
        res.exact.add(st);
        res.boundary_bytes = boundary_bytes(*machine_) - bytes0;
        res.rss_mb = peak_rss_mb();
      }
      res.return_steps += st.return_steps;
    }
    if (traced) end_tracing();
    res.wait_ms = wait_ms(*machine_) - wait0;
    return res;
  }

 private:
  /// `t` (any unit), which ended just now, at the reference host speed:
  /// runs the probe and scales by it and the probe before `t`.
  double scaled(double t) {
    const double before = last_probe_ms_;
    last_probe_ms_ = probe_.run_ms();
    return probe_.at_ref_speed(t, before, last_probe_ms_);
  }

  /// One checked step; returns its wall time in ms.
  double step(const std::vector<AccessRequest>& reqs, StepStats* stats) {
    StepStats local;
    StepStats& st = stats != nullptr ? *stats : local;
    const Clock::time_point t0 = Clock::now();
    const StepOutcome out = run_step(*machine_, spec_, reqs, st);
    const double ms = seconds_since(t0) * 1e3;
    check_step(reqs, out, *shadow_, rep_);
    return ms;
  }

  const MachineSpec& spec_;
  Report& rep_;
  SpeedProbe& probe_;
  double last_probe_ms_ = 0;  ///< the latest probe time
  u64 step_seed_ = 0;
  std::vector<i64> working_set_;
  std::unique_ptr<M> machine_;
  std::optional<StepGenerator> gen_;
  std::optional<Shadow> shadow_;
};

template <class M>
Report run_machine(const MachineSpec& spec, const Options& opt) {
  set_log_level(LogLevel::Error);  // small meshes warn that some t_i < 1
  set_execution_threads(spec.threads);
  Report rep;
  rep.info["mesh"] = std::to_string(spec.cfg.mesh_rows) + "x" +
                     std::to_string(spec.cfg.mesh_cols);
  rep.info["k"] = std::to_string(spec.cfg.k);
  rep.info["num_vars"] = std::to_string(spec.cfg.num_vars);
  rep.info["threads"] = std::to_string(execution_threads());
  rep.info["ranks"] = std::to_string(spec.ranks);
  rep.info["sort_mode"] =
      spec.cfg.sort_mode == SortMode::Analytic ? "analytic" : "simulated";

  // One probe thread per thread that works on a step; the machines' copy
  // stores and queues outgrow the per-core caches, so the probe includes
  // its memory part.
  SpeedProbe probe(spec.ranks > 0 ? spec.ranks : spec.threads, true);
  MachineRun<M> run(spec, opt, probe, rep);
  std::vector<double> setup_s, setup_wall_s, build_ms, load_ms;
  run.setup(1, setup_s, setup_wall_s, build_ms, load_ms);

  if (!opt.trace) {
    const PhaseResult p = run.phase(opt.seconds, spec.exact_steps, false);
    run.setup(kSetups - 1, setup_s, setup_wall_s, build_ms, load_ms);
    const auto per_s = [](const std::vector<double>& ms) {
      double total = 0;
      for (double v : ms) total += v;
      return static_cast<double>(ms.size()) / (total / 1e3);
    };
    rep.set("pram_steps_per_s", per_s(p.step_ref_ms));
    rep.set("latency_p50_ms", median(p.step_ref_ms));
    rep.set("setup_s", median(setup_s));
    rep.set("peak_rss_mb", p.rss_mb - probe.resident_mb());
    rep.set("mesh_steps_per_pram_step", p.exact.per_step(p.exact.total));
    rep.info["timed_steps"] = std::to_string(p.step_ms.size());
    rep.info["wall_pram_steps_per_s"] = std::to_string(per_s(p.step_ms));
    rep.info["wall_latency_p50_ms"] = std::to_string(median(p.step_ms));
    rep.info["wall_setup_s"] = std::to_string(median(setup_wall_s));
    rep.info["probe_ms_p50"] = std::to_string(median(p.probe_ms));
    rep.info["probe_resident_mb"] = std::to_string(probe.resident_mb());
    return rep;
  }

  // Traced run: a traced phase (its first exact_steps steps are the same
  // seeded steps the untraced run counts), then an untraced phase of the
  // same length for the tracing overhead.
  const PhaseResult tr = run.phase(opt.seconds / 2, spec.exact_steps, true);
  const PhaseResult un = run.phase(opt.seconds / 2, 2, false);
  const double steps = static_cast<double>(tr.step_ms.size());
  const bool is_dist = spec.ranks > 0;
  const double stepping = is_dist ? spec.ranks : 1;  // threads driving steps
  const SpanLedger& sp = tr.spans;
  double wall_ms = 0;
  for (double ms : tr.step_ms) wall_ms += ms;

  rep.set("setup.build_ms", median(build_ms));
  rep.set("setup.load_ms", median(load_ms));
  const auto stage = [&](const char* label) {
    return sp.total_ms(label) / stepping / steps;
  };
  rep.set("protocol.culling_ms", stage("culling.iter"));
  rep.set("protocol.forward_ms", stage("access.forward"));
  rep.set("protocol.return_ms", stage("access.return"));
  rep.set("protocol.deliver_ms", stage("access.deliver"));
  rep.set("protocol.return_us_per_step",
          tr.return_steps == 0
              ? 0.0
              : sp.total_ms("access.return") / stepping * 1e3 /
                    static_cast<double>(tr.return_steps));
  const CountedSums& ex = tr.exact;
  rep.set("protocol.culling_steps", ex.per_step(ex.culling));
  rep.set("protocol.forward_steps", ex.per_step(ex.forward));
  rep.set("protocol.return_steps", ex.per_step(ex.ret));
  rep.set("protocol.page_load_ratio",
          ex.steps == 0 ? 0.0 : ex.page_load / static_cast<double>(ex.steps));
  const auto thread_ms = [&](const char* label) {
    return sp.total_ms(label) / steps;
  };
  rep.set("routing.greedy_ms", thread_ms("route.greedy"));
  rep.set("routing.sort_ms", thread_ms("sort.region"));
  rep.set("routing.rank_ms", thread_ms("rank.groups"));
  rep.set("routing.drain_ms", thread_ms("mesh.drain"));
  rep.set("routing.fault_ms", thread_ms("route.greedy.fault"));
  rep.set("routing.packets_per_step", ex.per_step(ex.packets));
  rep.set("fault.detoured_per_step", ex.per_step(ex.fault.packets_detoured));
  rep.set("fault.retried_per_step", ex.per_step(ex.fault.packets_retried));
  rep.set("fault.dropped_per_step", ex.per_step(ex.fault.packets_dropped));
  rep.set("fault.degraded_per_step", ex.per_step(ex.fault.requests_degraded));
  rep.set("engine.busy_frac",
          sp.total_ms("parallel.region") /
              ((is_dist ? stepping : execution_threads()) * wall_ms));
  double speedup = 0;  // measured only where the pool has several threads
  if (spec.ranks == 0 && spec.threads > 1) {
    set_execution_threads(1);
    const PhaseResult serial = run.phase(0, 2, false);
    set_execution_threads(spec.threads);
    speedup = median(serial.step_ref_ms) / median(un.step_ref_ms);
  }
  rep.set("engine.speedup_vs_1t", speedup);
  rep.set("dist.wait_frac", is_dist ? tr.wait_ms / (stepping * wall_ms) : 0.0);
  rep.set("dist.route_ms", sp.total_ms("route.dist") / stepping / steps);
  rep.set("dist.culling_ms",
          is_dist ? sp.sum_of_max_ms("culling.iter") / steps : 0.0);
  rep.set("dist.boundary_kb_per_step",
          ex.per_step(tr.boundary_bytes) / 1024.0);
  rep.set("telemetry.overhead_frac",
          median(tr.step_ref_ms) / median(un.step_ref_ms) - 1.0);
  rep.set("telemetry.dropped_events", static_cast<double>(sp.dropped()));
  for (const char* name :
       {"serve.busy_frac", "serve.service_ms", "serve.session_step_ms",
        "serve.requests_per_pass", "serve.peak_queue_depth", "serve.rejected",
        "serve.parked", "serve.latency_p99_ms", "loadgen.late_ms_p99"}) {
    rep.set(name, 0);  // no serving layer on this workload
  }
  if (sp.dropped() != 0) {
    rep.mismatch(std::to_string(sp.dropped()) + " trace events dropped");
  }
  return rep;
}

}  // namespace

Report run_sim_dense(const Options& opt) {
  MachineSpec spec;
  const int side = opt.quick ? 16 : 64;
  spec.cfg.mesh_rows = spec.cfg.mesh_cols = side;
  spec.cfg.k = opt.quick ? 2 : 3;
  spec.cfg.q = 3;
  spec.cfg.num_vars = opt.quick ? 4096 : 262144;  // n^1.5
  spec.cfg.sort_mode = SortMode::Analytic;
  spec.cfg.fault_plan_from_env = false;
  spec.threads = kCoupledThreads;
  spec.exact_steps = opt.quick ? 2 : 8;
  return run_machine<PramMeshSimulator>(spec, opt);
}

Report run_sim_faults(const Options& opt) {
  MachineSpec spec;
  const int side = opt.quick ? 16 : 32;
  spec.cfg.mesh_rows = spec.cfg.mesh_cols = side;
  spec.cfg.k = opt.quick ? 2 : 3;
  spec.cfg.q = 3;
  spec.cfg.num_vars = opt.quick ? 4096 : 32768;  // n^1.5
  spec.cfg.sort_mode = SortMode::Analytic;
  fault::FaultSpec fs;
  u64 s = opt.seed ^ 0xfa17fa17fa17fa17ULL;
  fs.seed = splitmix64(s);
  fs.module_rate = 0.02;
  fs.link_rate = 0.01;
  fs.stall_rate = 0.02;
  fs.drop_rate = 0.002;
  spec.cfg.fault_plan = fault::FaultPlan::random(side, side, fs);
  spec.cfg.fault_plan_from_env = false;
  spec.threads = 1;
  spec.degraded = true;
  spec.exact_steps = opt.quick ? 2 : 8;
  return run_machine<PramMeshSimulator>(spec, opt);
}

Report run_dist_ranks(const Options& opt) {
  MachineSpec spec;
  const int side = opt.quick ? 16 : 64;
  spec.cfg.mesh_rows = spec.cfg.mesh_cols = side;
  spec.cfg.k = opt.quick ? 2 : 3;
  spec.cfg.q = 3;
  spec.cfg.num_vars = opt.quick ? 4096 : 262144;  // n^1.5
  spec.cfg.sort_mode = SortMode::Analytic;
  spec.cfg.fault_plan_from_env = false;
  spec.ranks = opt.quick ? 2 : kCoupledThreads;
  spec.threads = 1;
  spec.exact_steps = opt.quick ? 2 : 8;
  return run_machine<dist::DistMachine>(spec, opt);
}

}  // namespace meshpram::perfbench

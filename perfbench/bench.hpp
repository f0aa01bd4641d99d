// Shared pieces of the meshpram benchmark program (see README.md).
//
// A workload function builds its inputs from Options::seed, sets up, runs a
// timed phase of Options::seconds, checks every read against a host-side
// shadow of shared memory, and fills a Report. The untraced run (trace off)
// reports the end-to-end metrics; the traced run reports the per-layer ones.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "protocol/access.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace meshpram::perfbench {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Toy sizes and short phases: a smoke run of every code path.
  bool quick = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::map<std::string, Metric> metrics;
  /// Run description (thread and rank counts, sizes, ...), printed apart
  /// from the result line.
  std::map<std::string, std::string> info;

  /// Records a metric; its unit comes from the catalogue (metric_unit).
  void set(const std::string& name, double value);
  /// Records a failed correctness check; the run reports correct=false.
  void mismatch(const std::string& what);
};

/// Unit of every metric the benchmark reports (the same names and units as
/// BENCHMARK.json). Throws for an unknown name.
const std::string& metric_unit(const std::string& name);

/// Set-ups per untraced run: setup_s is their median. The first precedes
/// the timed phase and the others follow it, so the peak RSS read during the
/// phase covers a single set-up, as in a user's process: an earlier set-up's
/// freed heap would otherwise raise the peak by an amount that differed from
/// seed to seed. The traced run sets up once (set-up time is an untraced
/// metric).
constexpr int kSetups = 3;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// Host-speed probe. On the 4-vCPU VM the benchmark was tuned on, the same
/// code ran up to 70% slower in some minutes than in others (the neighbours'
/// load on the shared caches and memory), so a host time alone cannot tell a
/// slower program from a slower host. The probe is a fixed piece of work
/// that uses nothing of the library: sorting 32Ki random keys (in-cache
/// work) and, with `memory`, 256Ki random reads of a 32 MiB table (work
/// that waits on the shared caches and memory), run on `threads` threads at
/// once. A timed duration is reported at the reference host speed: scaled
/// by the reference probe time over the probe's time next to it. See
/// README.md, "Host-speed scaling".
class SpeedProbe {
 public:
  SpeedProbe(int threads, bool memory);
  /// Runs the probe on `threads` threads at once (the calling thread is one
  /// of them); returns the mean of their times, in ms.
  double run_ms();
  /// Memory the probe keeps resident, in MiB; peak RSS excludes it.
  double resident_mb() const { return resident_mb_; }

  /// `ms`, measured between probes that took `probe_before` and
  /// `probe_after` ms, at the reference host speed.
  double at_ref_speed(double ms, double probe_before,
                      double probe_after) const {
    return ms * ref_ms() * 2 / (probe_before + probe_after);
  }

 private:
  /// The probe's time at the reference host speed, in ms: fixed scales
  /// near what one probe thread took on the tuning VM (6.4-7.4 ms with the
  /// memory part, 2.7-2.9 ms without).
  double ref_ms() const { return table_.empty() ? 2.5 : 6.5; }
  double run_one_ms(size_t t);

  std::vector<u64> table_;
  std::vector<std::vector<u64>> keys_;  ///< one buffer per thread
  std::vector<u64> state_;              ///< one xorshift state per thread
  double resident_mb_ = 0;
};

/// Host-side shadow of shared memory: the value every variable must read.
class Shadow {
 public:
  explicit Shadow(i64 num_vars) : mem_(static_cast<size_t>(num_vars), 0) {}

  /// Checks one completed access: a read must return the shadow value, a
  /// write updates it. Returns false on a read mismatch.
  bool apply(const AccessRequest& req, i64 read_value);

 private:
  std::vector<i64> mem_;
};

/// Per-step generator of the simulator workloads' timed steps: every
/// processor accesses a distinct variable of a fixed working set, half of
/// the processors (a fresh random half each step) write.
class StepGenerator {
 public:
  StepGenerator(i64 processors, std::vector<i64> working_set, u64 seed);

  /// Writes covering the whole working set, `processors` per step, in
  /// order: the set-up load.
  std::vector<std::vector<AccessRequest>> load_steps();
  std::vector<AccessRequest> next();

 private:
  i64 n_;
  std::vector<i64> ws_;
  Rng rng_;
};

/// Per-label span totals drained from the telemetry rings. Durations are
/// the union of a label's spans on each thread (nested spans of one label
/// count once), in milliseconds.
struct SpanTotals {
  struct Entry {
    std::vector<double> thread_ms;  ///< indexed by telemetry thread id
    i64 spans = 0;                  ///< outermost spans seen
    i64 steps = 0;  ///< counted mesh steps the spans carry (Event::steps)
  };
  std::map<std::string, Entry> by_label;
  /// Events lost to ring wrap-around before the drain.
  i64 dropped = 0;
};

/// Collects every span recorded since the last drain and clears the rings.
/// Call only while no instrumented work is in flight.
SpanTotals drain_spans();

/// Accumulates drains over a traced phase.
class SpanLedger {
 public:
  void add(const SpanTotals& t);
  /// Summed over threads and drains; 0 for a label never seen.
  double total_ms(std::string_view label) const;
  /// Sum over drains of each drain's largest single-thread total.
  double sum_of_max_ms(std::string_view label) const;
  /// Totals over every label that starts with `prefix`.
  double prefix_ms(std::string_view prefix) const;
  i64 prefix_spans(std::string_view prefix) const;
  /// Counted mesh steps carried by a label's spans.
  i64 steps(std::string_view label) const;
  i64 dropped() const { return dropped_; }

 private:
  struct Acc {
    double total_ms = 0;
    double max_sum_ms = 0;
    i64 spans = 0;
    i64 steps = 0;
  };
  std::map<std::string, Acc, std::less<>> acc_;
  i64 dropped_ = 0;
};

/// Starts span recording into rings of `capacity` events per thread.
void begin_tracing(size_t capacity);
void end_tracing();

// ---- workloads ------------------------------------------------------------
Report run_sim_dense(const Options& opt);
Report run_sim_faults(const Options& opt);
Report run_dist_ranks(const Options& opt);
Report run_serve_open(const Options& opt);

}  // namespace meshpram::perfbench

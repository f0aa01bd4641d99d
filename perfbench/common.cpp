#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace meshpram::perfbench {

const std::string& metric_unit(const std::string& name) {
  static const std::map<std::string, std::string> units = {
      // end to end
      {"pram_steps_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"mesh_steps_per_pram_step", "steps"},
      // per layer
      {"setup.build_ms", "ms"},
      {"setup.load_ms", "ms"},
      {"protocol.culling_ms", "ms"},
      {"protocol.forward_ms", "ms"},
      {"protocol.return_ms", "ms"},
      {"protocol.deliver_ms", "ms"},
      {"protocol.return_us_per_step", "us"},
      {"protocol.culling_steps", "steps"},
      {"protocol.forward_steps", "steps"},
      {"protocol.return_steps", "steps"},
      {"protocol.page_load_ratio", "ratio"},
      {"routing.greedy_ms", "ms"},
      {"routing.sort_ms", "ms"},
      {"routing.rank_ms", "ms"},
      {"routing.drain_ms", "ms"},
      {"routing.fault_ms", "ms"},
      {"routing.packets_per_step", "count"},
      {"fault.detoured_per_step", "count"},
      {"fault.retried_per_step", "count"},
      {"fault.dropped_per_step", "count"},
      {"fault.degraded_per_step", "count"},
      {"engine.busy_frac", "fraction"},
      {"engine.speedup_vs_1t", "x"},
      {"dist.wait_frac", "fraction"},
      {"dist.route_ms", "ms"},
      {"dist.culling_ms", "ms"},
      {"dist.boundary_kb_per_step", "KB"},
      {"serve.busy_frac", "fraction"},
      {"serve.service_ms", "ms"},
      {"serve.session_step_ms", "ms"},
      {"serve.requests_per_pass", "count"},
      {"serve.peak_queue_depth", "count"},
      {"serve.rejected", "count"},
      {"serve.parked", "count"},
      {"serve.latency_p99_ms", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"telemetry.overhead_frac", "fraction"},
      {"telemetry.dropped_events", "count"},
  };
  const auto it = units.find(name);
  MP_REQUIRE(it != units.end(), "unknown metric " << name);
  return it->second;
}

void Report::set(const std::string& name, double value) {
  metrics[name] = Metric{value, metric_unit(name)};
}

void Report::mismatch(const std::string& what) {
  if (correct) std::cerr << "perfbench: wrong result: " << what << "\n";
  correct = false;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// A field of /proc/self/status given in kB, in MiB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }

SpeedProbe::SpeedProbe(int threads, bool memory) {
  const double before = status_mb("VmRSS:");
  const size_t n = static_cast<size_t>(std::max(threads, 1));
  state_.resize(n);
  for (size_t t = 0; t < n; ++t) {
    state_[t] = 0x9e3779b97f4a7c15ULL * (t + 1);
    keys_.emplace_back(size_t{1} << 15);
  }
  // 32 MiB of random words: every page resident and distinct.
  if (memory) table_.resize(size_t{1} << 22);
  u64 x = 0x2545f4914f6cdd1dULL;
  for (u64& v : table_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  resident_mb_ = status_mb("VmRSS:") - before;
}

double SpeedProbe::run_one_ms(size_t t) {
  u64 x = state_[t];
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<u64>& keys = keys_[t];
  const Clock::time_point t0 = Clock::now();
  for (u64& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  u64 sum = 0;
  if (!table_.empty()) {
    const u64 mask = table_.size() - 1;
    for (int i = 0; i < (1 << 18); ++i) sum += table_[next() & mask];
  }
  const double ms = seconds_since(t0) * 1e3;
  keys[0] = sum;  // keeps the reads
  state_[t] = x;
  return ms;
}

double SpeedProbe::run_ms() {
  const size_t n = state_.size();
  std::vector<double> ms(n, 0.0);
  {
    std::vector<std::jthread> helpers;  // joined at the end of the block
    for (size_t t = 1; t < n; ++t) {
      helpers.emplace_back([this, &ms, t] { ms[t] = run_one_ms(t); });
    }
    ms[0] = run_one_ms(0);
  }
  return std::accumulate(ms.begin(), ms.end(), 0.0) / static_cast<double>(n);
}

bool Shadow::apply(const AccessRequest& req, i64 read_value) {
  if (req.var < 0) return true;
  i64& cell = mem_[static_cast<size_t>(req.var)];
  if (req.op == Op::Write) {
    cell = req.value;
    return true;
  }
  return cell == read_value;
}

StepGenerator::StepGenerator(i64 processors, std::vector<i64> working_set,
                             u64 seed)
    : n_(processors), ws_(std::move(working_set)), rng_(seed) {}

std::vector<std::vector<AccessRequest>> StepGenerator::load_steps() {
  std::vector<std::vector<AccessRequest>> steps;
  for (size_t begin = 0; begin < ws_.size(); begin += static_cast<size_t>(n_)) {
    std::vector<AccessRequest> step(static_cast<size_t>(n_));
    for (i64 i = 0; i < n_ && begin + static_cast<size_t>(i) < ws_.size();
         ++i) {
      step[static_cast<size_t>(i)] = {ws_[begin + static_cast<size_t>(i)],
                                      Op::Write,
                                      static_cast<i64>(rng_() >> 1)};
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

std::vector<AccessRequest> StepGenerator::next() {
  // Partial Fisher-Yates: the first n slots become a uniform sample of
  // distinct working-set variables.
  std::vector<AccessRequest> step(static_cast<size_t>(n_));
  const u64 size = ws_.size();
  for (i64 i = 0; i < n_; ++i) {
    const u64 j = static_cast<u64>(i) + rng_.below(size - static_cast<u64>(i));
    std::swap(ws_[static_cast<size_t>(i)], ws_[j]);
  }
  std::vector<i64> order(static_cast<size_t>(n_));
  std::iota(order.begin(), order.end(), i64{0});
  rng_.shuffle(order);
  for (i64 i = 0; i < n_; ++i) {
    const bool write = order[static_cast<size_t>(i)] < n_ / 2;
    step[static_cast<size_t>(i)] = {
        ws_[static_cast<size_t>(i)], write ? Op::Write : Op::Read,
        write ? static_cast<i64>(rng_() >> 1) : 0};
  }
  return step;
}

SpanTotals drain_spans() {
  SpanTotals out;
  const telemetry::BufferStats buffers = telemetry::buffer_stats();
  out.dropped = static_cast<i64>(buffers.dropped);
  const int threads = telemetry::thread_count();
  std::map<telemetry::Label, std::string> names;
  for (int tid = 0; tid < threads; ++tid) {
    // Per label: the thread's span intervals, merged so that a span nested
    // inside another of the same label is not counted twice.
    std::map<telemetry::Label, std::vector<std::pair<i64, i64>>> spans;
    std::map<telemetry::Label, i64> steps;
    for (const telemetry::Event& e : telemetry::thread_events(tid)) {
      if (e.t1_ns <= e.t0_ns) continue;  // instant counter samples
      spans[e.label].emplace_back(e.t0_ns, e.t1_ns);
      if (e.steps > 0) steps[e.label] += e.steps;
    }
    for (auto& [label, intervals] : spans) {
      auto name = names.find(label);
      if (name == names.end()) {
        name = names.emplace(label, telemetry::label_name(label)).first;
      }
      std::sort(intervals.begin(), intervals.end());
      i64 covered_ns = 0;
      i64 count = 0;
      i64 end = -1;
      for (const auto& [t0, t1] : intervals) {
        if (t0 >= end) {
          covered_ns += t1 - t0;
          end = t1;
          ++count;
        } else if (t1 > end) {
          covered_ns += t1 - end;
          end = t1;
        }
      }
      SpanTotals::Entry& entry = out.by_label[name->second];
      entry.thread_ms.resize(static_cast<size_t>(threads), 0.0);
      entry.thread_ms[static_cast<size_t>(tid)] += covered_ns / 1e6;
      entry.spans += count;
      entry.steps += steps[label];
    }
  }
  telemetry::clear();
  return out;
}

void SpanLedger::add(const SpanTotals& t) {
  dropped_ += t.dropped;
  for (const auto& [label, entry] : t.by_label) {
    Acc& acc = acc_[label];
    acc.total_ms += std::accumulate(entry.thread_ms.begin(),
                                    entry.thread_ms.end(), 0.0);
    acc.max_sum_ms +=
        *std::max_element(entry.thread_ms.begin(), entry.thread_ms.end());
    acc.spans += entry.spans;
    acc.steps += entry.steps;
  }
}

i64 SpanLedger::steps(std::string_view label) const {
  const auto it = acc_.find(label);
  return it == acc_.end() ? 0 : it->second.steps;
}

double SpanLedger::total_ms(std::string_view label) const {
  const auto it = acc_.find(label);
  return it == acc_.end() ? 0.0 : it->second.total_ms;
}

double SpanLedger::sum_of_max_ms(std::string_view label) const {
  const auto it = acc_.find(label);
  return it == acc_.end() ? 0.0 : it->second.max_sum_ms;
}

double SpanLedger::prefix_ms(std::string_view prefix) const {
  double sum = 0;
  for (const auto& [label, acc] : acc_) {
    if (label.rfind(prefix, 0) == 0) sum += acc.total_ms;
  }
  return sum;
}

i64 SpanLedger::prefix_spans(std::string_view prefix) const {
  i64 sum = 0;
  for (const auto& [label, acc] : acc_) {
    if (label.rfind(prefix, 0) == 0) sum += acc.spans;
  }
  return sum;
}

void begin_tracing(size_t capacity) {
  telemetry::set_ring_capacity(capacity);
  telemetry::set_sample_every(1);
  telemetry::set_enabled(true);
}

void end_tracing() { telemetry::set_enabled(false); }

}  // namespace meshpram::perfbench

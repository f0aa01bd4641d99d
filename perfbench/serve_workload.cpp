// serve_open: open-loop traffic through a NetServer on a unix socket.
//
// One server thread drives NetServer::poll_once over a 1-thread
// FairScheduler at coalescing window 8; this (client) thread holds two
// connections. Eight 16x16 sessions: four replay EREW traces of real
// algorithms (recorded during set-up), four get bursts of 8-access random
// requests that can coalesce. Arrivals follow a seeded Poisson schedule at a
// fixed rate, and each latency runs from the request's scheduled send time.
// A timed phase is a series of one-second segments; between two segments,
// with every reply in, the server thread runs the host-speed probe, and each
// latency is also reported at the reference host speed, scaled by the probes
// on either side of its segment (SpeedProbe). Every read is checked against
// a per-session shadow of shared memory.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "algo/harness.hpp"
#include "bench.hpp"
#include "serve/net_client.hpp"
#include "serve/net_server.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace meshpram::perfbench {
namespace {

using namespace meshpram::serve;

constexpr int kSide = 16;
constexpr i64 kVars = 2048;
constexpr i64 kRandomAccesses = 8;
/// Arrivals per second (a random-session arrival brings kBurst requests):
/// about a fifth of what one scheduler thread serves on this mix on the
/// 4-vCPU host the benchmark was tuned on. Fixed, so the offered load never
/// depends on the host. At half capacity queueing turned the host's speed
/// drift into 40% swings of the median latency between runs (README.md).
constexpr double kRate = 100;
/// How long the client waits for outstanding replies after the last send.
/// A request still unanswered then fails the whole run: it stays queued on
/// the server, so its session's state, and every later reply id, would no
/// longer match the client's shadow and bookkeeping.
constexpr double kDrainTimeoutS = 20;
/// Length of a timed segment: the probe runs between segments.
constexpr double kSegmentS = 1.0;
/// Span-ring slots per second of traced phase for the server thread, whose
/// ring can only be drained once the phase is over: about 2.5 times the
/// rate the server records at this offered load.
constexpr double kRingEventsPerS = 400000;

const char* const kTraceWorkloads[] = {"cc:grid", "prefix", "bitonic",
                                       "refine"};
constexpr int kTraceSessions = 4;
constexpr int kRandomSessions = 4;
constexpr int kSessions = kTraceSessions + kRandomSessions;
/// A random session's arrival is a burst of this many pipelined requests,
/// which the scheduler can coalesce into one routing pass.
constexpr int kBurst = 4;
/// Arrivals per round: each trace session once, each random session
/// kRandomShare times. With few heavy trace requests a request rarely waits
/// behind two of them, so the p99 measures one heavy request's service
/// rather than the rate of rare pile-ups (README.md).
constexpr int kRandomShare = 6;

std::string session_name(int s) {
  static const char* const trace_names[] = {"cc_grid", "prefix", "bitonic",
                                            "refine"};
  return s < kTraceSessions ? trace_names[s]
                            : "random" + std::to_string(s - kTraceSessions);
}

/// Server side: sessions, scheduler and NetServer, with the loop thread.
class ServerStack {
 public:
  explicit ServerStack(const std::string& path)
      : scheduler_(manager_, scheduler_config()),
        server_(manager_, scheduler_, server_config(path)) {}
  ~ServerStack() { stop(); }
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  /// Builds a session; only before start().
  void add_session(const std::string& name) {
    SimConfig cfg;  // library defaults (SortMode::Simulated), 16x16, k=2
    cfg.mesh_rows = cfg.mesh_cols = kSide;
    cfg.num_vars = kVars;
    cfg.k = 2;
    cfg.fault_plan_from_env = false;
    manager_.create(name, cfg);
  }

  void start() {
    stop_flag_ = false;
    loop_ = std::thread([this] { loop(); });
  }
  void stop() {
    if (!loop_.joinable()) return;
    stop_flag_ = true;
    loop_.join();
  }

  /// Runs `probe` on the loop thread, the one that serves the requests, and
  /// returns its time in ms. Only while started, with no request in flight.
  double run_probe(SpeedProbe& probe) {
    probe_ = &probe;
    probe_state_.store(kProbeAsked, std::memory_order_release);
    while (probe_state_.load(std::memory_order_acquire) != kProbeDone) {
    }
    probe_state_.store(kProbeIdle, std::memory_order_relaxed);
    return probe_ms_;
  }

  // Readable only while stopped.
  const NetServerStats& net_stats() const { return server_.stats(); }
  const CoalesceStats& coalesce_stats() const {
    return scheduler_.coalesce_stats();
  }
  i64 busy_ns() const { return busy_ns_; }
  i64 executed() const { return executed_; }
  /// Sums over sessions: steps executed, mesh steps, peak queue depth (max).
  SessionStats session_totals() {
    SessionStats t;
    for (Session* s : manager_.sessions()) {
      t.steps_executed += s->stats().steps_executed;
      t.mesh_steps += s->stats().mesh_steps;
      t.peak_queue_depth =
          std::max(t.peak_queue_depth, s->stats().peak_queue_depth);
    }
    return t;
  }

 private:
  static SchedulerConfig scheduler_config() {
    SchedulerConfig c;
    c.threads = 1;
    c.coalesce_window = 8;
    return c;
  }
  static NetServerConfig server_config(const std::string& path) {
    NetServerConfig c;
    c.unix_path = path;
    return c;
  }

  /// NetServer::run's loop without the blocking wait: every round polls,
  /// so a round's duration is work, and busy time is the rounds that ran
  /// requests. The thread spins because on the VM the benchmark was tuned on
  /// a thread blocked in epoll_wait often woke milliseconds late, which made
  /// the latency percentiles swing between runs (README.md).
  void loop() {
    while (!stop_flag_.load(std::memory_order_relaxed)) {
      if (probe_state_.load(std::memory_order_acquire) == kProbeAsked) {
        probe_ms_ = probe_->run_ms();
        probe_state_.store(kProbeDone, std::memory_order_release);
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      const i64 n = server_.poll_once(0);
      if (n > 0) {
        busy_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
        executed_ += n;
      }
    }
  }

  SessionManager manager_;
  FairScheduler scheduler_;
  NetServer server_;
  std::atomic<bool> stop_flag_{false};
  static constexpr int kProbeIdle = 0, kProbeAsked = 1, kProbeDone = 2;
  std::atomic<int> probe_state_{kProbeIdle};
  SpeedProbe* probe_ = nullptr;
  double probe_ms_ = 0;
  i64 busy_ns_ = 0;
  i64 executed_ = 0;
  std::thread loop_;  // last: joined before the members it uses go away
};

struct Planned {
  double at_s = 0;  ///< scheduled send time from the phase start
  int session = 0;
  std::vector<AccessRequest> accesses;
};

/// Client side: the two connections, per-session shadows and the request
/// streams (trace cursors and the random stream), which continue across
/// phases.
class Client {
 public:
  Client(const std::string& path, std::vector<std::vector<std::vector<AccessRequest>>> traces,
         u64 seed, Report& rep)
      : traces_(std::move(traces)), rng_(seed), rep_(rep) {
    ConnectOptions retry;
    retry.attempts = 20;
    for (int c = 0; c < 2; ++c) {
      conns_.push_back(NetClient::connect_unix(path, retry));
    }
    shadows_.assign(kSessions, Shadow(kVars));
    cursor_.assign(kTraceSessions, 0);
  }

  /// Writes every variable of every session, one request per session in
  /// flight at a time (closed loop), so copy stores reach full size before
  /// timing and no session queue grows during set-up.
  void preload() {
    const i64 n = i64{kSide} * kSide;
    for (i64 base = 0; base < kVars; base += n) {
      std::vector<Planned> round;
      for (int s = 0; s < kSessions; ++s) {
        Planned p;
        p.session = s;
        for (i64 v = base; v < std::min(base + n, kVars); ++v) {
          p.accesses.push_back({v, Op::Write, static_cast<i64>(rng_() >> 1)});
        }
        round.push_back(std::move(p));
      }
      const PhaseStats st = run(round, /*open_loop=*/false);
      if (st.failed > 0) rep_.mismatch("set-up preload request failed");
    }
  }

  /// The Poisson schedule of one phase: arrivals at kRate over `seconds`.
  /// Sessions are drawn in shuffled rounds (see kRandomShare), so every
  /// phase offers the same mix of heavy and light requests.
  std::vector<Planned> plan(double seconds) {
    std::vector<Planned> out;
    double t = 0;
    while (true) {
      t += -std::log(1.0 - rng_.uniform()) / kRate;
      if (t >= seconds) break;
      if (round_.empty()) {
        for (int s = 0; s < kSessions; ++s) {
          round_.insert(round_.end(), s < kTraceSessions ? 1 : kRandomShare, s);
        }
        rng_.shuffle(round_);
      }
      const int session = round_.back();
      round_.pop_back();
      if (session < kTraceSessions) {
        const auto& trace = traces_[static_cast<size_t>(session)];
        size_t& cur = cursor_[static_cast<size_t>(session)];
        out.push_back({t, session, trace[cur]});
        cur = (cur + 1) % trace.size();
        continue;
      }
      for (int b = 0; b < kBurst; ++b) {
        Planned p{t, session, {}};
        for (const i64 v : rng_.sample(kVars, kRandomAccesses)) {
          const bool write = rng_.below(2) == 1;
          p.accesses.push_back({v, write ? Op::Write : Op::Read,
                                write ? static_cast<i64>(rng_() >> 1) : 0});
        }
        out.push_back(std::move(p));
      }
    }
    return out;
  }

  struct PhaseStats {
    std::vector<double> latency_ms;  ///< failed requests count as wall_s
    /// latency_ms at the reference host speed (filled by add_segment)
    std::vector<double> ref_latency_ms;
    std::vector<double> late_ms;     ///< send time minus scheduled time
    std::vector<double> probe_ms;    ///< the probe after each segment
    i64 completed = 0;
    i64 failed = 0;
    double wall_s = 0;  ///< phase start to the last successful reply

    /// Appends a segment's requests, scaling its latencies by the probes
    /// run before and after it.
    void add_segment(const PhaseStats& seg, const SpeedProbe& probe,
                     double probe_before, double probe_after) {
      latency_ms.insert(latency_ms.end(), seg.latency_ms.begin(),
                        seg.latency_ms.end());
      for (const double ms : seg.latency_ms) {
        ref_latency_ms.push_back(probe.at_ref_speed(ms, probe_before, probe_after));
      }
      late_ms.insert(late_ms.end(), seg.late_ms.begin(), seg.late_ms.end());
      probe_ms.push_back(probe_after);
      completed += seg.completed;
      failed += seg.failed;
      wall_s += seg.wall_s;
    }
  };

  static size_t conn_of(int session) { return static_cast<size_t>(session % 2); }

  /// Sends `plan` (open loop: each request at its scheduled time; closed:
  /// all at once) and collects the replies, then checks every read in
  /// per-session order. The loop spins rather than sleeps: on the VM the
  /// benchmark was tuned on, a sleeping thread often woke milliseconds late,
  /// which made the generator fall behind its schedule.
  PhaseStats run(const std::vector<Planned>& plan, bool open_loop) {
    std::vector<std::string> frames;
    frames.reserve(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      frames.push_back(encode_step(next_id_ + i, session_name(plan[i].session),
                                   plan[i].accesses));
    }
    const u64 first_id = next_id_;
    next_id_ += plan.size();
    std::vector<std::optional<WireResponse>> replies(plan.size());
    std::vector<double> done_s(plan.size(), 0);
    PhaseStats st;
    st.late_ms.reserve(plan.size());

    const double give_up_s =
        (plan.empty() ? 0 : plan.back().at_s) + kDrainTimeoutS;
    const Clock::time_point start = Clock::now();
    size_t sent = 0;
    size_t received = 0;
    while (received < plan.size()) {
      const double now_s = seconds_since(start);
      if (now_s > give_up_s) break;
      // Requests due together (a burst) leave in one write per connection,
      // so the server reads them in one round and can coalesce them.
      std::string due[2];
      while (sent < plan.size() && (!open_loop || plan[sent].at_s <= now_s)) {
        st.late_ms.push_back((seconds_since(start) - plan[sent].at_s) * 1e3);
        due[conn_of(plan[sent].session)] += frames[sent];
        ++rep_.attempted;
        ++sent;
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (!due[c].empty()) conns_[c].send_raw(due[c]);
      }
      for (NetClient& c : conns_) {
        while (std::optional<WireResponse> r = c.try_recv()) {
          const size_t i = static_cast<size_t>(r->request_id - first_id);
          MP_REQUIRE(i < sent && !replies[i].has_value(),
                     "unexpected reply id " << r->request_id);
          done_s[i] = seconds_since(start);
          replies[i] = std::move(*r);
          ++received;
        }
      }
    }
    if (received < plan.size()) {
      throw std::runtime_error(std::to_string(plan.size() - received) +
                               " requests got no reply within " +
                               std::to_string(static_cast<int>(kDrainTimeoutS)) +
                               " s of the last send");
    }

    // Replies are applied to each session's shadow in send order, which is
    // the order the session executes its admitted requests.
    for (size_t i = 0; i < plan.size(); ++i) {
      const int s = plan[i].session;
      if (!replies[i]->ok) {
        ++st.failed;  // rejected or errored: never executed
        continue;
      }
      ++st.completed;
      st.wall_s = std::max(st.wall_s, done_s[i]);
      const WireResponse& r = *replies[i];
      for (size_t a = 0; a < plan[i].accesses.size(); ++a) {
        const AccessRequest& req = plan[i].accesses[a];
        const i64 got = a < r.values.size() ? r.values[a] : 0;
        if (!shadows_[static_cast<size_t>(s)].apply(req, got)) {
          rep_.mismatch("session " + session_name(s) + " read var " +
                        std::to_string(req.var) + " = " + std::to_string(got));
        }
      }
    }
    for (size_t i = 0; i < plan.size(); ++i) {
      const bool ok = replies[i]->ok;
      st.latency_ms.push_back(ok ? (done_s[i] - plan[i].at_s) * 1e3
                                 : st.wall_s * 1e3);
    }
    rep_.failed += st.failed;
    return st;
  }

 private:
  std::vector<std::vector<std::vector<AccessRequest>>> traces_;
  Rng rng_;
  Report& rep_;
  std::vector<NetClient> conns_;
  std::vector<Shadow> shadows_;
  std::vector<size_t> cursor_;
  std::vector<int> round_;  ///< sessions still to draw in this round
  u64 next_id_ = 1;
};

/// One complete set-up: sessions, traces, server, connections, preload.
struct Stack {
  std::unique_ptr<ServerStack> server;
  std::unique_ptr<Client> client;
  double build_ms = 0;  ///< session construction
  double load_ms = 0;   ///< trace recording and preload
};

Stack set_up(const std::string& path, const Options& opt, Report& rep) {
  u64 s = opt.seed;
  const u64 trace_seed = splitmix64(s);
  const u64 client_seed = splitmix64(s);
  Stack st;
  const Clock::time_point t0 = Clock::now();
  st.server = std::make_unique<ServerStack>(path);
  for (int i = 0; i < kSessions; ++i) st.server->add_session(session_name(i));
  st.build_ms = seconds_since(t0) * 1e3;
  const Clock::time_point t1 = Clock::now();
  std::vector<std::vector<std::vector<AccessRequest>>> traces;
  for (const char* name : kTraceWorkloads) {
    const auto w = algo::make_workload_fitting(name, kVars, i64{kSide} * kSide,
                                               kVars, trace_seed);
    traces.push_back(
        algo::WorkloadHarness::record_erew_trace(*w, i64{kSide} * kSide, kVars));
  }
  st.server->start();
  st.client = std::make_unique<Client>(path, std::move(traces), client_seed, rep);
  st.client->preload();
  st.load_ms = seconds_since(t1) * 1e3;
  return st;
}

}  // namespace

Report run_serve_open(const Options& opt) {
  set_log_level(LogLevel::Error);
  Report rep;
  rep.info["sessions"] = std::to_string(kSessions);
  rep.info["mesh"] = std::to_string(kSide) + "x" + std::to_string(kSide);
  rep.info["rate_per_s"] = std::to_string(kRate);
  rep.info["scheduler_threads"] = "1";
  rep.info["coalesce_window"] = "8";
  rep.info["sort_mode"] = "simulated";
  // Relative to the working directory, which run.py sets to the build tree.
  const std::string path = "serve-" + std::to_string(::getpid()) + ".sock";

  // Set-ups are scaled by probes on this thread, timed segments by probes
  // on the server thread.
  SpeedProbe probe(1, false);
  probe.run_ms();  // warm-up: the first run pays for cold caches
  double last_probe_ms = probe.run_ms();
  std::vector<double> setup_s, setup_wall_s, build_ms, load_ms;
  Stack stack;
  const auto timed_set_up = [&] {
    stack.client.reset();  // the previous set-up is torn down first
    stack.server.reset();
    const Clock::time_point t0 = Clock::now();
    stack = set_up(path, opt, rep);
    setup_wall_s.push_back(seconds_since(t0));
    const double before = last_probe_ms;
    last_probe_ms = probe.run_ms();
    setup_s.push_back(
        probe.at_ref_speed(setup_wall_s.back(), before, last_probe_ms));
    build_ms.push_back(stack.build_ms);
    load_ms.push_back(stack.load_ms);
  };
  timed_set_up();
  ServerStack& server = *stack.server;
  Client& client = *stack.client;

  // Counters are cumulative; a phase reports their change, read while the
  // server loop is stopped.
  struct Counters {
    NetServerStats net;
    CoalesceStats coalesce;
    SessionStats sessions;
    i64 busy_ns = 0;
    i64 executed = 0;
  };
  const auto snapshot = [&] {
    server.stop();
    Counters c{server.net_stats(), server.coalesce_stats(),
               server.session_totals(), server.busy_ns(), server.executed()};
    return c;
  };

  const auto phase = [&](double seconds, bool traced, Counters& before,
                         Counters& after, SpanLedger* spans) {
    before = snapshot();
    if (traced) begin_tracing(static_cast<size_t>(kRingEventsPerS * seconds));
    server.start();
    Client::PhaseStats st;
    double probe_ms = server.run_probe(probe);
    for (double done = 0; done < seconds; done += kSegmentS) {
      const Client::PhaseStats seg =
          client.run(client.plan(std::min(kSegmentS, seconds - done)), true);
      const double before = probe_ms;
      probe_ms = server.run_probe(probe);
      st.add_segment(seg, probe, before, probe_ms);
    }
    after = snapshot();
    if (traced) {
      end_tracing();
      spans->add(drain_spans());
    }
    server.start();
    return st;
  };

  if (!opt.trace) {
    Counters c0, c1;
    const Client::PhaseStats st = phase(opt.seconds, false, c0, c1, nullptr);
    server.stop();
    const i64 steps = c1.sessions.steps_executed - c0.sessions.steps_executed;
    rep.set("pram_steps_per_s", static_cast<double>(st.completed) / st.wall_s);
    rep.set("latency_p50_ms", median(st.ref_latency_ms));
    rep.set("peak_rss_mb", peak_rss_mb() - probe.resident_mb());
    for (int r = 1; r < kSetups; ++r) timed_set_up();
    rep.set("setup_s", median(setup_s));
    rep.set("mesh_steps_per_pram_step",
            steps == 0 ? 0.0
                       : static_cast<double>(c1.sessions.mesh_steps -
                                             c0.sessions.mesh_steps) /
                             static_cast<double>(steps));
    rep.info["requests"] = std::to_string(st.latency_ms.size());
    rep.info["latency_p99_ms"] =
        std::to_string(quantile(st.ref_latency_ms, 0.99));
    rep.info["wall_latency_p50_ms"] = std::to_string(median(st.latency_ms));
    rep.info["wall_setup_s"] = std::to_string(median(setup_wall_s));
    rep.info["probe_ms_p50"] = std::to_string(median(st.probe_ms));
    rep.info["probe_resident_mb"] = std::to_string(probe.resident_mb());
    const double late_p99 = quantile(st.late_ms, 0.99);
    rep.info["late_ms_p99"] = std::to_string(late_p99);
    if (late_p99 > 1.0) {
      rep.info["client_behind"] = "1";
      std::cerr << "perfbench: client fell behind its schedule (late p99 "
                << late_p99 << " ms)\n";
    }
    return rep;
  }

  Counters t0, t1, u0, u1;
  SpanLedger sp;
  const Client::PhaseStats tr = phase(opt.seconds / 2, true, t0, t1, &sp);
  const Client::PhaseStats un = phase(opt.seconds / 2, false, u0, u1, nullptr);
  server.stop();

  const i64 executed = t1.executed - t0.executed;
  const double per = executed == 0 ? 0.0 : 1.0 / static_cast<double>(executed);
  const double busy_ms = static_cast<double>(t1.busy_ns - t0.busy_ns) / 1e6;
  rep.set("setup.build_ms", median(build_ms));
  rep.set("setup.load_ms", median(load_ms));
  rep.set("protocol.culling_ms", sp.total_ms("culling.iter") * per);
  rep.set("protocol.forward_ms", sp.total_ms("access.forward") * per);
  rep.set("protocol.return_ms", sp.total_ms("access.return") * per);
  rep.set("protocol.deliver_ms", sp.total_ms("access.deliver") * per);
  const i64 return_steps = sp.steps("access.return");
  rep.set("protocol.return_us_per_step",
          return_steps == 0 ? 0.0
                            : sp.total_ms("access.return") * 1e3 /
                                  static_cast<double>(return_steps));
  rep.set("protocol.culling_steps",
          static_cast<double>(sp.steps("culling.iter")) * per);
  rep.set("protocol.forward_steps",
          static_cast<double>(sp.steps("access.forward") +
                              sp.steps("access.deliver")) *
              per);
  rep.set("protocol.return_steps", static_cast<double>(return_steps) * per);
  rep.set("protocol.page_load_ratio", 0);  // not exposed through serving
  rep.set("routing.greedy_ms", sp.total_ms("route.greedy") * per);
  rep.set("routing.sort_ms", sp.total_ms("sort.region") * per);
  rep.set("routing.rank_ms", sp.total_ms("rank.groups") * per);
  rep.set("routing.drain_ms", sp.total_ms("mesh.drain") * per);
  rep.set("routing.fault_ms", sp.total_ms("route.greedy.fault") * per);
  rep.set("routing.packets_per_step", 0);  // not exposed through serving
  for (const char* name : {"fault.detoured_per_step", "fault.retried_per_step",
                           "fault.dropped_per_step", "fault.degraded_per_step",
                           "engine.speedup_vs_1t", "dist.wait_frac",
                           "dist.route_ms", "dist.culling_ms",
                           "dist.boundary_kb_per_step"}) {
    rep.set(name, 0);  // no fault plan, one scheduler thread, no ranks
  }
  rep.set("engine.busy_frac", sp.total_ms("parallel.region") / (tr.wall_s * 1e3));
  rep.set("serve.busy_frac", busy_ms / (tr.wall_s * 1e3));
  rep.set("serve.service_ms", busy_ms * per);
  const i64 passes = sp.prefix_spans("serve.");
  rep.set("serve.session_step_ms",
          passes == 0 ? 0.0 : sp.prefix_ms("serve.") / static_cast<double>(passes));
  const i64 merged = t1.coalesce.merged_requests - t0.coalesce.merged_requests;
  const i64 batches = t1.coalesce.batches - t0.coalesce.batches;
  const i64 routing_passes = executed - merged + batches;
  rep.set("serve.requests_per_pass",
          routing_passes == 0 ? 0.0
                              : static_cast<double>(executed) /
                                    static_cast<double>(routing_passes));
  rep.set("serve.peak_queue_depth",
          static_cast<double>(u1.sessions.peak_queue_depth));
  rep.set("serve.rejected",
          static_cast<double>(u1.net.rejected - t0.net.rejected));
  rep.set("serve.parked", static_cast<double>(u1.net.parked - t0.net.parked));
  // From the untraced phase: about 3500 requests at 20 s, 35 beyond it.
  rep.set("serve.latency_p99_ms", quantile(un.ref_latency_ms, 0.99));
  std::vector<double> late = tr.late_ms;
  late.insert(late.end(), un.late_ms.begin(), un.late_ms.end());
  rep.set("loadgen.late_ms_p99", quantile(late, 0.99));
  rep.set("telemetry.overhead_frac",
          median(tr.ref_latency_ms) / median(un.ref_latency_ms) - 1.0);
  rep.set("telemetry.dropped_events", static_cast<double>(sp.dropped()));
  if (sp.dropped() != 0) {
    rep.mismatch(std::to_string(sp.dropped()) + " trace events dropped");
  }
  return rep;
}

}  // namespace meshpram::perfbench

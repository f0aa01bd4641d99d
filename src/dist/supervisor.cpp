#include "dist/supervisor.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "serve/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace meshpram::dist {

namespace {

using Clock = std::chrono::steady_clock;

const telemetry::Label kPramStep = telemetry::intern("pram.step");

bool executable(const std::string& path) {
  return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  const std::string exe(buf);
  const size_t slash = exe.rfind('/');
  return slash == std::string::npos ? std::string(".") : exe.substr(0, slash);
}

/// The digest the replay MP_ASSERT compares: results + the step-count the
/// clock would be fed. Bit-identical replay implies equal digests.
u64 step_digest(const std::vector<i64>& results, const StepStats& st) {
  std::string buf;
  ByteWriter w(buf);
  w.put_u64(static_cast<u64>(results.size()));
  for (const i64 v : results) w.put_i64(v);
  w.put_i64(st.total_steps);
  return fnv1a64(buf);
}

}  // namespace

std::string default_worker_path() {
  if (const auto env = env_str("MESHPRAM_DIST_WORKER")) {
    MP_REQUIRE(executable(*env),
               "MESHPRAM_DIST_WORKER is not executable: " << *env);
    return *env;
  }
  const std::string dir = exe_dir();
  for (const std::string& candidate :
       {dir + "/dist_worker", dir + "/../tools/dist_worker"}) {
    if (executable(candidate)) return candidate;
  }
  throw ConfigError(
      "cannot locate the dist_worker binary (looked next to the executable "
      "and in ../tools); set MESHPRAM_DIST_WORKER");
}

// ------------------------------------------------------------ RankSupervisor

RankSupervisor::RankSupervisor(std::string worker_path, int ranks)
    : worker_path_(std::move(worker_path)),
      pids_(static_cast<size_t>(ranks), 0) {}

RankSupervisor::~RankSupervisor() { reap_all(0); }

void RankSupervisor::spawn(int rank, const std::vector<std::string>& args) {
  MP_REQUIRE(rank >= 1 && rank < static_cast<int>(pids_.size()),
             "spawn rank " << rank << " out of range");
  MP_REQUIRE(pids_[static_cast<size_t>(rank)] == 0,
             "rank " << rank << " already has a live process");
  const pid_t pid = ::fork();
  MP_REQUIRE(pid >= 0, "fork: " << std::strerror(errno));
  if (pid == 0) {
    // Child. Die with the coordinator so crashed tests never leak workers.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(worker_path_.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(worker_path_.c_str(), argv.data());
    _exit(127);  // exec failed; the hub reports the rank as never attached
  }
  pids_[static_cast<size_t>(rank)] = pid;
}

void RankSupervisor::kill(int rank) {
  pid_t& pid = pids_[static_cast<size_t>(rank)];
  if (pid == 0) return;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  pid = 0;
}

bool RankSupervisor::running(int rank) {
  pid_t& pid = pids_[static_cast<size_t>(rank)];
  if (pid == 0) return false;
  const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
  if (r == pid) {
    pid = 0;
    return false;
  }
  return true;
}

pid_t RankSupervisor::pid(int rank) const {
  return pids_[static_cast<size_t>(rank)];
}

void RankSupervisor::reap_all(int grace_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  for (;;) {
    bool any = false;
    for (size_t r = 0; r < pids_.size(); ++r) {
      if (pids_[r] != 0 && running(static_cast<int>(r))) any = true;
    }
    if (!any || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (size_t r = 0; r < pids_.size(); ++r) {
    kill(static_cast<int>(r));
  }
}

// --------------------------------------------------------------- ProcMachine

ProcMachine::ProcMachine(const ProcConfig& config)
    : ProcMachine(config, nullptr) {}

ProcMachine::ProcMachine(const ProcConfig& config,
                         const PramMeshSimulator* resume)
    : config_(config), validate_(resolve_validate(config.validate)) {
  const int ranks = resolve_ranks(config.ranks);
  MP_REQUIRE(config_.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  config_.ranks = ranks;

  // The committed state starts as a snapshot; rank 0 and every worker restore
  // from the same bytes, so all replicas agree from step zero.
  if (resume != nullptr) {
    checkpoint_ = serve::snapshot_simulator(*resume);
    sim0_ = serve::restore_simulator(checkpoint_);
  } else {
    sim0_ = std::make_unique<PramMeshSimulator>(config_.sim);
    checkpoint_ = serve::snapshot_simulator(*sim0_);
  }
  effective_ = sim0_->config();
  effective_.fault_plan_from_env = false;
  now_ = sim0_->now();
  for (const auto& [label, steps] : sim0_->mesh().clock().by_phase()) {
    clock_.add(label, steps);
  }

  const int max = RankPartition::max_ranks(sim0_->placement(),
                                           effective_.mesh_rows);
  MP_REQUIRE(ranks <= max, "ranks=" << ranks << " exceeds the " << max
                                    << " atom(s) of this HMOS geometry");
  partition_ = std::make_unique<RankPartition>(
      sim0_->placement(), effective_.mesh_rows, effective_.mesh_cols, ranks);
  drop_foreign_stores(sim0_->mesh(), *partition_, 0);
  proto0_ = std::make_unique<DistProtocol>(*sim0_, *partition_, 0, validate_);
  pool0_ = std::make_unique<ThreadPool>(1);
  gathered_.resize(static_cast<size_t>(ranks));

  socket_cfg_ = resolve_socket_config(config_.socket, ranks);
  hub_ = std::make_unique<SocketHub>(ranks, socket_cfg_);
  endpoint0_ = std::make_unique<HubTransport>(*hub_);
  if (config_.worker_path.empty()) {
    config_.worker_path = ranks > 1 ? default_worker_path() : "dist_worker";
  }
  supervisor_ = std::make_unique<RankSupervisor>(config_.worker_path, ranks);
  for (int r = 1; r < ranks; ++r) spawn_worker(r);
  for (int r = 1; r < ranks; ++r) {
    hub_->wait_attached(r, config_.attach_timeout_ms);
  }
  broadcast_init(hub_->epoch());
}

ProcMachine::~ProcMachine() {
  if (hub_ != nullptr && supervisor_ != nullptr) {
    for (int r = 1; r < ranks(); ++r) {
      if (!hub_->attached(r)) continue;
      try {
        hub_->send_ctrl(r, encode_plain_ctrl(CtrlOp::Shutdown));
      } catch (const std::exception&) {
      }
    }
    supervisor_->reap_all(1000);
  }
}

int ProcMachine::max_ranks(const SimConfig& config) {
  return probe_max_ranks(config);
}

std::unique_ptr<ProcMachine> ProcMachine::from_simulator(
    const PramMeshSimulator& sim, int ranks, ProcConfig base) {
  base.ranks = ranks;
  return std::unique_ptr<ProcMachine>(new ProcMachine(base, &sim));
}

const std::string& ProcMachine::address() const { return hub_->address(); }

void ProcMachine::spawn_worker(int rank) {
  supervisor_->spawn(
      rank, {hub_->address(), std::to_string(rank),
             std::to_string(ranks()), std::to_string(hub_->token()),
             std::to_string(socket_cfg_.heartbeat_ms),
             std::to_string(socket_cfg_.recv_deadline_ms)});
}

std::string ProcMachine::ctrl_reply(int from, CtrlOp want, u32 want_epoch) {
  // Bounded skip loop: the inbox can hold stale frames (a Failed report, an
  // ack from an older epoch) in front of the reply we need.
  for (int skips = 0; skips < 64; ++skips) {
    std::string body = hub_->recv_ctrl(from, socket_cfg_.recv_deadline_ms);
    MP_REQUIRE(!body.empty(), "empty control reply from rank " << from);
    if (static_cast<CtrlOp>(body[0]) != want) continue;
    if (want == CtrlOp::InitAck || want == CtrlOp::AbortAck) {
      ByteReader r(std::string_view(body).substr(1), "control reply");
      if (r.get_u32() != want_epoch) continue;
    }
    return body;
  }
  throw TransportError("rank " + std::to_string(from) +
                       " flooded the control channel");
}

void ProcMachine::broadcast_init(u32 epoch) {
  InitMsg msg;
  msg.epoch = epoch;
  msg.validate = validate_;
  msg.telemetry = telemetry::master_enabled();
  msg.snapshot = checkpoint_;
  const std::string body = encode_init(msg);
  for (int r = 1; r < ranks(); ++r) hub_->send_ctrl(r, body);
  for (int r = 1; r < ranks(); ++r) {
    ctrl_reply(r, CtrlOp::InitAck, epoch);
  }
}

std::vector<i64> ProcMachine::run_step(
    const std::vector<AccessRequest>& requests, StepStats* st) {
  StepMsg msg;
  msg.timestamp = now_;
  msg.requests = requests;
  const std::string body = encode_step(msg);
  for (int r = 1; r < ranks(); ++r) hub_->send_ctrl(r, body);

  telemetry::Span step_span(telemetry::Cat::Step, kPramStep, now_);
  // Serial kernels on rank 0, like every worker: thread-count invariance
  // makes the run bit-identical to the oracle at any pool size.
  ScopedPool guard(*pool0_);
  Collectives coll(*endpoint0_);
  std::vector<i64> out = proto0_->execute(requests, now_, st, coll);
  wait0_ += coll.wait();
  step_span.set_steps(st->total_steps);
  return out;
}

std::vector<i64> ProcMachine::step(const std::vector<AccessRequest>& requests,
                                   StepStats* stats, bool feed_clock) {
  telemetry::begin_frame();  // sampling granularity = one PRAM step
  std::vector<AccessRequest> padded = pad_requests(requests, processors());

  std::vector<i64> results;
  StepStats st;
  int attempts = 0;
  for (;;) {
    try {
      results = run_step(padded, &st);
      break;
    } catch (const TransportError& e) {
      if (++attempts > config_.max_recoveries) throw;
      recover(e.what());
    }
  }

  // Commit: the step is now part of the stream recovery must reproduce.
  const bool fed = stats != nullptr && feed_clock;
  LogEntry entry;
  entry.requests = std::move(padded);
  entry.fed_clock = fed;
  entry.digest = step_digest(results, st);
  log_.push_back(std::move(entry));
  if (stats != nullptr) *stats = st;
  ++now_;
  if (fed) clock_.add("pram_step", st.total_steps);
  maybe_checkpoint();

  enforce_fault_policy(effective_.fault_policy, st);
  return results;
}

DegradedResult ProcMachine::step_degraded(
    const std::vector<AccessRequest>& requests, StepStats* stats) {
  return run_step_degraded(*this, requests, stats);
}

void ProcMachine::recover(const std::string& reason) {
  ++recovery_.failures;
  const auto t0 = Clock::now();
  (void)reason;  // carried by the rethrown error if recovery itself fails
  const u32 epoch = hub_->begin_recovery();

  // Phase 1: abort whatever survives of the in-flight step. Workers that
  // don't ack within the deadline are hung — SIGKILL and respawn them.
  for (int r = 1; r < ranks(); ++r) {
    if (!hub_->attached(r)) continue;
    try {
      hub_->send_ctrl(r, encode_epoch_ctrl(CtrlOp::Abort, epoch));
    } catch (const TransportError&) {
    }
  }
  for (int r = 1; r < ranks(); ++r) {
    if (!hub_->attached(r)) continue;
    try {
      ctrl_reply(r, CtrlOp::AbortAck, epoch);
    } catch (const TransportError&) {
      supervisor_->kill(r);
      hub_->detach(r);
    }
  }

  // Phase 2: relaunch every rank with no live connection.
  std::vector<int> dead;
  for (const auto& [r, why] : hub_->down_ranks()) dead.push_back(r);
  for (const int r : dead) {
    supervisor_->kill(r);  // reap the old process (no-op if already reaped)
    spawn_worker(r);
    ++recovery_.respawns;
  }
  for (const int r : dead) {
    hub_->wait_attached(r, config_.attach_timeout_ms);
  }

  // Phase 3: restore every rank from the committed checkpoint. Rank 0
  // rebuilds in-process; workers restore via Init (which carries the
  // snapshot bytes).
  sim0_ = serve::restore_simulator(checkpoint_);
  now_ = sim0_->now();
  clock_.reset();
  for (const auto& [label, steps] : sim0_->mesh().clock().by_phase()) {
    clock_.add(label, steps);
  }
  drop_foreign_stores(sim0_->mesh(), *partition_, 0);
  proto0_ = std::make_unique<DistProtocol>(*sim0_, *partition_, 0, validate_);
  broadcast_init(epoch);
  hub_->end_recovery();

  // Phase 4: replay the committed steps since the checkpoint. A failure in
  // here propagates to the step loop, which recovers again (bounded).
  replay_log();
  ++recovery_.recoveries;
  const i64 blackout = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - t0)
                           .count();
  recovery_.last_blackout_ms = blackout;
  recovery_.total_blackout_ms += blackout;
}

void ProcMachine::replay_log() {
  for (const LogEntry& e : log_) {
    StepStats st;
    const std::vector<i64> res = run_step(e.requests, &st);
    // The tripwire of the determinism argument (DESIGN.md §15.5): a restored
    // run that does not reproduce the committed stream is an internal error,
    // never something to retry past.
    MP_ASSERT(step_digest(res, st) == e.digest,
              "recovery replay diverged at t=" << now_);
    ++now_;
    if (e.fed_clock) clock_.add("pram_step", st.total_steps);
  }
}

void ProcMachine::gather_bands() {
  for (int r = 1; r < ranks(); ++r) {
    hub_->send_ctrl(r, encode_plain_ctrl(CtrlOp::BandsReq));
  }
  for (int r = 1; r < ranks(); ++r) {
    const std::string body = ctrl_reply(r, CtrlOp::BandsReply, 0);
    ByteReader reader(std::string_view(body).substr(1), "bands reply");
    gathered_[static_cast<size_t>(r)] = decode_bands_reply(reader);
  }
}

void ProcMachine::take_checkpoint() {
  checkpoint_ = serve::snapshot_simulator(*materialize());
  log_.clear();
}

void ProcMachine::maybe_checkpoint() {
  if (static_cast<int>(log_.size()) < config_.checkpoint_every) return;
  int attempts = 0;
  for (;;) {
    try {
      take_checkpoint();
      return;
    } catch (const TransportError& e) {
      if (++attempts > config_.max_recoveries) throw;
      recover(e.what());
    }
  }
}

std::unique_ptr<PramMeshSimulator> ProcMachine::materialize() {
  gather_bands();
  auto sim = std::make_unique<PramMeshSimulator>(effective_);
  sim->set_logical_time(now_);
  for (const auto& [label, steps] : clock_.by_phase()) {
    sim->mesh().clock().add(label, steps);
  }
  // Band 0 straight from the local replica, the rest from the gathered blobs.
  const RankBand& b0 = partition_->band(0);
  const Mesh& src = sim0_->mesh();
  Mesh& dst = sim->mesh();
  for (i64 node = b0.node_begin; node < b0.node_end; ++node) {
    src.store(static_cast<i32>(node))
        .for_each([&dst, node](u64 key, const CopySlot& slot) {
          dst.store(static_cast<i32>(node))[key] = slot;
        });
  }
  for (int r = 1; r < ranks(); ++r) {
    decode_band_stores(dst, partition_->band(r),
                       gathered_[static_cast<size_t>(r)].stores);
  }
  return sim;
}

telemetry::MeshCounters ProcMachine::merged_counters() {
  gather_bands();
  telemetry::MeshCounters out;
  out.resize(effective_.mesh_rows, effective_.mesh_cols);
  const RankBand& b0 = partition_->band(0);
  out.adopt_range(sim0_->mesh().counters(), b0.node_begin, b0.node_end);
  for (int r = 1; r < ranks(); ++r) {
    decode_band_counters(out, partition_->band(r),
                         gathered_[static_cast<size_t>(r)].counters);
  }
  return out;
}

TransportStats ProcMachine::transport_totals() const {
  TransportStats total = hub_->stats();
  total += endpoint0_->stats();
  return total;
}

WaitStats ProcMachine::wait_totals() const {
  WaitStats total = wait0_;
  for (const BandsMsg& g : gathered_) {
    WaitStats w;
    w.calls = g.wait_calls;
    w.wait_ms = g.wait_ms;
    total += w;
  }
  return total;
}

i64 ProcMachine::boundary_hops() const {
  i64 total = proto0_->boundary_hops();
  for (const BandsMsg& g : gathered_) total += g.boundary_hops;
  return total;
}

i64 ProcMachine::boundary_bytes() const {
  i64 total = proto0_->boundary_bytes();
  for (const BandsMsg& g : gathered_) total += g.boundary_bytes;
  return total;
}

pid_t ProcMachine::worker_pid(int rank) const {
  return supervisor_->pid(rank);
}

void ProcMachine::kill_rank(int rank) {
  MP_REQUIRE(rank >= 1 && rank < ranks(),
             "kill_rank(" << rank << ") needs a worker rank (1.."
                          << ranks() - 1 << ')');
  supervisor_->kill(rank);
}

}  // namespace meshpram::dist

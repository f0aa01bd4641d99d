// Multi-process distributed ranks (src/dist socket/supervisor/worker): the
// tagged-frame and control codecs, the deterministic wire-fault injector,
// and the load-bearing guarantees — a ProcMachine over real sockets (unix
// and tcp) is bit-identical to the single-process oracle, and stays so
// through worker kills, hangs and injected wire faults via
// checkpoint-restore-replay recovery.
#include <gtest/gtest.h>

#include <signal.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "dist/proc_wire.hpp"
#include "dist/serve.hpp"
#include "dist/supervisor.hpp"
#include "dist/wire_fault.hpp"
#include "serve/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace meshpram::dist {
namespace {

SimConfig mid_mem_config(int side, int k = 3) {
  const i64 n = static_cast<i64>(side) * side;
  SimConfig cfg;
  cfg.mesh_rows = side;
  cfg.mesh_cols = side;
  cfg.num_vars = static_cast<i64>(std::llround(std::pow(
      static_cast<double>(n), 1.5)));
  cfg.q = 3;
  cfg.k = k;
  cfg.sort_mode = SortMode::Analytic;
  cfg.fault_plan_from_env = false;
  return cfg;
}

std::vector<AccessRequest> random_requests(i64 n, i64 num_vars, Rng& rng,
                                           Op op = Op::Read) {
  std::vector<i64> pool(static_cast<size_t>(std::min(num_vars, 4 * n)));
  std::iota(pool.begin(), pool.end(), i64{0});
  std::vector<AccessRequest> reqs(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    const i64 j = rng.range(i, static_cast<i64>(pool.size()) - 1);
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
    reqs[static_cast<size_t>(i)] = {pool[static_cast<size_t>(i)], op,
                                    op == Op::Write ? i + 100 : 0};
  }
  return reqs;
}

/// Smallest side from {16, 32, 64} whose HMOS geometry admits >= want ranks.
int pick_side(int want, int k = 3) {
  for (const int side : {16, 32, 64}) {
    if (ProcMachine::max_ranks(mid_mem_config(side, k)) >= want) return side;
  }
  return 0;
}

void expect_stats_eq(const StepStats& a, const StepStats& b) {
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.culling_steps, b.culling_steps);
  EXPECT_EQ(a.forward_steps, b.forward_steps);
  EXPECT_EQ(a.return_steps, b.return_steps);
  EXPECT_EQ(a.forward_stage_steps, b.forward_stage_steps);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.fault.copies_lost, b.fault.copies_lost);
  EXPECT_EQ(a.fault.requests_failed, b.fault.requests_failed);
  EXPECT_EQ(a.request_ok, b.request_ok);
}

/// Socket knobs tuned for test speed: fast heartbeats, short-but-safe
/// deadlines (a side-16 step computes in well under a second).
SocketConfig fast_socket(const std::string& transport = "unix") {
  SocketConfig sc;
  sc.transport = transport;
  sc.heartbeat_ms = 50;
  sc.peer_deadline_ms = 5000;
  sc.recv_deadline_ms = 5000;
  return sc;
}

ProcConfig proc_config(const SimConfig& sim, int ranks,
                       const std::string& transport = "unix") {
  ProcConfig pc;
  pc.sim = sim;
  pc.ranks = ranks;
  pc.validate = 0;
  pc.socket = fast_socket(transport);
  return pc;
}

// ---------------------------------------------------------------- wire codecs

TEST(ProcWire, TaggedFrameRoundTrip) {
  const std::string packed =
      pack_frame(FrameKind::Data, 2, 1, 7, "payload-bytes");
  // Outer framing: u32 length prefix + payload.
  serve::FrameBuffer fb;
  fb.append(packed.data(), packed.size());
  const auto payload = fb.next_payload();
  ASSERT_TRUE(payload.has_value());
  const TaggedFrame f = unpack_frame(*payload);
  EXPECT_EQ(f.kind, FrameKind::Data);
  EXPECT_EQ(f.from, 2);
  EXPECT_EQ(f.to, 1);
  EXPECT_EQ(f.epoch, 7u);
  EXPECT_EQ(f.body, "payload-bytes");
  EXPECT_FALSE(fb.next_payload().has_value());

  // Ctrl frames carry no epoch field.
  const std::string ctrl = pack_frame(FrameKind::Ctrl, 1, 0, 0, "x");
  serve::FrameBuffer fb2;
  fb2.append(ctrl.data(), ctrl.size());
  const TaggedFrame g = unpack_frame(*fb2.next_payload());
  EXPECT_EQ(g.kind, FrameKind::Ctrl);
  EXPECT_EQ(g.body, "x");
}

TEST(ProcWire, CodecRoundTrips) {
  const std::string hello = pack_frame(FrameKind::Hello, 3, 0, 0,
                                       encode_hello(3, 4, 0xdeadbeefcafeULL));
  {
    serve::FrameBuffer fb;
    fb.append(hello.data(), hello.size());
    const TaggedFrame f = unpack_frame(*fb.next_payload());
    EXPECT_EQ(f.kind, FrameKind::Hello);
    const Hello h = decode_hello(f.body);
    EXPECT_EQ(h.rank, 3);
    EXPECT_EQ(h.ranks, 4);
    EXPECT_EQ(h.token, 0xdeadbeefcafeULL);
  }

  InitMsg init;
  init.epoch = 5;
  init.validate = true;
  init.telemetry = false;
  init.snapshot = "snapshot-blob";
  {
    const std::string body = encode_init(init);
    ASSERT_EQ(static_cast<CtrlOp>(body[0]), CtrlOp::Init);
    ByteReader r(std::string_view(body).substr(1), "init");
    const InitMsg out = decode_init(r);
    EXPECT_EQ(out.epoch, 5u);
    EXPECT_TRUE(out.validate);
    EXPECT_FALSE(out.telemetry);
    EXPECT_EQ(out.snapshot, "snapshot-blob");
  }

  StepMsg step;
  step.timestamp = 42;
  step.requests = {{7, Op::Write, 99}, {-1, Op::Read, 0}, {3, Op::Read, 0}};
  {
    const std::string body = encode_step(step);
    ASSERT_EQ(static_cast<CtrlOp>(body[0]), CtrlOp::Step);
    ByteReader r(std::string_view(body).substr(1), "step");
    const StepMsg out = decode_step(r);
    EXPECT_EQ(out.timestamp, 42);
    ASSERT_EQ(out.requests.size(), 3u);
    EXPECT_EQ(out.requests[0].var, 7);
    EXPECT_EQ(out.requests[0].op, Op::Write);
    EXPECT_EQ(out.requests[0].value, 99);
    EXPECT_EQ(out.requests[1].var, -1);
  }

  BandsMsg bands;
  bands.stores = "stores";
  bands.counters = "counters";
  bands.boundary_hops = 11;
  bands.boundary_bytes = 22;
  bands.wait_calls = 33;
  bands.wait_ms = 1.5;
  {
    const std::string body = encode_bands_reply(bands);
    ASSERT_EQ(static_cast<CtrlOp>(body[0]), CtrlOp::BandsReply);
    ByteReader r(std::string_view(body).substr(1), "bands");
    const BandsMsg out = decode_bands_reply(r);
    EXPECT_EQ(out.stores, "stores");
    EXPECT_EQ(out.counters, "counters");
    EXPECT_EQ(out.boundary_hops, 11);
    EXPECT_EQ(out.boundary_bytes, 22);
    EXPECT_EQ(out.wait_calls, 33);
    EXPECT_DOUBLE_EQ(out.wait_ms, 1.5);
  }
}

TEST(ProcWire, MalformedFramesThrow) {
  // Truncation at every prefix of a valid tagged payload must throw, not UB.
  const std::string packed = pack_frame(FrameKind::Data, 0, 1, 3, "body");
  const std::string_view payload = std::string_view(packed).substr(4);
  for (size_t len = 0; len < 9; ++len) {  // header needs 9 bytes for Data
    EXPECT_THROW(unpack_frame(payload.substr(0, len)), ConfigError)
        << "len=" << len;
  }
  // Unknown frame kind.
  std::string bogus(payload);
  bogus[0] = 0x7f;
  EXPECT_THROW(unpack_frame(bogus), ConfigError);
  // Truncated Step body.
  StepMsg step;
  step.timestamp = 1;
  step.requests = {{1, Op::Read, 0}};
  const std::string body = encode_step(step);
  for (size_t len = 1; len + 1 < body.size(); ++len) {
    ByteReader r(std::string_view(body).substr(1, len), "step");
    EXPECT_THROW(decode_step(r), ConfigError) << "len=" << len;
  }
  // Implausible request count (claims more than the bytes can hold).
  {
    std::string buf;
    ByteWriter w(buf);
    w.put_i64(0);
    w.put_u32(0xffffffffu);
    ByteReader r(buf, "step");
    EXPECT_THROW(decode_step(r), ConfigError);
  }
}

TEST(ProcWire, BandStateRoundTrip) {
  const SimConfig cfg = mid_mem_config(16);
  PramMeshSimulator sim(cfg);
  const i64 n = static_cast<i64>(16) * 16;
  Rng rng(3);
  const auto writes = random_requests(n, cfg.num_vars, rng, Op::Write);
  sim.step(writes);

  RankPartition part(sim.placement(), cfg.mesh_rows, cfg.mesh_cols, 2);
  // Encode band 1 from the source, decode into a fresh sim, re-encode: the
  // canonical bytes must agree, and foreign bands must stay empty.
  const std::string blob = encode_band_stores(sim.mesh(), part.band(1));
  PramMeshSimulator fresh(sim.config());
  decode_band_stores(fresh.mesh(), part.band(1), blob);
  EXPECT_EQ(encode_band_stores(fresh.mesh(), part.band(1)), blob);

  // drop_foreign_stores leaves only the owned band.
  const auto clone =
      serve::restore_simulator(serve::snapshot_simulator(sim));
  drop_foreign_stores(clone->mesh(), part, 1);
  const RankBand& b0 = part.band(0);
  for (i64 node = b0.node_begin; node < b0.node_end; ++node) {
    EXPECT_TRUE(clone->mesh().store(static_cast<i32>(node)).empty());
  }
  EXPECT_EQ(encode_band_stores(clone->mesh(), part.band(1)), blob);

  // Truncated band blob throws.
  EXPECT_THROW(
      decode_band_stores(fresh.mesh(), part.band(1),
                         std::string_view(blob).substr(0, blob.size() / 2)),
      ConfigError);
}

// ------------------------------------------------------------- fault injector

TEST(WireFault, ParseAndQueries) {
  const WireFaultPlan plan = WireFaultPlan::parse(
      "drop=0:1:5;delay=1:0:2:40;part=0:1:100;kill=1:7", 2);
  EXPECT_TRUE(plan.should_drop(0, 1, 5, 0));
  EXPECT_FALSE(plan.should_drop(0, 1, 4, 0));
  EXPECT_FALSE(plan.should_drop(1, 0, 5, 0));
  EXPECT_TRUE(plan.should_drop(0, 1, 4, 100));  // partition threshold crossed
  EXPECT_TRUE(plan.should_drop(1, 0, 4, 100));  // partitions are symmetric
  EXPECT_EQ(plan.delay_ms(1, 0, 2).value_or(-1), 40);
  EXPECT_FALSE(plan.delay_ms(1, 0, 3).has_value());
  EXPECT_TRUE(plan.should_kill(1, 7));
  EXPECT_FALSE(plan.should_kill(1, 6));
  EXPECT_FALSE(plan.should_kill(0, 100));

  EXPECT_THROW(WireFaultPlan::parse("drop=0:1", 2), ConfigError);
  EXPECT_THROW(WireFaultPlan::parse("drop=0:9:1", 2), ConfigError);
  EXPECT_THROW(WireFaultPlan::parse("drop=0:x:1", 2), ConfigError);
  EXPECT_THROW(WireFaultPlan::parse("nope=1", 2), ConfigError);

  // Seeded plans are deterministic functions of the seed.
  const WireFaultPlan a = WireFaultPlan::seeded_drops(9, 3, 2, 50);
  const WireFaultPlan b = WireFaultPlan::seeded_drops(9, 3, 2, 50);
  ASSERT_EQ(a.drops.size(), b.drops.size());
  EXPECT_EQ(a.drops.size(), 12u);  // 6 directed pairs x 2
  for (size_t i = 0; i < a.drops.size(); ++i) {
    EXPECT_EQ(a.drops[i].index, b.drops[i].index);
  }
  const WireFaultPlan seeded = WireFaultPlan::parse("seed=9:2:50", 3);
  ASSERT_EQ(seeded.drops.size(), a.drops.size());
  for (size_t i = 0; i < a.drops.size(); ++i) {
    EXPECT_EQ(seeded.drops[i].index, a.drops[i].index);
  }
}

// ----------------------------------------------------------- oracle identity

TEST(ProcMachineTest, OracleIdentityUnix) {
  const int side = pick_side(4);
  ASSERT_GT(side, 0) << "no probed side admits 4 ranks";
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  telemetry::clear();
  telemetry::set_enabled(true);
  PramMeshSimulator oracle(cfg);
  Rng rng_w(7);
  const auto writes = random_requests(n, cfg.num_vars, rng_w, Op::Write);
  Rng rng_r(7);
  const auto reads = random_requests(n, cfg.num_vars, rng_r, Op::Read);
  std::vector<StepStats> oracle_stats(2);
  const auto ow = oracle.step(writes, &oracle_stats[0]);
  const auto orr = oracle.step(reads, &oracle_stats[1]);

  for (const int ranks : {1, 2, 4}) {
    ProcMachine machine(proc_config(cfg, ranks));
    EXPECT_EQ(machine.ranks(), ranks);
    EXPECT_EQ(machine.transport_kind(), "unix");
    std::vector<StepStats> stats(2);
    const auto dw = machine.step(writes, &stats[0]);
    const auto dr = machine.step(reads, &stats[1]);
    EXPECT_EQ(dw, ow) << "ranks=" << ranks;
    EXPECT_EQ(dr, orr) << "ranks=" << ranks;
    expect_stats_eq(stats[0], oracle_stats[0]);
    expect_stats_eq(stats[1], oracle_stats[1]);
    EXPECT_EQ(machine.now(), oracle.now());
    EXPECT_EQ(machine.recovery().recoveries, 0) << "ranks=" << ranks;

    const telemetry::MeshCounters merged = machine.merged_counters();
    const telemetry::MeshCounters& ref = oracle.mesh().counters();
    EXPECT_EQ(merged.max_queue(), ref.max_queue()) << "ranks=" << ranks;
    EXPECT_EQ(merged.forwarded(), ref.forwarded()) << "ranks=" << ranks;
    EXPECT_EQ(merged.copies_touched(), ref.copies_touched())
        << "ranks=" << ranks;
    EXPECT_EQ(merged.survivors(), ref.survivors()) << "ranks=" << ranks;

    // Snapshot parity with the oracle: same committed state, same bytes.
    EXPECT_EQ(serve::snapshot_simulator(*machine.materialize()),
              serve::snapshot_simulator(oracle))
        << "ranks=" << ranks;

    if (ranks > 1) {
      EXPECT_GT(machine.transport_totals().bytes_sent, 0);
      EXPECT_GT(machine.boundary_bytes(), 0);
      EXPECT_GT(machine.wait_totals().calls, 0);
    }
  }
  telemetry::set_enabled(false);
  telemetry::clear();
}

TEST(ProcMachineTest, OracleIdentityTcp) {
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;
  PramMeshSimulator oracle(cfg);
  ProcMachine machine(proc_config(cfg, 2, "tcp"));
  EXPECT_EQ(machine.transport_kind(), "tcp");
  EXPECT_EQ(machine.address().rfind("tcp:", 0), 0u);
  Rng rng(11);
  const auto reqs = random_requests(n, cfg.num_vars, rng);
  StepStats ost;
  StepStats pst;
  EXPECT_EQ(machine.step(reqs, &pst), oracle.step(reqs, &ost));
  expect_stats_eq(pst, ost);
}

TEST(ProcMachineTest, ValidateModeStaysGreen) {
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;
  PramMeshSimulator oracle(cfg);
  ProcConfig pc = proc_config(cfg, 2);
  pc.validate = 1;
  ProcMachine machine(pc);
  EXPECT_TRUE(machine.validate());
  Rng rng(13);
  const auto reqs = random_requests(n, cfg.num_vars, rng);
  EXPECT_EQ(machine.step(reqs), oracle.step(reqs));
}

// ------------------------------------------------------------- fault recovery

TEST(ProcMachineTest, KillRankRecoversBitIdentically) {
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  PramMeshSimulator oracle(cfg);
  ProcMachine machine(proc_config(cfg, 2));

  Rng rng_w(17);
  const auto writes = random_requests(n, cfg.num_vars, rng_w, Op::Write);
  StepStats ost0;
  StepStats pst0;
  EXPECT_EQ(machine.step(writes, &pst0), oracle.step(writes, &ost0));
  expect_stats_eq(pst0, ost0);

  // SIGKILL the worker between steps: the next step must detect the dead
  // link, respawn, restore from the checkpoint and still match the oracle.
  machine.kill_rank(1);
  Rng rng_r(17);
  const auto reads = random_requests(n, cfg.num_vars, rng_r, Op::Read);
  StepStats ost1;
  StepStats pst1;
  const auto ov = oracle.step(reads, &ost1);
  const auto pv = machine.step(reads, &pst1);
  EXPECT_EQ(pv, ov);
  expect_stats_eq(pst1, ost1);
  EXPECT_GE(machine.recovery().failures, 1);
  EXPECT_GE(machine.recovery().recoveries, 1);
  EXPECT_GE(machine.recovery().respawns, 1);
  EXPECT_GT(machine.recovery().last_blackout_ms, 0);
  EXPECT_EQ(machine.now(), oracle.now());

  // The recovered machine's state is byte-identical to the oracle's — the
  // same hash a no-kill run would produce.
  EXPECT_EQ(serve::snapshot_simulator(*machine.materialize()),
            serve::snapshot_simulator(oracle));
}

TEST(ProcMachineTest, HeartbeatDeadlineCatchesHungWorker) {
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  PramMeshSimulator oracle(cfg);
  ProcConfig pc = proc_config(cfg, 2);
  // Tight liveness so the hang is detected quickly; the recv deadline stays
  // larger so the *hub* diagnosis (heartbeat silence), not a recv timeout,
  // is what trips first on the idle machine.
  pc.socket.heartbeat_ms = 30;
  pc.socket.peer_deadline_ms = 500;
  pc.socket.recv_deadline_ms = 4000;
  ProcMachine machine(pc);

  Rng rng_w(19);
  const auto writes = random_requests(n, cfg.num_vars, rng_w, Op::Write);
  EXPECT_EQ(machine.step(writes), oracle.step(writes));

  // SIGSTOP = hung, not dead: the socket stays open, heartbeats stop. The
  // supervisor must SIGKILL and respawn it.
  const pid_t pid = machine.worker_pid(1);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGSTOP), 0);

  Rng rng_r(19);
  const auto reads = random_requests(n, cfg.num_vars, rng_r, Op::Read);
  const auto ov = oracle.step(reads);
  const auto pv = machine.step(reads);
  EXPECT_EQ(pv, ov);
  EXPECT_GE(machine.recovery().recoveries, 1);
  EXPECT_GE(machine.recovery().respawns, 1);
  EXPECT_NE(machine.worker_pid(1), pid);  // a fresh process took the rank
}

TEST(ProcMachineTest, WireFaultDropRecovers) {
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  PramMeshSimulator oracle(cfg);
  ProcConfig pc = proc_config(cfg, 2);
  pc.socket.recv_deadline_ms = 1500;  // the dropped frame surfaces fast
  pc.socket.fault.drop_frame(0, 1, 2);
  ProcMachine machine(pc);

  Rng rng(23);
  const auto reqs = random_requests(n, cfg.num_vars, rng);
  const auto ov = oracle.step(reqs);
  const auto pv = machine.step(reqs);
  EXPECT_EQ(pv, ov);
  // The drop starves rank 1, whose recv deadline converts it into a typed
  // failure; recovery replays and the retried step sees no fault (drops
  // fire once).
  EXPECT_GE(machine.recovery().failures, 1);
  EXPECT_GE(machine.recovery().recoveries, 1);
}

TEST(ProcMachineTest, WireFaultDelayIsHarmless) {
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  PramMeshSimulator oracle(cfg);
  ProcConfig pc = proc_config(cfg, 2);
  pc.socket.fault.delay_frame(0, 1, 0, 120).delay_frame(1, 0, 1, 80);
  ProcMachine machine(pc);

  Rng rng(29);
  const auto reqs = random_requests(n, cfg.num_vars, rng);
  EXPECT_EQ(machine.step(reqs), oracle.step(reqs));
  // Latency reorders nothing (per-link FIFO holds) and loses nothing.
  EXPECT_EQ(machine.recovery().failures, 0);
}

TEST(ProcMachineTest, WireFaultDelayKeepsLinkOrder) {
  // A held frame holds back every later frame of its link, in both
  // directions: one delayed frame anywhere in a step's stream must neither
  // reorder the stream nor trip a recovery.
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  Rng rng_w(41);
  const auto writes = random_requests(n, cfg.num_vars, rng_w, Op::Write);
  Rng rng_r(41);
  const auto reads = random_requests(n, cfg.num_vars, rng_r, Op::Read);
  PramMeshSimulator oracle(cfg);
  const std::vector<i64> want_w = oracle.step(writes);
  const std::vector<i64> want_r = oracle.step(reads);

  for (const auto& [from, to] : {std::pair{0, 1}, std::pair{1, 0}}) {
    for (i64 index = 0; index < 12; ++index) {
      SCOPED_TRACE("delay " + std::to_string(from) + "->" +
                   std::to_string(to) + " frame " + std::to_string(index));
      ProcConfig pc = proc_config(cfg, 2);
      pc.socket.fault.delay_frame(from, to, index, 30);
      ProcMachine machine(pc);
      EXPECT_EQ(machine.step(writes), want_w);
      EXPECT_EQ(machine.step(reads), want_r);
      EXPECT_EQ(machine.recovery().failures, 0);
    }
  }
}

TEST(ProcMachineTest, WorkerKillFaultRecovers) {
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  PramMeshSimulator oracle(cfg);
  ProcConfig pc = proc_config(cfg, 2);
  pc.socket.fault.kill_after(1, 3);  // sever rank 1 after 3 Data frames
  ProcMachine machine(pc);

  Rng rng_w(31);
  const auto writes = random_requests(n, cfg.num_vars, rng_w, Op::Write);
  StepStats ost;
  StepStats pst;
  EXPECT_EQ(machine.step(writes, &pst), oracle.step(writes, &ost));
  expect_stats_eq(pst, ost);
  EXPECT_GE(machine.recovery().recoveries, 1);

  // And the stream continues bit-identically after the one-shot kill.
  Rng rng_r(31);
  const auto reads = random_requests(n, cfg.num_vars, rng_r, Op::Read);
  EXPECT_EQ(machine.step(reads), oracle.step(reads));
  EXPECT_EQ(serve::snapshot_simulator(*machine.materialize()),
            serve::snapshot_simulator(oracle));
}

// --------------------------------------------------------------- serve glue

TEST(ProcServe, SnapshotRestoreAcrossEnginesMidRun) {
  const int side = pick_side(4);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;
  Rng rng(55);
  const auto writes = random_requests(n, cfg.num_vars, rng, Op::Write);
  Rng rng2(55);
  const auto reads = random_requests(n, cfg.num_vars, rng2, Op::Read);

  // A proc-backed session runs some work, then snapshots mid-run.
  serve::SessionManager m0;
  serve::Session& s0 = create_proc_session(m0, "snap", proc_config(cfg, 2));
  EXPECT_FALSE(s0.has_sim());
  StepStats st;
  s0.step(writes, &st);
  const std::string bytes = s0.snapshot();

  // Restore onto 4 process ranks, onto 1, and onto a classic simulator; all
  // continuations must agree and re-snapshot to identical bytes.
  serve::SessionManager m4;
  serve::Session& s4 = restore_proc_session(m4, "snap", bytes, 4,
                                            proc_config(cfg, 4));
  serve::SessionManager m1;
  serve::Session& s1 = restore_proc_session(m1, "snap", bytes, 1,
                                            proc_config(cfg, 1));
  serve::SessionManager mc;
  serve::Session& sc = mc.restore("snap", bytes);
  ASSERT_TRUE(sc.has_sim());

  StepStats st4;
  StepStats st1;
  StepStats stc;
  const auto v4 = s4.step(reads, &st4);
  const auto v1 = s1.step(reads, &st1);
  const auto vc = sc.step(reads, &stc);
  EXPECT_EQ(v4, vc);
  EXPECT_EQ(v1, vc);
  expect_stats_eq(st4, stc);
  expect_stats_eq(st1, stc);
  EXPECT_EQ(s4.snapshot(), sc.snapshot());
  EXPECT_EQ(s1.snapshot(), sc.snapshot());
}

}  // namespace
}  // namespace meshpram::dist

// Distributed mesh subsystem (src/dist): rank partition legality, transport
// and collectives semantics, and the load-bearing guarantee — a DistMachine
// at any rank count is bit-identical to the single-process simulator
// (results, StepStats, congestion counters) on the same workload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "dist/channel.hpp"
#include "dist/collectives.hpp"
#include "dist/machine.hpp"
#include "dist/partition.hpp"
#include "dist/serve.hpp"
#include "dist/wire.hpp"
#include "fault/plan.hpp"
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

/// Random EREW request set (distinct vars via partial Fisher-Yates).
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
    if (DistMachine::max_ranks(mid_mem_config(side, k)) >= want) return side;
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
  EXPECT_EQ(a.fault.requests_degraded, b.fault.requests_degraded);
  EXPECT_EQ(a.fault.packets_retried, b.fault.packets_retried);
  EXPECT_EQ(a.fault.packets_dropped, b.fault.packets_dropped);
  EXPECT_EQ(a.fault.packets_detoured, b.fault.packets_detoured);
  EXPECT_EQ(a.request_ok, b.request_ok);
}

TEST(DistPartition, BandsCoverAndAgree) {
  const SimConfig cfg = mid_mem_config(32);
  PramMeshSimulator sim(cfg);
  const int max = RankPartition::max_ranks(sim.placement(), cfg.mesh_rows);
  ASSERT_GE(max, 2) << "32x32 k=3 geometry should admit multiple ranks";

  for (const int ranks : {1, 2, max}) {
    RankPartition part(sim.placement(), cfg.mesh_rows, cfg.mesh_cols, ranks);
    EXPECT_EQ(part.ranks(), ranks);
    int row = 0;
    for (int r = 0; r < ranks; ++r) {
      const RankBand& b = part.band(r);
      EXPECT_EQ(b.row_begin, row);
      EXPECT_GT(b.rows(), 0);
      EXPECT_EQ(b.node_begin, static_cast<i64>(b.row_begin) * cfg.mesh_cols);
      EXPECT_EQ(b.node_end, static_cast<i64>(b.row_end) * cfg.mesh_cols);
      for (int rr = b.row_begin; rr < b.row_end; ++rr) {
        EXPECT_EQ(part.owner_of_row(rr), r);
      }
      row = b.row_end;
    }
    EXPECT_EQ(row, cfg.mesh_rows);
    EXPECT_TRUE(part.owns_node(ranks - 1,
                               static_cast<i64>(cfg.mesh_rows) * cfg.mesh_cols -
                                   1));
  }

  // Every page region at every level must stay inside one band.
  RankPartition part(sim.placement(), cfg.mesh_rows, cfg.mesh_cols, max);
  for (int level = 1; level <= cfg.k; ++level) {
    for (const PageInfo& page : sim.placement().pages(level)) {
      EXPECT_EQ(part.owner_of_row(page.region.r0()),
                part.owner_of_row(page.region.r0() + page.region.rows() - 1));
    }
  }

  EXPECT_THROW(RankPartition(sim.placement(), cfg.mesh_rows, cfg.mesh_cols,
                             max + 1),
               ConfigError);
}

TEST(DistTransport, ChannelFifoAndStats) {
  ChannelHub hub(2);
  ChannelTransport a(hub, 0);
  ChannelTransport b(hub, 1);
  a.send(1, "one");
  a.send(1, "two");
  EXPECT_EQ(b.recv(0), "one");
  EXPECT_EQ(b.recv(0), "two");
  b.send(0, "pong");
  EXPECT_EQ(a.recv(1), "pong");
  EXPECT_EQ(a.stats().messages_sent, 2);
  EXPECT_EQ(a.stats().bytes_sent, 6);
  EXPECT_EQ(a.stats().messages_received, 1);
  EXPECT_EQ(b.stats().messages_received, 2);
}

TEST(DistTransport, KillUnblocksReceivers) {
  ChannelHub hub(2);
  ChannelTransport a(hub, 0);
  std::atomic<bool> threw{false};
  std::thread t([&] {
    try {
      a.recv(1);  // nothing will ever arrive
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  hub.kill();
  t.join();
  EXPECT_TRUE(threw.load());
  EXPECT_THROW(a.recv(1), TransportError);  // killed hub stays killed
}

TEST(DistCollectives, GatherReduceUniform) {
  constexpr int kRanks = 3;
  ChannelHub hub(kRanks);
  std::vector<std::unique_ptr<ChannelTransport>> eps;
  for (int r = 0; r < kRanks; ++r) {
    eps.push_back(std::make_unique<ChannelTransport>(hub, r));
  }
  std::atomic<int> divergence_errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      Collectives coll(*eps[static_cast<size_t>(r)]);
      const auto all = coll.allgather(std::string(1, char('a' + r)));
      ASSERT_EQ(all.size(), static_cast<size_t>(kRanks));
      EXPECT_EQ(all[0], "a");
      EXPECT_EQ(all[2], "c");
      EXPECT_EQ(coll.allreduce_sum(r + 1), 6);
      EXPECT_EQ(coll.allreduce_max(r * 10), 20);
      coll.barrier();
      coll.check_uniform(42, "same everywhere");
      try {
        coll.check_uniform(static_cast<u64>(r), "rank id");  // diverges
      } catch (const InternalError&) {
        divergence_errors.fetch_add(1);
      }
      EXPECT_GT(coll.wait().calls, 0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(divergence_errors.load(), kRanks);
}

TEST(DistMachineTest, OracleIdentityMidMem) {
  const int side = pick_side(4);
  ASSERT_GT(side, 0) << "no probed side admits 4 ranks";
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  // Reference run on the single-process oracle, counters sampled.
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
    DistConfig dc;
    dc.sim = cfg;
    dc.ranks = ranks;
    dc.validate = 0;
    DistMachine machine(dc);
    EXPECT_EQ(machine.ranks(), ranks);
    std::vector<StepStats> stats(2);
    const auto dw = machine.step(writes, &stats[0]);
    const auto dr = machine.step(reads, &stats[1]);
    EXPECT_EQ(dw, ow) << "ranks=" << ranks;
    EXPECT_EQ(dr, orr) << "ranks=" << ranks;
    expect_stats_eq(stats[0], oracle_stats[0]);
    expect_stats_eq(stats[1], oracle_stats[1]);
    EXPECT_EQ(machine.now(), oracle.now());

    const telemetry::MeshCounters merged = machine.merged_counters();
    const telemetry::MeshCounters& ref = oracle.mesh().counters();
    EXPECT_EQ(merged.max_queue(), ref.max_queue()) << "ranks=" << ranks;
    EXPECT_EQ(merged.forwarded(), ref.forwarded()) << "ranks=" << ranks;
    EXPECT_EQ(merged.copies_touched(), ref.copies_touched())
        << "ranks=" << ranks;
    EXPECT_EQ(merged.survivors(), ref.survivors()) << "ranks=" << ranks;

    if (ranks > 1) {
      EXPECT_GT(machine.transport_totals().bytes_sent, 0);
      EXPECT_GT(machine.boundary_bytes(), 0);
      EXPECT_GT(machine.wait_totals().calls, 0);
    }
  }
  telemetry::set_enabled(false);
  telemetry::clear();
}

TEST(DistMachineTest, ValidateModeStaysGreen) {
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;
  PramMeshSimulator oracle(cfg);
  DistConfig dc;
  dc.sim = cfg;
  dc.ranks = 2;
  dc.validate = 1;
  DistMachine machine(dc);
  EXPECT_TRUE(machine.validate());
  Rng rng(11);
  const auto reqs = random_requests(n, cfg.num_vars, rng);
  EXPECT_EQ(machine.step(reqs), oracle.step(reqs));
}

TEST(DistMachineTest, ModuleFaultPlanIdentity) {
  // Module-only plans keep routing fault-free, so this exercises the
  // partitioned mode's degraded path.
  const int side = pick_side(4);
  ASSERT_GT(side, 0);
  SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;
  fault::FaultPlan plan(cfg.mesh_rows, cfg.mesh_cols);
  for (const i64 node : {i64{3}, n / 2, n - 7}) {
    plan.kill_module(static_cast<i32>(node));
  }
  ASSERT_FALSE(plan.affects_routing());
  cfg.fault_plan = plan;

  PramMeshSimulator oracle(cfg);
  Rng rng_o(21);
  const auto reqs = random_requests(n, cfg.num_vars, rng_o);
  StepStats ost;
  const DegradedResult oracle_r = oracle.step_degraded(reqs, &ost);

  for (const int ranks : {2, 4}) {
    DistConfig dc;
    dc.sim = cfg;
    dc.ranks = ranks;
    dc.validate = 0;
    DistMachine machine(dc);
    StepStats dst;
    const DegradedResult r = machine.step_degraded(reqs, &dst);
    EXPECT_EQ(r.values, oracle_r.values) << "ranks=" << ranks;
    EXPECT_EQ(r.ok, oracle_r.ok) << "ranks=" << ranks;
    EXPECT_EQ(r.report.dead_modules, oracle_r.report.dead_modules);
    EXPECT_EQ(r.report.copies_lost, oracle_r.report.copies_lost);
    EXPECT_EQ(r.report.requests_failed, oracle_r.report.requests_failed);
    expect_stats_eq(dst, ost);
  }
}

TEST(DistMachineTest, RoutingFaultPlanIdentity) {
  // Dead links make the plan routing-affecting, which flips DistProtocol
  // into the replicated fallback — identity must hold there too.
  const int side = pick_side(2);
  ASSERT_GT(side, 0);
  SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;
  fault::FaultPlan plan(cfg.mesh_rows, cfg.mesh_cols);
  plan.kill_link(static_cast<i32>(n / 3), Dir::East);
  plan.kill_link(static_cast<i32>(2 * n / 3), Dir::South);
  ASSERT_TRUE(plan.affects_routing());
  cfg.fault_plan = plan;

  PramMeshSimulator oracle(cfg);
  Rng rng(33);
  const auto writes = random_requests(n, cfg.num_vars, rng, Op::Write);
  StepStats ost0;
  StepStats ost1;
  oracle.step(writes, &ost0);
  Rng rng2(33);
  const auto reads = random_requests(n, cfg.num_vars, rng2, Op::Read);
  const auto oracle_vals = oracle.step(reads, &ost1);

  DistConfig dc;
  dc.sim = cfg;
  dc.ranks = 2;
  dc.validate = 0;
  DistMachine machine(dc);
  StepStats dst0;
  StepStats dst1;
  machine.step(writes, &dst0);
  const auto vals = machine.step(reads, &dst1);
  EXPECT_EQ(vals, oracle_vals);
  expect_stats_eq(dst0, ost0);
  expect_stats_eq(dst1, ost1);
}

TEST(DistServe, SnapshotRestoreAcrossRankCounts) {
  const int side = pick_side(4);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;
  Rng rng(55);
  const auto writes = random_requests(n, cfg.num_vars, rng, Op::Write);
  Rng rng2(55);
  const auto reads = random_requests(n, cfg.num_vars, rng2, Op::Read);

  // A dist-backed session runs some work, then snapshots.
  serve::SessionManager m0;
  DistConfig dc;
  dc.sim = cfg;
  dc.ranks = 2;
  dc.validate = 0;
  serve::Session& s0 = create_dist_session(m0, "snap", dc);
  EXPECT_FALSE(s0.has_sim());
  StepStats st;
  s0.step(writes, &st);
  const std::string bytes = s0.snapshot();

  // Restore onto 4 ranks, onto 1 rank, and onto a classic simulator; all
  // three continuations must agree, and the post-step snapshots of the
  // dist and classic restores must be byte-identical.
  serve::SessionManager m4;
  serve::Session& s4 = restore_dist_session(m4, "snap", bytes, 4);
  serve::SessionManager m1;
  serve::Session& s1 = restore_dist_session(m1, "snap", bytes, 1);
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

TEST(DistServe, MidRunSnapshotRestoresAcrossRankCounts) {
  const int side = pick_side(4);
  ASSERT_GT(side, 0);
  const SimConfig cfg = mid_mem_config(side);
  const i64 n = static_cast<i64>(side) * side;

  // A 2-rank machine runs a 3-step prefix, then we snapshot mid-run (via
  // materialize) and continue the stream on 4 ranks, 1 rank, and the classic
  // simulator. Everything downstream must be bit-identical.
  DistConfig dc;
  dc.sim = cfg;
  dc.ranks = 2;
  dc.validate = 0;
  DistMachine m2(dc);
  for (int s = 0; s < 3; ++s) {
    Rng rng(900 + s);
    m2.step(random_requests(n, cfg.num_vars, rng,
                            s % 2 == 0 ? Op::Write : Op::Read));
  }
  const std::unique_ptr<PramMeshSimulator> mid = m2.materialize();
  const std::string bytes = serve::snapshot_simulator(*mid);

  std::unique_ptr<DistMachine> m4 = DistMachine::from_simulator(*mid, 4);
  std::unique_ptr<DistMachine> m1 = DistMachine::from_simulator(*mid, 1);
  std::unique_ptr<PramMeshSimulator> oracle = serve::restore_simulator(bytes);
  EXPECT_EQ(m4->now(), oracle->now());
  for (int s = 0; s < 2; ++s) {
    Rng ra(1700 + s);
    Rng rb(1700 + s);
    Rng rc(1700 + s);
    Rng rd(1700 + s);
    const Op op = s % 2 == 0 ? Op::Read : Op::Write;
    StepStats st2;
    StepStats st4;
    StepStats st1;
    StepStats sto;
    const auto v2 = m2.step(random_requests(n, cfg.num_vars, ra, op), &st2);
    const auto v4 = m4->step(random_requests(n, cfg.num_vars, rb, op), &st4);
    const auto v1 = m1->step(random_requests(n, cfg.num_vars, rc, op), &st1);
    const auto vo =
        oracle->step(random_requests(n, cfg.num_vars, rd, op), &sto);
    EXPECT_EQ(v2, vo) << "step " << s;
    EXPECT_EQ(v4, vo) << "step " << s;
    EXPECT_EQ(v1, vo) << "step " << s;
    expect_stats_eq(st2, sto);
    expect_stats_eq(st4, sto);
    expect_stats_eq(st1, sto);
  }
  const std::string after = serve::snapshot_simulator(*oracle);
  EXPECT_EQ(serve::snapshot_simulator(*m4->materialize()), after);
  EXPECT_EQ(serve::snapshot_simulator(*m1->materialize()), after);
}

// ---------------------------------------------------------------------------
// Transport unwind under load and wire-codec abuse.
// ---------------------------------------------------------------------------

TEST(DistTransport, KillUnwindsConcurrentCollectives) {
  constexpr int kRanks = 4;
  ChannelHub hub(kRanks);
  std::vector<std::unique_ptr<ChannelTransport>> eps;
  for (int r = 0; r < kRanks; ++r) {
    eps.push_back(std::make_unique<ChannelTransport>(hub, r));
  }
  // Ranks 1..3 loop collectives forever; rank 0 (the star root) never joins,
  // so all of them end up blocked inside gather/broadcast recvs. kill() must
  // unwind every one of them with TransportError, not deadlock.
  std::atomic<int> unwound{0};
  std::atomic<int> rounds{0};
  std::vector<std::thread> threads;
  for (int r = 1; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      Collectives coll(*eps[static_cast<size_t>(r)]);
      try {
        for (;;) {
          coll.allgather("payload");
          coll.allreduce_sum(r);
          coll.barrier();
          rounds.fetch_add(1);
        }
      } catch (const TransportError&) {
        unwound.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  hub.kill();
  for (auto& t : threads) t.join();
  EXPECT_EQ(unwound.load(), kRanks - 1);
  EXPECT_EQ(rounds.load(), 0);  // rank 0 never joined, no round completed
  // The hub stays killed: a late joiner may drain the workers' already-queued
  // contributions, but must hit TransportError as soon as it needs more.
  Collectives c0(*eps[0]);
  EXPECT_THROW(
      {
        for (int i = 0; i < 10; ++i) c0.barrier();
      },
      TransportError);
}

Packet fuzz_packet(u64 key, int salt) {
  Packet p;
  p.key = key;
  p.rank = key % 7;
  p.copy = key % 3;
  p.var = static_cast<i64>(key) * 11 + salt;
  p.origin = static_cast<i32>(salt);
  p.dest = static_cast<i32>(salt + 1);
  p.stash = static_cast<i32>(salt + 2);
  p.value = -static_cast<i64>(key);
  p.timestamp = salt;
  p.op = salt % 2 == 0 ? Op::Read : Op::Write;
  for (int t = 0; t < salt % 5; ++t) p.push_trail(static_cast<i32>(100 + t));
  return p;
}

TEST(DistWireFuzz, BoundaryTruncationAtEveryOffsetThrows) {
  std::vector<BoundaryHop> hops;
  for (int i = 0; i < 3; ++i) {
    BoundaryHop h;
    h.col = i;
    h.dr = static_cast<i16>(-i);
    h.dc = static_cast<i16>(i * 2);
    h.payload = fuzz_packet(static_cast<u64>(i + 1), i);
    hops.push_back(h);
  }
  for (const bool checksum : {false, true}) {
    const std::string frame = encode_boundary(hops, checksum);
    const std::vector<BoundaryHop> back = decode_boundary(frame);
    ASSERT_EQ(back.size(), hops.size());
    EXPECT_EQ(encode_boundary(back, checksum), frame);  // canonical bytes
    // A frame cut anywhere — header, mid-packet, mid-trailer — must be
    // reported as truncation, never read past the buffer.
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_THROW(decode_boundary(frame.substr(0, cut)), ConfigError)
          << "checksum=" << checksum << " cut=" << cut;
    }
  }
}

TEST(DistWireFuzz, ImplausibleCountsRejectedBeforeAllocation) {
  // Hop count claims 4 billion entries in a 5-byte frame: the plausibility
  // gate must throw before any reserve() happens.
  std::string frame;
  ByteWriter w(frame);
  w.put_u8(0);
  w.put_u32(0xffffffffu);
  try {
    decode_boundary(frame);
    FAIL() << "expected a count rejection";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }
}

TEST(DistWireFuzz, ChecksummedFrameRejectsEverySingleByteFlip) {
  std::vector<BoundaryHop> hops;
  BoundaryHop h;
  h.col = 3;
  h.dr = 1;
  h.dc = 2;
  h.payload = fuzz_packet(42, 3);
  hops.push_back(h);
  const std::string frame = encode_boundary(hops, true);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    // Body flips trip the FNV trailer (or a parse guard first); trailer
    // flips mismatch the recomputed digest. Nothing may pass silently.
    EXPECT_THROW(decode_boundary(bad), std::exception) << "flip at " << i;
  }
}

TEST(DistWireFuzz, FillsOntoDivergentBufferShapeThrow) {
  Mesh src(4, 4);
  const RankBand band{0, 2, 0, 8};
  Rng rng(77);
  for (i64 node = band.node_begin; node < band.node_end; ++node) {
    auto& b = src.buf(static_cast<i32>(node));
    const i64 count = rng.below(4);
    for (i64 i = 0; i < count; ++i) {
      b.push_back(fuzz_packet(rng.below(1000), static_cast<int>(node + i)));
    }
  }
  // Fills onto a divergent buffer shape is an internal invariant breach.
  const std::string fills = encode_band_fills(src, band);
  Mesh empty(4, 4);
  EXPECT_THROW(decode_band_fills(empty, band, fills), std::exception);
}

TEST(DistWireFuzz, OverlongPacketTrailRejected) {
  // A trail-less packet ends with its trail_len byte; patch it to 255 so the
  // decoder sees a trail longer than the fixed array.
  std::string bare;
  ByteWriter wb(bare);
  Packet q = fuzz_packet(7, 0);
  q.trail_len = 0;
  put_packet(wb, q);
  bare.back() = static_cast<char>(0xff);
  ByteReader r(bare, "packet");
  EXPECT_THROW(get_packet(r), ConfigError);
}

TEST(DistWireFuzz, SeededRandomBytesNeverCrashDecoders) {
  Rng rng(20260808);
  int threw = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const size_t len = static_cast<size_t>(rng.below(160));
    std::string noise(len, '\0');
    for (char& c : noise) c = static_cast<char>(rng.below(256));
    try {
      const auto hops = decode_boundary(noise);
      (void)hops;
    } catch (const ConfigError&) {
      ++threw;
    } catch (const InternalError&) {
      ++threw;
    }
    Mesh scratch(4, 4);
    const RankBand band{0, 2, 0, 8};
    try {
      decode_band_fills(scratch, band, noise);
    } catch (const ConfigError&) {
      ++threw;
    } catch (const InternalError&) {
      ++threw;
    }
  }
  // Random bytes essentially never form a valid frame; what matters is that
  // every failure is a typed error, not a crash or wild allocation.
  EXPECT_GT(threw, 700);
}

}  // namespace
}  // namespace meshpram::dist

// Golden step corpus: whole-step digests recorded once and checked on every
// engine variant. Each case runs two PRAM steps and hashes what an observer
// can see — read results (and per-processor success flags under a fault
// plan), the StepStats step fields, the congestion counter grids with
// sampling on, and the serve::snapshot_simulator bytes afterwards. Every
// digest must repeat at threads 1 and 4 (stripe teams forced on), under
// both node orders, and on a dist::DistMachine at ranks 1, 2 and
// min(4, max_ranks), the last in validate mode. Fault-free and module-only
// cases run the partitioned rank mode there, link+stall cases its
// replicated fallback. The rewrites of the
// sort, the packet storage and the routing kernels keep these digests
// unchanged; a mismatch prints the digest the current code produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <iterator>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "dist/machine.hpp"
#include "fault/plan.hpp"
#include "mesh/node_order.hpp"
#include "mesh/parallel.hpp"
#include "protocol/simulator.hpp"
#include "serve/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {
namespace {

/// FNV-1a over little-endian words.
struct Digest {
  u64 h = 0xcbf29ce484222325ULL;
  void add(i64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<u64>(v) >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const std::vector<i64>& v) {
    add(static_cast<i64>(v.size()));
    for (const i64 x : v) add(x);
  }
  void add(const std::vector<char>& v) {
    add(static_cast<i64>(v.size()));
    for (const char x : v) add(static_cast<i64>(x));
  }
  void add(const std::string& s) {
    add(static_cast<i64>(s.size()));
    for (const char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ULL;
    }
  }
};

enum class PlanKind { None, Module, LinkStall };
enum class Stream { Random, WriteRead, Adversarial };

struct GoldenCase {
  const char* name;
  i64 q;
  int k;
  int rows;
  int cols;
  i64 vars;
  SortMode mode;
  PlanKind plan;
  Stream stream;
  u64 run;       ///< results + StepStats + snapshot bytes
  u64 counters;  ///< counter grids (checked when telemetry is compiled in)
};

fault::FaultPlan make_plan(PlanKind kind, int rows, int cols) {
  if (kind == PlanKind::None) return fault::FaultPlan();
  fault::FaultPlan plan(rows, cols);
  const i32 n = rows * cols;
  if (kind == PlanKind::Module) {
    for (const i32 node : {5, n / 2, n - 3}) plan.kill_module(node);
    return plan;
  }
  // Two dead links across the middle and stall windows on their detours.
  const i32 mid = (rows / 2) * cols + cols / 2;
  plan.kill_link(mid, Dir::East);
  plan.kill_link(mid + cols, Dir::South);
  for (const i32 node : {mid - cols, mid + 1, 3 * cols + 2}) {
    for (const Dir d : {Dir::North, Dir::South, Dir::East}) {
      fault::StallWindow w;
      w.node = node;
      w.dir = d;
      w.route_from = 2;
      w.route_to = 7;
      plan.add_stall(w);
    }
  }
  return plan;
}

SimConfig golden_config(const GoldenCase& c) {
  SimConfig cfg;
  cfg.mesh_rows = c.rows;
  cfg.mesh_cols = c.cols;
  cfg.num_vars = c.vars;
  cfg.q = c.q;
  cfg.k = c.k;
  cfg.sort_mode = c.mode;
  cfg.fault_plan = make_plan(c.plan, c.rows, c.cols);
  cfg.fault_plan_from_env = false;
  return cfg;
}

/// The two steps of a case's stream.
std::vector<std::vector<AccessRequest>> golden_stream(const GoldenCase& c) {
  const SimConfig cfg = golden_config(c);
  const i64 n = static_cast<i64>(c.rows) * c.cols;
  std::vector<std::vector<AccessRequest>> steps(
      2, std::vector<AccessRequest>(static_cast<size_t>(n)));
  Rng rng(static_cast<u64>(c.q * 7919 + c.k * 104729 + c.rows * 31 + c.cols));
  if (c.stream == Stream::Random) {
    // Distinct variables per step, mixed reads and writes, every eighth
    // processor idle on average.
    for (auto& step : steps) {
      std::vector<i64> pool(static_cast<size_t>(c.vars));
      std::iota(pool.begin(), pool.end(), i64{0});
      rng.shuffle(pool);
      for (i64 i = 0; i < n; ++i) {
        if (rng.below(8) == 0) continue;
        const Op op = rng.below(3) == 0 ? Op::Write : Op::Read;
        step[static_cast<size_t>(i)] = {pool[static_cast<size_t>(i)], op,
                                        static_cast<i64>(rng.below(1 << 20))};
      }
    }
    return steps;
  }
  std::vector<i64> vars;
  if (c.stream == Stream::WriteRead) {
    for (i64 i = 0; i < n; ++i) vars.push_back((i * 7919 + 3) % c.vars);
  } else {
    // The adversary knows the map: every variable whose first copy shares
    // variable 0's level-k page, then the rest of the processors idle.
    const PramMeshSimulator probe(cfg);
    const Placement& pl = probe.placement();
    const u64 red = static_cast<u64>(probe.params().redundancy());
    const i64 target = pl.page_at(0, c.k);
    for (i64 v = 0; v < c.vars && static_cast<i64>(vars.size()) < n; ++v) {
      if (pl.page_at(static_cast<u64>(v) * red, c.k) == target) {
        vars.push_back(v);
      }
    }
  }
  for (size_t i = 0; i < vars.size(); ++i) {
    steps[0][i] = {vars[i], Op::Write, static_cast<i64>(rng.below(1 << 20))};
    steps[1][i] = {vars[i], Op::Read, 0};
  }
  return steps;
}

void add_stats(Digest& d, const StepStats& st) {
  for (const i64 v : {st.total_steps, st.culling_steps, st.forward_steps,
                      st.return_steps, st.packets, st.culling.steps,
                      st.culling.selected_copies, st.culling.copies_lost,
                      st.culling.requests_degraded,
                      st.culling.requests_failed}) {
    d.add(v);
  }
  d.add(st.forward_stage_steps);
  d.add(st.culling.max_page_load);
  const fault::FaultReport& f = st.fault;
  for (const i64 v : {f.dead_nodes, f.dead_modules, f.copies_lost,
                      f.requests_failed, f.requests_degraded,
                      f.packets_retried, f.packets_dropped,
                      f.packets_detoured}) {
    d.add(v);
  }
  d.add(st.request_ok);
}

u64 counter_digest(const telemetry::MeshCounters& c) {
  Digest d;
  for (const auto* grid : {&c.max_queue(), &c.forwarded(), &c.copies_touched(),
                           &c.survivors(), &c.retries(), &c.copies_lost()}) {
    d.add(*grid);
  }
  return d.h;
}

struct RunDigest {
  u64 run = 0;
  u64 counters = 0;
};

/// Hashes the read results (with the success flags under a fault plan) and
/// StepStats of the case's steps on `m`, a PramMeshSimulator or DistMachine.
template <class Machine>
RunDigest run_stream(const GoldenCase& c, Machine& m) {
  Digest d;
  for (const auto& reqs : golden_stream(c)) {
    StepStats st;
    if (c.plan == PlanKind::None) {
      d.add(m.step(reqs, &st));
    } else {
      const DegradedResult r = m.step_degraded(reqs, &st);
      d.add(r.values);
      d.add(r.ok);
    }
    add_stats(d, st);
  }
  return {d.h, 0};
}

RunDigest run_single(const GoldenCase& c) {
  PramMeshSimulator sim(golden_config(c));
  RunDigest out = run_stream(c, sim);
  Digest d{out.run};
  d.add(serve::snapshot_simulator(sim));
  out.run = d.h;
  out.counters = counter_digest(sim.mesh().counters());
  return out;
}

RunDigest run_dist(const GoldenCase& c, int ranks, int validate) {
  dist::DistConfig dc;
  dc.sim = golden_config(c);
  dc.ranks = ranks;
  dc.validate = validate;
  dist::DistMachine machine(dc);
  RunDigest out = run_stream(c, machine);
  Digest d{out.run};
  d.add(serve::snapshot_simulator(*machine.materialize()));
  out.run = d.h;
  out.counters = counter_digest(machine.merged_counters());
  return out;
}

const GoldenCase kCases[] = {
    {"q3k2_sim_rand", 3, 2, 16, 16, 1080,
     SortMode::Simulated, PlanKind::None, Stream::Random,
     0x957ddbf817a38fe6ULL, 0x3d22160f1ae9e606ULL},
    {"q3k2_ana_wr", 3, 2, 16, 16, 1080,
     SortMode::Analytic, PlanKind::None, Stream::WriteRead,
     0x5457ab4e5a7c197bULL, 0x3ef4688be61a45feULL},
    {"q3k2_ana_adv", 3, 2, 16, 16, 4096,
     SortMode::Analytic, PlanKind::None, Stream::Adversarial,
     0x221179882e457ffcULL, 0x5bbed48c87a12b94ULL},
    {"q3k2_ana_mod", 3, 2, 12, 20, 1080,
     SortMode::Analytic, PlanKind::Module, Stream::Random,
     0x5d739f11615e75d2ULL, 0x8ec5f897161920d1ULL},
    {"q3k2_sim_link", 3, 2, 12, 20, 1080,
     SortMode::Simulated, PlanKind::LinkStall, Stream::WriteRead,
     0x9559b718f4390fd8ULL, 0x8db3f532c7acdc5aULL},
    {"q3k3_ana_rand", 3, 3, 16, 16, 4096,
     SortMode::Analytic, PlanKind::None, Stream::Random,
     0xbba0d19a9f1bf0c8ULL, 0x5b3b57acaa35a0c8ULL},
    {"q3k3_sim_wr", 3, 3, 12, 20, 1080,
     SortMode::Simulated, PlanKind::None, Stream::WriteRead,
     0x7743d2ac0118302fULL, 0xf1b7ec75c3bac717ULL},
    {"q3k3_ana_mod", 3, 3, 16, 16, 4096,
     SortMode::Analytic, PlanKind::Module, Stream::Adversarial,
     0xb81360cfa61b61d8ULL, 0x53980e7bc589b386ULL},
    {"q3k3_ana_link", 3, 3, 16, 16, 4096,
     SortMode::Analytic, PlanKind::LinkStall, Stream::Random,
     0xa25d72b919fdebf3ULL, 0xcf924d2ed0b098faULL},
    {"q4k2_ana_rand", 4, 2, 12, 20, 1344,
     SortMode::Analytic, PlanKind::None, Stream::Random,
     0x2e5c4b75b3944dc5ULL, 0x02f4e8c3e21819c0ULL},
    {"q4k2_sim_mod", 4, 2, 16, 16, 1344,
     SortMode::Simulated, PlanKind::Module, Stream::WriteRead,
     0x5a84d9a0d4af366eULL, 0x445a38e48171e595ULL},
    {"q4k2_ana_link", 4, 2, 16, 16, 1344,
     SortMode::Analytic, PlanKind::LinkStall, Stream::Adversarial,
     0x9d22c8f14f09c5ebULL, 0x5257d764386fc84cULL},
    {"q4k3_ana_wr", 4, 3, 16, 16, 5000,
     SortMode::Analytic, PlanKind::None, Stream::WriteRead,
     0x42d166f9397a064aULL, 0x614d2aac16942aebULL},
    {"q4k3_sim_adv", 4, 3, 16, 16, 5000,
     SortMode::Simulated, PlanKind::None, Stream::Adversarial,
     0x096cc15848078aa4ULL, 0x50b92aab0e89d5a7ULL},
    // At these sizes nearly every placement packs several level pages onto a
    // node (t_i < 1); this one does not.
    {"q4k2_unpacked", 4, 2, 16, 16, 300,
     SortMode::Analytic, PlanKind::None, Stream::Random,
     0x908c57eeb89288dfULL, 0xf9078277df54fb5eULL},
};

class GoldenCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::Error);  // the packed placements warn
    telemetry::clear();
    telemetry::set_sample_every(1);
    telemetry::set_enabled(true);
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::clear();
    set_node_order_override(std::nullopt);
    set_stripe_min_nodes(0);
    set_execution_threads(0);
  }
};

void expect_digest(const GoldenCase& c, const RunDigest& got,
                   const std::string& variant) {
  EXPECT_EQ(got.run, c.run) << c.name << ' ' << variant << ": run digest 0x"
                            << std::hex << got.run;
#if MESHPRAM_TELEMETRY
  EXPECT_EQ(got.counters, c.counters)
      << c.name << ' ' << variant << ": counter digest 0x" << std::hex
      << got.counters;
#endif
}

TEST_F(GoldenCorpus, CasesCoverTheCorpusAxes) {
  int packed = 0;
  for (const GoldenCase& c : kCases) {
    PramMeshSimulator sim(golden_config(c));
    packed += sim.placement().degraded() ? 1 : 0;
    const auto stream = golden_stream(c);
    if (c.stream == Stream::Adversarial) {
      i64 active = 0;
      for (const AccessRequest& r : stream[0]) active += r.var >= 0 ? 1 : 0;
      EXPECT_GE(active, 8) << c.name << ": too few variables share a page";
    }
    if (c.plan == PlanKind::LinkStall) {
      // The link+stall plan must actually detour or stall some packet.
      i64 hits = 0;
      for (const auto& reqs : stream) {
        const fault::FaultReport f = sim.step_degraded(reqs).report;
        hits += f.packets_detoured + f.packets_retried;
      }
      EXPECT_GT(hits, 0) << c.name;
    }
    EXPECT_GE(dist::DistMachine::max_ranks(golden_config(c)), 3) << c.name;
  }
  EXPECT_GT(packed, 0) << "no case packs pages (t_i < 1)";
  EXPECT_LT(packed, static_cast<int>(std::size(kCases)))
      << "every case packs pages (t_i < 1)";
}

TEST_F(GoldenCorpus, SingleProcessAcrossThreadsAndNodeOrders) {
  for (const GoldenCase& c : kCases) {
    for (const NodeOrderKind order :
         {NodeOrderKind::RowMajor, NodeOrderKind::Hilbert}) {
      set_node_order_override(order);
      for (const int threads : {1, 4}) {
        set_execution_threads(threads);
        set_stripe_min_nodes(threads > 1 ? 1 : 0);
        expect_digest(c, run_single(c),
                      std::string(node_order_name(order)) +
                          " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_F(GoldenCorpus, DistMachineAtOneTwoAndUpToFourRanks) {
  // Two ranks give each band one neighbour; three or more give a middle band
  // two, so both of its edges exchange boundary hops in the same step. The
  // top rank count runs validate mode's cross-rank checks as well.
  for (const GoldenCase& c : kCases) {
    const int most =
        std::min(4, dist::DistMachine::max_ranks(golden_config(c)));
    ASSERT_GE(most, 3) << c.name;
    for (const int ranks : {1, 2, most}) {
      const int validate = ranks == most ? 1 : 0;
      expect_digest(c, run_dist(c, ranks, validate),
                    "ranks=" + std::to_string(ranks) +
                        " validate=" + std::to_string(validate));
    }
  }
}

}  // namespace
}  // namespace meshpram

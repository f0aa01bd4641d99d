// Tests for the algorithm workload subsystem (`ctest -L algo`): seeded
// input generators, the CRCW programs (connected components, partition
// refinement), the workload harness's oracle protocol across every backend,
// bit-identity of mesh runs under thread-count/layout changes, and the
// EREW trace recording that feeds serve_loadgen --scenario algo:<name>.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "algo/backends.hpp"
#include "algo/cc.hpp"
#include "algo/harness.hpp"
#include "algo/inputs.hpp"
#include "algo/refine.hpp"
#include "algo/staples.hpp"
#include "mesh/node_order.hpp"
#include "pram/combining.hpp"
#include "pram/mesh_backend.hpp"
#include "pram/program.hpp"
#include "serve/loadgen.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace meshpram::algo {
namespace {

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.mesh_rows = 8;
  cfg.mesh_cols = 8;
  cfg.num_vars = 1080;
  return cfg;
}

// ---------------------------------------------------------------------------
// Input generators.

TEST(Inputs, GraphFamiliesAreDeterministicAndWellFormed) {
  for (const GraphFamily family :
       {GraphFamily::Path, GraphFamily::Star, GraphFamily::Grid,
        GraphFamily::Expander, GraphFamily::RandomForest}) {
    const GraphInput a = make_graph(family, 40, 7);
    const GraphInput b = make_graph(family, 40, 7);
    EXPECT_EQ(a.n, 40) << graph_family_name(family);
    EXPECT_EQ(a.edges, b.edges) << graph_family_name(family);
    for (const auto& [u, v] : a.edges) {
      EXPECT_NE(u, v) << graph_family_name(family);
      EXPECT_GE(u, 0);
      EXPECT_LT(u, a.n);
      EXPECT_GE(v, 0);
      EXPECT_LT(v, a.n);
    }
  }
  // Seeded families actually vary with the seed.
  EXPECT_NE(make_graph(GraphFamily::Expander, 40, 1).edges,
            make_graph(GraphFamily::Expander, 40, 2).edges);
}

TEST(Inputs, ReferenceComponentsOnKnownGraphs) {
  // Path: one component labelled 0.
  const GraphInput path = make_graph(GraphFamily::Path, 6, 1);
  EXPECT_EQ(reference_components(path), std::vector<i64>(6, 0));
  // Two disjoint edges + isolated vertex.
  GraphInput g;
  g.n = 5;
  g.edges = {{3, 4}, {0, 1}};
  EXPECT_EQ(reference_components(g), (std::vector<i64>{0, 0, 2, 3, 3}));
}

TEST(Inputs, PartitionAndListGeneratorsAreWellFormed) {
  const PartitionInput p = make_partition(30, 5, 11);
  EXPECT_EQ(p.n, 30);
  ASSERT_EQ(p.succ.size(), 30u);
  for (const i64 s : p.succ) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 30);
  }
  EXPECT_EQ(p.succ, make_partition(30, 5, 11).succ);
  EXPECT_EQ(p.block, make_partition(30, 5, 11).block);

  const std::vector<i64> succ = random_list(25, 3);
  EXPECT_EQ(std::count(succ.begin(), succ.end(), -1), 1);  // exactly one tail
  std::set<i64> targets;
  for (const i64 s : succ) {
    if (s >= 0) {
      EXPECT_TRUE(targets.insert(s).second);  // a real chain
    }
  }
}

TEST(Inputs, ReferenceRefinementFixpointSplitsBysuccessorBlock) {
  // succ forms two 2-cycles; one initial block => refinement separates the
  // cycles only if their signatures ever differ — here they don't, so one
  // block stays. Adding a distinguishing initial label splits them.
  PartitionInput p;
  p.n = 4;
  p.succ = {1, 0, 3, 2};
  p.block = {9, 9, 9, 9};
  EXPECT_EQ(reference_refinement(p), std::vector<i64>(4, 0));
  p.block = {9, 9, 9, 4};
  const std::vector<i64> r = reference_refinement(p);
  // 3 was marked distinct, so 2 (whose successor is 3) splits off too; 0
  // and 1 keep matching signatures and stay together.
  EXPECT_EQ(r, (std::vector<i64>{0, 0, 2, 3}));
}

// ---------------------------------------------------------------------------
// CRCW programs on the ideal machine (through CombiningBackend).

TEST(ConnectedComponents, MatchesUnionFindAcrossFamiliesAndSeeds) {
  for (const GraphFamily family :
       {GraphFamily::Path, GraphFamily::Star, GraphFamily::Grid,
        GraphFamily::Expander, GraphFamily::RandomForest}) {
    for (const u64 seed : {1u, 2u, 3u}) {
      for (const i64 n : {1, 2, 9, 32}) {
        const GraphInput g = make_graph(family, n, seed);
        ConnectedComponentsProgram prog(g);
        IdealBackend ideal(std::max(n, static_cast<i64>(g.edges.size())),
                           prog.vars_needed());
        CombiningBackend crcw(ideal);
        run_program(prog, crcw);
        EXPECT_EQ(prog.labels(), reference_components(g))
            << graph_family_name(family) << " n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(ConnectedComponents, StarHookingIsCombinedNotSerialized) {
  const GraphInput g = make_graph(GraphFamily::Star, 32, 1);
  ConnectedComponentsProgram prog(g);
  IdealBackend ideal(std::max<i64>(32, static_cast<i64>(g.edges.size())),
                     prog.vars_needed());
  CombiningBackend crcw(ideal);
  run_program(prog, crcw);
  // All 31 leaf edges hook onto the centre's parent cell concurrently; the
  // adapter must have combined groups (reads of the centre's parent at
  // minimum), and the ideal EREW backend underneath never saw a duplicate.
  EXPECT_GT(crcw.combined_groups(), 0);
  EXPECT_EQ(prog.labels(), std::vector<i64>(32, 0));
}

TEST(PartitionRefinement, MatchesHostFixpointAcrossSeeds) {
  for (const u64 seed : {1u, 5u, 9u}) {
    for (const i64 n : {1, 2, 7, 24}) {
      const PartitionInput in = make_partition(n, std::max<i64>(2, n / 4), seed);
      PartitionRefinementProgram prog(in);
      IdealBackend ideal(n, prog.vars_needed());
      CombiningBackend crcw(ideal);
      run_program(prog, crcw);
      EXPECT_EQ(prog.blocks(), reference_refinement(in))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(PartitionRefinement, ArbitraryInitialLabelsAreCanonicalized) {
  PartitionInput in;
  in.n = 4;
  in.succ = {0, 1, 2, 3};           // fixpoints: nothing ever splits
  in.block = {700, -3, 700, 41};    // arbitrary labels, same partition as...
  PartitionRefinementProgram prog(in);
  IdealBackend ideal(4, prog.vars_needed());
  CombiningBackend crcw(ideal);
  run_program(prog, crcw);
  EXPECT_EQ(prog.blocks(), (std::vector<i64>{0, 1, 0, 3}));
  EXPECT_EQ(prog.blocks(), reference_refinement(in));
}

// ---------------------------------------------------------------------------
// New staple programs.

TEST(BlellochScan, MatchesHillisSteeleAcrossSizes) {
  for (const i64 n : {1, 2, 3, 5, 8, 17, 32, 50}) {
    const std::vector<i64> input = random_values(n, 21 + static_cast<u64>(n),
                                                 -50, 50);
    BlellochScanProgram prog(input);
    IdealBackend ideal(prog.processors(), 2 * prog.processors() + 4);
    run_program(prog, ideal);
    EXPECT_EQ(prog.result(), PrefixSumProgram::expected(input)) << "n=" << n;
  }
}

TEST(BitonicSort, SortsPowerOfTwoInputsAndRejectsOthers) {
  for (const i64 n : {1, 2, 4, 16, 64}) {
    std::vector<i64> input = random_values(n, 33 + static_cast<u64>(n), -99, 99);
    BitonicSortProgram prog(input);
    IdealBackend ideal(n, n + 4);
    run_program(prog, ideal);
    std::sort(input.begin(), input.end());
    EXPECT_EQ(prog.result(), input) << "n=" << n;
  }
  EXPECT_THROW(BitonicSortProgram(std::vector<i64>(12, 0)), ConfigError);
}

// ---------------------------------------------------------------------------
// Workload registry + harness oracle protocol.

TEST(Workloads, RegistryBuildsEveryNameAndRejectsUnknown) {
  for (const std::string& name : workload_names()) {
    const auto w = make_workload(name, 16, 1);
    EXPECT_EQ(w->name(), name);
    EXPECT_GT(w->processors_needed(), 0);
    EXPECT_GT(w->vars_needed(), 0);
  }
  EXPECT_THROW(make_workload("nope", 16, 1), ConfigError);
}

TEST(Workloads, FittingShrinksToTheBudgetOrThrows) {
  // refine needs n^2 + n + 1 vars: n=32 wants 1057 <= 1080 (fits), but a
  // 200-var budget forces it down to n=13 (183 vars).
  const auto big = make_workload_fitting("refine", 32, 64, 1080, 1);
  EXPECT_EQ(big->size(), 32);
  const auto small = make_workload_fitting("refine", 32, 64, 200, 1);
  EXPECT_LE(small->vars_needed(), 200);
  EXPECT_LT(small->size(), 32);
  EXPECT_THROW(make_workload_fitting("refine", 32, 64, 3, 1), ConfigError);
}

TEST(Harness, EveryWorkloadPassesTheOracleOnEveryBackend) {
  const WorkloadHarness harness(tiny_config());
  for (const std::string& name : workload_names()) {
    const auto w = make_workload_fitting(name, 24, 64, 1080, 2026);
    for (const BackendKind kind : all_backend_kinds()) {
      const HarnessResult r = harness.run(*w, kind);  // throws on mismatch
      EXPECT_EQ(r.workload, name);
      EXPECT_EQ(r.backend, backend_kind_name(kind));
      EXPECT_GT(r.pram_steps, 0);
      EXPECT_GT(r.backend_steps, 0);
      // EREW programs reach the backend unchanged; CRCW steps expand to at
      // most two EREW steps (and idle phases to zero).
      if (!w->crcw()) EXPECT_EQ(r.backend_steps, r.pram_steps);
      else EXPECT_LE(r.backend_steps, 2 * r.pram_steps);
      EXPECT_GT(r.stream.accesses, 0);
      if (kind == BackendKind::Ideal) {
        EXPECT_TRUE(r.zero_cost_backend);
        EXPECT_EQ(r.mesh_steps, 0);
      } else {
        EXPECT_FALSE(r.zero_cost_backend);
        EXPECT_GT(r.mesh_steps, 0) << name << " on "
                                   << backend_kind_name(kind);
      }
      if (w->crcw()) {
        EXPECT_GT(r.combined_groups, 0) << name;
        EXPECT_GT(r.stream.max_concurrency, 1) << name;
      }
    }
  }
}

TEST(Harness, CcRunsAreBitIdenticalAcrossThreadsAndNodeOrders) {
  // Mesh runs of a CRCW workload must not depend on host threading or the
  // physical layout — same discipline tests/test_layout.cpp enforces for
  // the raw simulator, now through the whole algo stack.
  struct Restore {
    ~Restore() {
      set_node_order_override(std::nullopt);
      set_execution_threads(0);
    }
  } restore;
  const WorkloadHarness harness(tiny_config());
  const auto w = make_workload("cc:expander", 24, 5);

  set_node_order_override(NodeOrderKind::RowMajor);
  set_execution_threads(1);
  const HarnessResult base = harness.run(*w, BackendKind::Mesh);

  const int hw =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  for (const int threads : {2, hw}) {
    for (const NodeOrderKind order :
         {NodeOrderKind::RowMajor, NodeOrderKind::Hilbert}) {
      set_node_order_override(order);
      set_execution_threads(threads);
      const HarnessResult r = harness.run(*w, BackendKind::Mesh);
      const std::string what = std::string(node_order_name(order)) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(r.mesh_steps, base.mesh_steps) << what;
      EXPECT_EQ(r.pram_steps, base.pram_steps) << what;
      EXPECT_EQ(r.backend_steps, base.backend_steps) << what;
      EXPECT_EQ(r.combined_groups, base.combined_groups) << what;
    }
  }
}

TEST(Harness, StreamStatsSeeRawConcurrency) {
  // A CRCW star run observed above the combining layer: the hook phase has
  // every leaf edge racing one cell, so max_concurrency ~ leaf count while
  // the backend underneath only ever saw exclusive steps.
  const WorkloadHarness harness(tiny_config());
  const auto w = make_workload("cc:star", 24, 1);
  const HarnessResult r = harness.run(*w, BackendKind::Ideal);
  EXPECT_GE(r.stream.max_concurrency, 20);
  EXPECT_GT(r.stream.hot_var_accesses, r.stream.accesses / (24 * 4));
  EXPECT_GT(r.stream.reads, 0);
  EXPECT_GT(r.stream.writes, 0);
  EXPECT_GT(r.stream.distinct_vars, 0);
  EXPECT_GE(r.stream.reuse_factor(), 1.0);
}

TEST(Harness, MpcBackendChargesContention) {
  const WorkloadHarness harness(tiny_config());
  const auto w = make_workload("prefix", 32, 1);
  const HarnessResult r = harness.run(*w, BackendKind::Mpc);
  EXPECT_GT(r.mesh_steps, 0);  // majority quorums are never free
  EXPECT_GE(r.mesh_steps, r.backend_steps);  // >= 1 contention per step
}

// ---------------------------------------------------------------------------
// EREW trace recording + the loadgen scenario plumbing.

TEST(Trace, RecordedStepsAreErewAndFitTheShape) {
  const i64 processors = 64, num_vars = 512;
  for (const std::string& name : {std::string("cc:grid"), std::string("scan")}) {
    const auto w = make_workload_fitting(name, 24, processors, num_vars, 3);
    const auto trace =
        WorkloadHarness::record_erew_trace(*w, processors, num_vars);
    ASSERT_FALSE(trace.empty()) << name;
    for (const auto& step : trace) {
      EXPECT_FALSE(step.empty());
      EXPECT_LE(static_cast<i64>(step.size()), processors);
      std::set<i64> vars;
      for (const AccessRequest& req : step) {
        EXPECT_GE(req.var, 0);
        EXPECT_LT(req.var, num_vars);
        EXPECT_TRUE(vars.insert(req.var).second)
            << name << ": EREW violation on var " << req.var;
      }
    }
  }
}

TEST(Loadgen, TraceScenarioKeepsArrivalsAndSessionsOfRandomScenario) {
  using namespace meshpram::serve;
  const std::vector<SessionShape> shapes = {{64, 512}, {64, 512}};
  LoadgenConfig random_cfg;
  random_cfg.requests = 40;
  random_cfg.seed = 9;
  const auto random_reqs = generate_workload(random_cfg, shapes);

  const auto w = make_workload_fitting("cc:grid", 24, 64, 512, 3);
  LoadgenConfig traced_cfg = random_cfg;
  traced_cfg.scenario = "algo:cc:grid";
  traced_cfg.trace = WorkloadHarness::record_erew_trace(*w, 64, 512);
  const auto traced_reqs = generate_workload(traced_cfg, shapes);

  ASSERT_EQ(random_reqs.size(), traced_reqs.size());
  std::vector<size_t> cursor(shapes.size(), 0);
  for (size_t i = 0; i < random_reqs.size(); ++i) {
    // Same rng draws for the envelope: arrival process and session choice
    // are untouched by installing a trace.
    EXPECT_EQ(traced_reqs[i].arrival_slice, random_reqs[i].arrival_slice);
    EXPECT_EQ(traced_reqs[i].session_index, random_reqs[i].session_index);
    // Body comes from the trace, cycling per session.
    const auto s = static_cast<size_t>(traced_reqs[i].session_index);
    const auto& expect =
        traced_cfg.trace[cursor[s]++ % traced_cfg.trace.size()];
    ASSERT_EQ(traced_reqs[i].accesses.size(), expect.size());
    for (size_t a = 0; a < expect.size(); ++a) {
      EXPECT_EQ(traced_reqs[i].accesses[a].var, expect[a].var);
      EXPECT_EQ(traced_reqs[i].accesses[a].op, expect[a].op);
      EXPECT_EQ(traced_reqs[i].accesses[a].value, expect[a].value);
    }
  }
}

TEST(Loadgen, TraceThatDoesNotFitTheShapeIsRejected) {
  using namespace meshpram::serve;
  const std::vector<SessionShape> shapes = {{4, 16}};
  LoadgenConfig cfg;
  cfg.requests = 2;
  cfg.trace = {{{20, Op::Read, 0}}};  // var 20 out of range for 16 vars
  EXPECT_THROW(generate_workload(cfg, shapes), ConfigError);
  cfg.trace = {std::vector<AccessRequest>(5, {1, Op::Read, 0})};  // 5 > 4
  // 5 accesses exceed the 4-processor shape (duplicate vars never reach the
  // session; the size check fires first).
  EXPECT_THROW(generate_workload(cfg, shapes), ConfigError);
}

}  // namespace
}  // namespace meshpram::algo

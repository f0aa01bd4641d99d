// Physical node-order abstraction (DESIGN.md §12): the Hilbert layout and
// the SIMD kernel variants are pure physical optimizations — every
// PRAM-visible observable (read results, StepStats, congestion counter
// grids) must be bit-identical to the row-major scalar reference at every
// thread count. This suite is the enforcement (`ctest -L layout`).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mesh/node_order.hpp"
#include "mesh/parallel.hpp"
#include "protocol/simulator.hpp"
#include "routing/greedy.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {
namespace {

// ---------------------------------------------------------------------------
// Curve structure.

const std::vector<std::pair<int, int>>& curve_sizes() {
  static const std::vector<std::pair<int, int>> sizes = {
      {1, 1},  {1, 7},  {7, 1},  {2, 2},  {2, 3},  {3, 2},  {3, 3},
      {4, 4},  {4, 5},  {5, 4},  {4, 7},  {5, 5},  {6, 9},  {8, 8},
      {9, 6},  {12, 12}, {13, 11}, {16, 16}, {16, 32}, {31, 33}, {32, 32}};
  return sizes;
}

TEST(NodeOrder, BijectionForEverySizeAndKind) {
  for (const auto& [rows, cols] : curve_sizes()) {
    for (const NodeOrderKind kind :
         {NodeOrderKind::RowMajor, NodeOrderKind::Hilbert}) {
      const NodeOrder order(rows, cols, kind);
      const i32 n = static_cast<i32>(rows) * cols;
      std::vector<char> seen(static_cast<size_t>(n), 0);
      for (i32 id = 0; id < n; ++id) {
        const i32 slot = order.slot_of(id);
        ASSERT_GE(slot, 0) << rows << "x" << cols;
        ASSERT_LT(slot, n) << rows << "x" << cols;
        ASSERT_EQ(order.id_of(slot), id)
            << node_order_name(kind) << " " << rows << "x" << cols;
        seen[static_cast<size_t>(slot)] = 1;
      }
      for (const char s : seen) ASSERT_TRUE(s);
    }
  }
}

TEST(NodeOrder, RowMajorIsTheIdentity) {
  const NodeOrder order(7, 13, NodeOrderKind::RowMajor);
  EXPECT_TRUE(order.identity());
  for (i32 id = 0; id < 7 * 13; ++id) {
    EXPECT_EQ(order.slot_of(id), id);
    EXPECT_EQ(order.id_of(id), id);
  }
}

/// The generalized Hilbert curve (gilbert2d) keeps consecutive slots
/// mesh-adjacent with one caveat: for some odd-by-even splits the recursion
/// joins two halves with a single diagonal step (Manhattan distance 2). That
/// is a property of the reference algorithm, not a transcription bug — so
/// the contract is: every step has distance <= 2, at most ONE step per curve
/// exceeds 1, and even-by-even (in particular power-of-two) grids have none.
TEST(NodeOrder, HilbertStepsAreMeshAdjacentUpToOneDiagonal) {
  for (const auto& [rows, cols] : curve_sizes()) {
    std::vector<i32> id_at_slot;
    fill_curve_order(rows, cols, NodeOrderKind::Hilbert, id_at_slot);
    ASSERT_EQ(id_at_slot.size(), static_cast<size_t>(rows) * cols);
    int jumps = 0;
    for (size_t s = 1; s < id_at_slot.size(); ++s) {
      const i32 a = id_at_slot[s - 1];
      const i32 b = id_at_slot[s];
      const int dist = std::abs(a / cols - b / cols) +
                       std::abs(a % cols - b % cols);
      ASSERT_GE(dist, 1) << rows << "x" << cols << " repeats a node";
      ASSERT_LE(dist, 2) << rows << "x" << cols << " jumps at slot " << s;
      if (dist == 2) ++jumps;
    }
    EXPECT_LE(jumps, 1) << rows << "x" << cols;
    if (rows % 2 == 0 && cols % 2 == 0) {
      EXPECT_EQ(jumps, 0) << rows << "x" << cols
                          << ": even-by-even grids have a seamless curve";
    }
  }
}

/// The cache-oblivious property the layout exists for: an aligned submesh of
/// the tessellation occupies few contiguous runs of the slot space. Under
/// row-major a side-s submesh of a side-N mesh always needs s runs; under
/// the Hilbert order the run count stays O(1) per submesh at every level.
TEST(NodeOrder, HilbertKeepsAlignedSubmeshesContiguous) {
  const int side = 32;
  const NodeOrder order(side, side, NodeOrderKind::Hilbert);
  for (int sub = 4; sub <= 16; sub *= 2) {
    for (int r0 = 0; r0 < side; r0 += sub) {
      for (int c0 = 0; c0 < side; c0 += sub) {
        std::vector<i32> slots;
        for (int r = r0; r < r0 + sub; ++r) {
          for (int c = c0; c < c0 + sub; ++c) {
            slots.push_back(order.slot_of(r * side + c));
          }
        }
        std::sort(slots.begin(), slots.end());
        int runs = 1;
        for (size_t i = 1; i < slots.size(); ++i) {
          if (slots[i] != slots[i - 1] + 1) ++runs;
        }
        // Power-of-two aligned blocks of a power-of-two Hilbert grid are a
        // single run; allow a little slack rather than encode the exact
        // recursion.
        EXPECT_LE(runs, 4) << sub << "x" << sub << " block at (" << r0 << ","
                           << c0 << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity: Hilbert vs row-major, SIMD vs scalar.

struct StepTrace {
  std::vector<i64> reads;
  StepStats stats;
  std::vector<i64> max_queue;
  std::vector<i64> forwarded;
  std::vector<i64> copies_touched;
  std::vector<i64> survivors;
};

struct WorkloadCfg {
  int side = 16;
  int k = 2;
  i64 num_vars = 1080;
  int threads = 1;
  bool stripe_path = false;
};

/// Fixed write-then-read workload under the ambient node order and SIMD
/// dispatch; returns everything an observer can see. Congestion counters are
/// sampled (telemetry on) so layout bugs in the counter indexing show up too.
StepTrace run_workload(const WorkloadCfg& w) {
  set_execution_threads(w.threads);
  if (w.stripe_path) set_stripe_min_nodes(1);
  telemetry::set_enabled(true);
  set_log_level(LogLevel::Error);
  SimConfig cfg;
  cfg.mesh_rows = w.side;
  cfg.mesh_cols = w.side;
  cfg.num_vars = w.num_vars;
  cfg.q = 3;
  cfg.k = w.k;
  cfg.sort_mode = SortMode::Simulated;
  PramMeshSimulator sim(cfg);
  const i64 n = sim.processors();

  Rng rng(2026);
  std::vector<i64> vars(static_cast<size_t>(n));
  std::vector<i64> values(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    vars[static_cast<size_t>(i)] = (i * 7 + 3) % cfg.num_vars;
    values[static_cast<size_t>(i)] = rng.range(0, 1 << 20);
  }
  sim.write_step(vars, values);

  StepTrace trace;
  trace.reads = sim.read_step(vars, &trace.stats);
  EXPECT_EQ(sim.mesh().total_packets(sim.mesh().whole()), 0)
      << "buffers must drain after a step";
  const telemetry::MeshCounters& c = sim.mesh().counters();
  trace.max_queue = c.max_queue();
  trace.forwarded = c.forwarded();
  trace.copies_touched = c.copies_touched();
  trace.survivors = c.survivors();
  telemetry::set_enabled(false);
  if (w.stripe_path) set_stripe_min_nodes(0);
  set_execution_threads(0);
  return trace;
}

void expect_same(const StepTrace& a, const StepTrace& b, const char* what) {
  EXPECT_EQ(a.reads, b.reads) << "read results differ: " << what;
  EXPECT_EQ(a.stats.total_steps, b.stats.total_steps) << what;
  EXPECT_EQ(a.stats.culling_steps, b.stats.culling_steps) << what;
  EXPECT_EQ(a.stats.forward_steps, b.stats.forward_steps) << what;
  EXPECT_EQ(a.stats.return_steps, b.stats.return_steps) << what;
  EXPECT_EQ(a.stats.packets, b.stats.packets) << what;
  EXPECT_EQ(a.stats.forward_stage_steps, b.stats.forward_stage_steps) << what;
  EXPECT_EQ(a.stats.culling.steps, b.stats.culling.steps) << what;
  EXPECT_EQ(a.stats.culling.max_page_load, b.stats.culling.max_page_load)
      << what;
  EXPECT_EQ(a.stats.culling.selected_copies, b.stats.culling.selected_copies)
      << what;
  // Congestion counters are indexed by node id in the exported grids, so
  // they must not move under a physical relayout either.
  EXPECT_EQ(a.max_queue, b.max_queue) << "max_queue grid differs: " << what;
  EXPECT_EQ(a.forwarded, b.forwarded) << "forwarded grid differs: " << what;
  EXPECT_EQ(a.copies_touched, b.copies_touched)
      << "copies_touched grid differs: " << what;
  EXPECT_EQ(a.survivors, b.survivors) << "survivors grid differs: " << what;
}

class LayoutInvariance : public ::testing::Test {
 protected:
  void TearDown() override {
    set_node_order_override(std::nullopt);
    simd::set_enabled(true);  // cpu/env gate re-applies inside
    set_execution_threads(0);
  }
};

TEST_F(LayoutInvariance, HilbertMatchesRowMajorAcrossConfigsAndThreads) {
  const int hw = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  // Side 12 exercises the odd-by-even gilbert sub-splits; side 8 with k=3
  // exercises the deepest tessellation the small suite supports.
  const WorkloadCfg configs[] = {
      {16, 2, 1080, 1, false},
      {12, 2, 1080, 1, false},
      {8, 3, 1080, 1, false},
      {16, 2, 1080, 2, false},
      {16, 2, 1080, hw, true},  // stripe teams + relayout together
  };
  for (const WorkloadCfg& w : configs) {
    set_node_order_override(NodeOrderKind::RowMajor);
    const StepTrace row_major = run_workload(w);
    set_node_order_override(NodeOrderKind::Hilbert);
    const StepTrace hilbert = run_workload(w);
    const std::string what = "side=" + std::to_string(w.side) +
                             " k=" + std::to_string(w.k) +
                             " threads=" + std::to_string(w.threads) +
                             (w.stripe_path ? " stripes" : "");
    expect_same(row_major, hilbert, what.c_str());
  }
}

TEST_F(LayoutInvariance, SimdMatchesScalarEndToEnd) {
  const WorkloadCfg w{16, 2, 1080, 1, false};
  set_node_order_override(NodeOrderKind::Hilbert);
  simd::set_enabled(false);
  ASSERT_FALSE(simd::available());
  const StepTrace scalar = run_workload(w);
  simd::set_enabled(true);
  if (!simd::available()) {
    GTEST_SKIP() << "build or CPU has no AVX2 — scalar is the only variant";
  }
  const StepTrace vec = run_workload(w);
  expect_same(scalar, vec, "simd vs scalar");
}

// ---------------------------------------------------------------------------
// Kernel-level equivalence on random inputs (covers lane remainders and the
// record layouts the end-to-end run may not hit).

class SimdKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    simd::set_enabled(true);
    if (!simd::available()) {
      GTEST_SKIP() << "build or CPU has no AVX2 — nothing to compare";
    }
  }
  void TearDown() override { simd::set_enabled(true); }
};

TEST_F(SimdKernels, FirstKeyViolationMatchesScalar) {
  Rng rng(11);
  for (const i64 n : {0, 1, 2, 4, 5, 6, 64, 257}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<u64> recs(static_cast<size_t>(n) * 4);  // 32-byte records
      u64 key = 0;
      for (i64 i = 0; i < n; ++i) {
        // Mostly increasing with occasional plateaus/drops so the violation
        // can land at any lane of a vector block.
        const i64 roll = rng.range(0, 9);
        if (roll == 0 && key > 0) key -= 1;
        else if (roll > 2) key += static_cast<u64>(rng.range(1, 5));
        recs[static_cast<size_t>(i) * 4] = key;
      }
      simd::set_enabled(false);
      const i64 want = simd::first_key_violation(recs.data(), 32, n);
      simd::set_enabled(true);
      const i64 got = simd::first_key_violation(recs.data(), 32, n);
      EXPECT_EQ(want, got) << "n=" << n << " trial=" << trial;
    }
  }
  // Unsigned order: the hole key ~0 must compare above every real key.
  std::vector<u64> recs(8 * 4, 0);
  for (i64 i = 0; i < 7; ++i) recs[static_cast<size_t>(i) * 4] = u64(i);
  recs[7 * 4] = ~u64{0};
  simd::set_enabled(false);
  const i64 want = simd::first_key_violation(recs.data(), 32, 8);
  simd::set_enabled(true);
  EXPECT_EQ(simd::first_key_violation(recs.data(), 32, 8), want);
  EXPECT_EQ(want, 7);  // strictly increasing throughout
}

TEST_F(SimdKernels, AndBytesMatchesScalar) {
  Rng rng(13);
  for (const i64 n : {0, 1, 31, 32, 33, 100, 4096}) {
    std::vector<unsigned char> a(static_cast<size_t>(n));
    std::vector<unsigned char> b(static_cast<size_t>(n));
    for (i64 i = 0; i < n; ++i) {
      a[static_cast<size_t>(i)] = static_cast<unsigned char>(rng.range(0, 255));
      b[static_cast<size_t>(i)] = static_cast<unsigned char>(rng.range(0, 255));
    }
    std::vector<unsigned char> out_s(static_cast<size_t>(n));
    std::vector<unsigned char> out_v(static_cast<size_t>(n));
    simd::set_enabled(false);
    simd::and_bytes(out_s.data(), a.data(), b.data(), n);
    simd::set_enabled(true);
    simd::and_bytes(out_v.data(), a.data(), b.data(), n);
    EXPECT_EQ(out_s, out_v) << "n=" << n;
  }
}

}  // namespace
}  // namespace meshpram

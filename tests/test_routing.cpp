// Tests for the mesh algorithms of §2: block shearsort, group ranking,
// greedy XY routing, sort-based (l1,l2)-routing and the tessellated
// (l1,l2,δ,m)-routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "mesh/machine.hpp"
#include "mesh/parallel.hpp"
#include "routing/greedy.hpp"
#include "routing/lroute.hpp"
#include "routing/meshsort.hpp"
#include "routing/rank.hpp"
#include "routing/scan.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {
namespace {

Packet mk(u64 key, i64 var = 0, i32 origin = 0) {
  Packet p;
  p.key = key;
  p.var = var;
  p.origin = origin;
  return p;
}

/// Scatter `count` packets with random keys over the region, uneven loads.
void scatter_random(Mesh& mesh, const Region& g, i64 count, u64 key_range,
                    Rng& rng) {
  for (i64 i = 0; i < count; ++i) {
    const i64 s = rng.range(0, g.size() - 1);
    mesh.buf(mesh.node_id(g.at_snake(s)))
        .push_back(mk(rng.below(key_range), i, static_cast<i32>(s)));
  }
}

std::vector<u64> keys_in_snake_order(Mesh& mesh, const Region& g) {
  std::vector<u64> out;
  for (i64 s = 0; s < g.size(); ++s) {
    for (const Packet& p : mesh.buf(mesh.node_id(g.at_snake(s)))) {
      out.push_back(p.key);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sorting.
// ---------------------------------------------------------------------------

struct SortCase {
  int rows;
  int cols;
  i64 packets;
  u64 key_range;
};

class SortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortSweep, SortsPacksAndPreservesMultiset) {
  const auto [rows, cols, count, range] = GetParam();
  Mesh mesh(rows, cols);
  const Region g = mesh.whole();
  Rng rng(static_cast<u64>(rows * 1000003 + cols * 1009 + count));
  scatter_random(mesh, g, count, range, rng);

  std::vector<u64> before = keys_in_snake_order(mesh, g);
  std::sort(before.begin(), before.end());

  const i64 steps = sort_region(mesh, g);
  EXPECT_GE(steps, 0);
  EXPECT_TRUE(region_sorted(mesh, g));

  std::vector<u64> after = keys_in_snake_order(mesh, g);
  EXPECT_EQ(after, before);  // sorted AND multiset-preserving
  EXPECT_EQ(mesh.total_packets(g), count);
}

TEST_P(SortSweep, AnalyticModeMatchesSimulatedPlacement) {
  const auto [rows, cols, count, range] = GetParam();
  Mesh a(rows, cols), b(rows, cols);
  Rng rng1(99), rng2(99);
  scatter_random(a, a.whole(), count, range, rng1);
  scatter_random(b, b.whole(), count, range, rng2);

  const i64 sim_steps = sort_region(a, a.whole(), {SortMode::Simulated});
  const i64 ana_steps = sort_region(b, b.whole(), {SortMode::Analytic});

  // Identical canonical placement, node by node.
  for (i32 id = 0; id < a.size(); ++id) {
    const auto& ba = a.buf(id);
    const auto& bb = b.buf(id);
    ASSERT_EQ(ba.size(), bb.size()) << "node " << id;
    for (size_t i = 0; i < ba.size(); ++i) {
      EXPECT_EQ(ba[i].key, bb[i].key);
      EXPECT_EQ(ba[i].var, bb[i].var);
    }
  }
  // The analytic charge is the oblivious worst case: never below the
  // early-exit simulated cost.
  EXPECT_GE(ana_steps, sim_steps);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortSweep,
    ::testing::Values(SortCase{1, 1, 5, 10}, SortCase{1, 16, 40, 8},
                      SortCase{16, 1, 40, 1000}, SortCase{4, 4, 16, 4},
                      SortCase{8, 8, 64, 1u << 30}, SortCase{8, 8, 500, 7},
                      SortCase{7, 5, 123, 50}, SortCase{16, 16, 1000, 3},
                      SortCase{5, 9, 1, 100}, SortCase{6, 6, 0, 10}),
    [](const ::testing::TestParamInfo<SortCase>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols) + "_p" +
             std::to_string(info.param.packets);
    });

TEST(Sort, AlreadySortedIsCheap) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  for (i64 s = 0; s < g.size(); ++s) {
    mesh.buf(mesh.node_id(g.at_snake(s))).push_back(mk(static_cast<u64>(s)));
  }
  const i64 steps = sort_region(mesh, g);
  EXPECT_TRUE(region_sorted(mesh, g));
  // Early exit: far below the worst-case bound.
  EXPECT_LT(steps, shearsort_step_bound(g, 1) / 2);
}

TEST(Sort, PresortedDuplicateBoundariesCheapAndCanonical) {
  // Presorted input whose duplicate keys straddle block boundaries: every
  // merge_split sees large[0] equal (under the full comparator) or greater
  // than small[cap-1], so the early-exit fast path fires everywhere and the
  // quiet rounds terminate the sort far below the oblivious bound. The
  // early exit must not skip a required exchange: the layout has to match
  // the Analytic canonical placement bit for bit.
  Mesh sim(8, 8), ana(8, 8);
  const Region g = sim.whole();
  for (i64 s = 0; s < g.size(); ++s) {
    for (int j = 0; j < 3; ++j) {
      // Keys repeat across 8 consecutive snake positions (whole rows), so
      // every adjacent block pair shares its boundary key.
      const Packet p = mk(static_cast<u64>(s / 8), s * 3 + j,
                          static_cast<i32>(s));
      sim.buf(sim.node_id(g.at_snake(s))).push_back(p);
      ana.buf(ana.node_id(g.at_snake(s))).push_back(p);
    }
  }
  const i64 steps = sort_region(sim, g, {SortMode::Simulated});
  sort_region(ana, ana.whole(), {SortMode::Analytic});
  EXPECT_TRUE(region_sorted(sim, g));
  EXPECT_LT(steps, shearsort_step_bound(g, 3) / 2);
  for (i32 id = 0; id < sim.size(); ++id) {
    const auto& bs = sim.buf(id);
    const auto& ba = ana.buf(id);
    ASSERT_EQ(bs.size(), ba.size()) << "node " << id;
    for (size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(bs[i].key, ba[i].key) << "node " << id << " slot " << i;
      EXPECT_EQ(bs[i].var, ba[i].var) << "node " << id << " slot " << i;
    }
  }
}

TEST(Sort, CanonicalLayoutIsInvariantUnderInitialShuffle) {
  // Same multiset of packets, scattered over the region in two different
  // initial arrangements: the sorted layout must be identical node by node
  // and slot by slot (the total order breaks key ties on the payload, so
  // the result is a pure function of the multiset).
  Mesh a(8, 8), b(8, 8);
  const Region g = a.whole();
  Rng keys(271828);
  std::vector<Packet> packets;
  for (int i = 0; i < 300; ++i) {
    packets.push_back(mk(keys.below(7), i, static_cast<i32>(i % 64)));
  }
  Rng place_a(31), place_b(1042);
  for (const Packet& p : packets) {
    a.buf(a.node_id(g.at_snake(place_a.range(0, g.size() - 1)))).push_back(p);
    b.buf(b.node_id(g.at_snake(place_b.range(0, g.size() - 1)))).push_back(p);
  }
  sort_region(a, g, {SortMode::Simulated});
  sort_region(b, b.whole(), {SortMode::Simulated});
  EXPECT_TRUE(region_sorted(a, g));
  for (i32 id = 0; id < a.size(); ++id) {
    const auto& ba = a.buf(id);
    const auto& bb = b.buf(id);
    ASSERT_EQ(ba.size(), bb.size()) << "node " << id;
    for (size_t i = 0; i < ba.size(); ++i) {
      EXPECT_EQ(ba[i].key, bb[i].key) << "node " << id << " slot " << i;
      EXPECT_EQ(ba[i].var, bb[i].var) << "node " << id << " slot " << i;
      EXPECT_EQ(ba[i].origin, bb[i].origin)
          << "node " << id << " slot " << i;
    }
  }
}

TEST(Sort, ParallelRoundsMatchSerialLayout) {
  // Force the line-parallel odd-even rounds (stripe_min_nodes = 1) and check
  // the layout against a serial sort of the same input.
  Mesh ser(8, 8), par(8, 8);
  Rng r1(77), r2(77);
  scatter_random(ser, ser.whole(), 400, 1u << 20, r1);
  scatter_random(par, par.whole(), 400, 1u << 20, r2);

  set_execution_threads(1);
  const i64 steps_ser = sort_region(ser, ser.whole(), {SortMode::Simulated});
  set_execution_threads(4);
  set_stripe_min_nodes(1);
  const i64 steps_par = sort_region(par, par.whole(), {SortMode::Simulated});
  set_stripe_min_nodes(0);
  set_execution_threads(0);

  EXPECT_EQ(steps_ser, steps_par);
  for (i32 id = 0; id < ser.size(); ++id) {
    const auto& bs = ser.buf(id);
    const auto& bp = par.buf(id);
    ASSERT_EQ(bs.size(), bp.size()) << "node " << id;
    for (size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(bs[i].key, bp[i].key) << "node " << id << " slot " << i;
      EXPECT_EQ(bs[i].var, bp[i].var) << "node " << id << " slot " << i;
    }
  }
}

TEST(Sort, ReverseOrderWorstCaseStaysWithinBound) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  for (i64 s = 0; s < g.size(); ++s) {
    mesh.buf(mesh.node_id(g.at_snake(s)))
        .push_back(mk(static_cast<u64>(g.size() - s)));
  }
  const i64 steps = sort_region(mesh, g);
  EXPECT_TRUE(region_sorted(mesh, g));
  EXPECT_LE(steps, shearsort_step_bound(g, 1));
}

TEST(Sort, SubregionSortLeavesRestAlone) {
  Mesh mesh(8, 8);
  const Region sub(2, 2, 4, 4);
  Rng rng(5);
  scatter_random(mesh, sub, 50, 100, rng);
  Packet outside = mk(0);
  mesh.buf(mesh.node_id({0, 0})).push_back(outside);
  sort_region(mesh, sub);
  EXPECT_TRUE(region_sorted(mesh, sub));
  EXPECT_EQ(mesh.buf(mesh.node_id({0, 0})).size(), 1u);
}

TEST(Sort, RejectsSentinelKey) {
  Mesh mesh(2, 2);
  mesh.buf(0).push_back(mk(kHoleKey));
  EXPECT_THROW(sort_region(mesh, mesh.whole()), ConfigError);
}

TEST(Sort, StepBoundFormula) {
  // phases = ceil(log2 rows) + 1; bound = L*(phases*(R+C) + C).
  EXPECT_EQ(shearsort_step_bound(Region(0, 0, 8, 8), 1), (4 * 16 + 8));
  EXPECT_EQ(shearsort_step_bound(Region(0, 0, 8, 8), 3), 3 * (4 * 16 + 8));
  EXPECT_EQ(shearsort_step_bound(Region(0, 0, 1, 16), 2), 2 * (1 * 17 + 16));
}

// ---------------------------------------------------------------------------
// Sort oracle: every Packet field after sort_region, in both modes, against a
// reference built here — std::sort under (key, copy, var, origin, op, value),
// then packet i goes to snake position i / cap. No two input packets are
// equal on those six fields, so the reference order is unique and the
// fields outside the order (rank, dest, stash, timestamp, trail) must ride
// along with their packet.
// ---------------------------------------------------------------------------

auto sort_tuple(const Packet& p) {
  return std::tie(p.key, p.copy, p.var, p.origin, p.op, p.value);
}

bool same_packet(const Packet& a, const Packet& b) {
  return sort_tuple(a) == sort_tuple(b) && a.rank == b.rank &&
         a.dest == b.dest && a.stash == b.stash &&
         a.timestamp == b.timestamp && a.trail_len == b.trail_len &&
         a.trail == b.trail;
}

/// Packets to place in one sorted region: (node id, packet) pairs, plus the
/// packets parked outside the region, which the sort must leave alone.
struct OracleLoad {
  Region region;
  std::vector<std::pair<i32, Packet>> inside;
  std::vector<std::pair<i32, Packet>> outside;
};

/// Fills the fields the order ignores from a per-packet tag, so a packet
/// that lands in the wrong slot (or loses a field) shows up.
Packet oracle_packet(u64 key, u64 copy, i64 var, i32 origin, Op op,
                     i64 value, u64 tag) {
  Packet p;
  p.key = key;
  p.copy = copy;
  p.var = var;
  p.origin = origin;
  p.op = op;
  p.value = value;
  p.rank = tag * 7 + 1;
  p.dest = static_cast<i32>(tag % 997);
  p.stash = static_cast<i32>(tag % 31) - 1;
  p.timestamp = static_cast<i64>(tag) * 3 - 5;
  p.trail_len = static_cast<std::uint8_t>(tag % 6);
  for (std::uint8_t j = 0; j < p.trail_len; ++j) {
    p.trail[j] = static_cast<i32>(tag + j);
  }
  return p;
}

enum class KeyShape { DensePages, Sparse64, EqualRuns };

/// `count` packets with unique sort tuples on the nodes of `g` whose snake
/// position is a multiple of `stride` (stride > 1 leaves empty nodes between
/// full ones), with uneven per-node loads.
std::vector<std::pair<i32, Packet>> oracle_packets(const Mesh& mesh,
                                                   const Region& g, i64 count,
                                                   KeyShape shape, i64 stride,
                                                   u64 seed) {
  Rng rng(seed);
  std::set<std::tuple<u64, u64, i64, i32, Op, i64>> seen;
  std::vector<std::pair<i32, Packet>> out;
  const i64 slots = (g.size() + stride - 1) / stride;
  for (u64 tag = 0; static_cast<i64>(out.size()) < count; ++tag) {
    // Skewed placement: low snake slots get more packets.
    const i64 a = rng.range(0, slots - 1);
    const i64 s = std::min(a, rng.range(0, slots - 1)) * stride;
    u64 key = 0;
    u64 copy = 0;
    i64 var = 0;
    i32 origin = 0;
    i64 value = 0;
    switch (shape) {
      case KeyShape::DensePages:
        // Page-like keys; key 3 holds at least 4096 packets once count is
        // large enough.
        key = (tag % 2 == 0) ? 3 : rng.below(81);
        copy = rng.below(1u << 20);
        var = static_cast<i64>(copy / 27);
        origin = static_cast<i32>(rng.below(static_cast<u64>(mesh.size())));
        value = rng.range(-3, 3);
        break;
      case KeyShape::Sparse64:
        key = rng() >> 1;  // below kHoleKey
        copy = rng();
        var = rng.range(0, 1 << 30);
        origin = static_cast<i32>(rng.below(static_cast<u64>(mesh.size())));
        value = rng.range(0, 1 << 20);
        break;
      case KeyShape::EqualRuns:
        // Long runs of equal (key, copy); the tie falls through to var,
        // origin, op and value.
        key = rng.below(3);
        copy = rng.below(4);
        var = rng.range(0, 2);
        origin = static_cast<i32>(rng.below(8));
        value = rng.range(0, 40);
        break;
    }
    const Op op = rng.below(2) == 0 ? Op::Read : Op::Write;
    if (!seen.insert({key, copy, var, origin, op, value}).second) continue;
    out.emplace_back(mesh.node_id(g.at_snake(s)),
                     oracle_packet(key, copy, var, origin, op, value, tag));
  }
  return out;
}

/// Expected buffers of `load.region` after the sort, indexed by snake
/// position.
std::vector<std::vector<Packet>> oracle_layout(const OracleLoad& load) {
  std::vector<Packet> all;
  std::map<i32, i64> per_node;
  for (const auto& [id, p] : load.inside) {
    all.push_back(p);
    ++per_node[id];
  }
  i64 cap = 1;
  for (const auto& [id, n] : per_node) cap = std::max(cap, n);
  std::sort(all.begin(), all.end(), [](const Packet& a, const Packet& b) {
    return sort_tuple(a) < sort_tuple(b);
  });
  std::vector<std::vector<Packet>> want(
      static_cast<size_t>(load.region.size()));
  for (size_t i = 0; i < all.size(); ++i) {
    want[static_cast<size_t>(static_cast<i64>(i) / cap)].push_back(all[i]);
  }
  return want;
}

void place(Mesh& mesh, const OracleLoad& load) {
  for (const auto& [id, p] : load.inside) mesh.buf(id).push_back(p);
  for (const auto& [id, p] : load.outside) mesh.buf(id).push_back(p);
}

/// Checks every buffer of `load.region` against the reference layout and
/// the parked packets outside it.
void expect_oracle_layout(const Mesh& mesh, const OracleLoad& load,
                          const std::string& what) {
  const std::vector<std::vector<Packet>> want = oracle_layout(load);
  for (i64 s = 0; s < load.region.size(); ++s) {
    const auto& got = mesh.buf(mesh.node_id(load.region.at_snake(s)));
    const auto& exp = want[static_cast<size_t>(s)];
    ASSERT_EQ(got.size(), exp.size()) << what << " snake pos " << s;
    for (size_t j = 0; j < got.size(); ++j) {
      ASSERT_TRUE(same_packet(got[j], exp[j]))
          << what << " snake pos " << s << " slot " << j;
    }
  }
  std::map<i32, std::vector<Packet>> parked;
  for (const auto& [id, p] : load.outside) parked[id].push_back(p);
  for (const auto& [id, ps] : parked) {
    const auto& got = mesh.buf(id);
    ASSERT_EQ(got.size(), ps.size()) << what << " outside node " << id;
    for (size_t j = 0; j < got.size(); ++j) {
      ASSERT_TRUE(same_packet(got[j], ps[j]))
          << what << " outside node " << id << " slot " << j;
    }
  }
}

struct OracleScene {
  std::string name;
  int rows;
  int cols;
  /// Disjoint regions; sorted one by one from the driving thread, and all
  /// at once from inside parallel_for_regions.
  std::vector<OracleLoad> loads;
};

std::vector<OracleScene> oracle_scenes(NodeOrderKind order) {
  std::vector<OracleScene> scenes;
  const auto add_scene = [&](std::string name, int rows, int cols,
                             const std::vector<Region>& regions,
                             const std::vector<i64>& counts, KeyShape shape,
                             i64 stride) {
    const Mesh mesh(rows, cols, order);
    OracleScene sc{std::move(name), rows, cols, {}};
    for (size_t i = 0; i < regions.size(); ++i) {
      OracleLoad load;
      load.region = regions[i];
      load.inside = oracle_packets(mesh, regions[i], counts[i], shape, stride,
                                   1000 + i * 17 + static_cast<u64>(rows));
      sc.loads.push_back(std::move(load));
    }
    // Park packets on every node no region covers.
    Rng rng(42);
    for (i32 id = 0; id < mesh.size(); ++id) {
      bool covered = false;
      for (const Region& g : regions) covered |= g.contains(mesh.coord(id));
      if (covered || id % 3 != 0) continue;
      sc.loads[0].outside.emplace_back(
          id, oracle_packet(rng.below(50), rng(), id, id, Op::Read, 0,
                            static_cast<u64>(id)));
    }
    scenes.push_back(std::move(sc));
  };
  // Dense page keys whose biggest bucket holds >= 4096 packets.
  add_scene("dense_big_bucket", 32, 32, {Region(0, 0, 32, 32)}, {9000},
            KeyShape::DensePages, 1);
  // Empty nodes between full ones; N is not a multiple of cap.
  add_scene("dense_gappy", 16, 24, {Region(0, 0, 16, 24)}, {1501},
            KeyShape::DensePages, 3);
  // 64-bit keys spanning far more values than packets or nodes.
  add_scene("sparse64_large", 32, 32, {Region(0, 0, 32, 32)}, {6000},
            KeyShape::Sparse64, 1);
  add_scene("sparse64_small", 12, 20, {Region(0, 0, 12, 20)}, {333},
            KeyShape::Sparse64, 1);
  // Long runs of equal (key, copy).
  add_scene("equal_runs", 16, 16, {Region(0, 0, 16, 16)}, {5003},
            KeyShape::EqualRuns, 1);
  // Offset, non-square and one-node regions side by side; the first region
  // alone holds a >= 4096-packet bucket.
  add_scene("subregions", 16, 24,
            {Region(3, 5, 7, 11), Region(0, 17, 16, 7), Region(12, 2, 1, 1),
             Region(14, 0, 2, 1)},
            {8400, 700, 9, 5}, KeyShape::DensePages, 1);
  add_scene("subregions_runs", 16, 24,
            {Region(1, 1, 5, 9), Region(9, 12, 6, 3), Region(0, 23, 1, 1)},
            {900, 301, 6}, KeyShape::EqualRuns, 2);
  return scenes;
}

class SortOracle : public ::testing::Test {
 protected:
  void TearDown() override {
    set_stripe_min_nodes(0);
    set_execution_threads(0);
  }
};

TEST_F(SortOracle, EveryFieldMatchesStdSortReference) {
  for (const NodeOrderKind order :
       {NodeOrderKind::RowMajor, NodeOrderKind::Hilbert}) {
    for (const OracleScene& sc : oracle_scenes(order)) {
      for (const SortMode mode : {SortMode::Simulated, SortMode::Analytic}) {
        for (const int threads : {1, 2, 4}) {
          set_execution_threads(threads);
          set_stripe_min_nodes(threads > 1 ? 1 : 0);
          const std::string what =
              sc.name + (order == NodeOrderKind::Hilbert ? " hilbert" : "") +
              (mode == SortMode::Analytic ? " analytic" : " simulated") +
              " threads=" + std::to_string(threads);

          // From the driving thread, one region after another.
          Mesh serial(sc.rows, sc.cols, order);
          for (const OracleLoad& load : sc.loads) place(serial, load);
          for (const OracleLoad& load : sc.loads) {
            sort_region(serial, load.region, {mode});
          }
          for (const OracleLoad& load : sc.loads) {
            expect_oracle_layout(serial, load, what + " driver");
          }

          // From inside parallel_for_regions, every region at once.
          Mesh par(sc.rows, sc.cols, order);
          std::vector<Region> regions;
          for (const OracleLoad& load : sc.loads) {
            place(par, load);
            regions.push_back(load.region);
          }
          parallel_for_regions(par, regions, [&](const Region& g) {
            return sort_region(par, g, {mode});
          });
          for (const OracleLoad& load : sc.loads) {
            expect_oracle_layout(par, load, what + " region task");
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scan + ranking.
// ---------------------------------------------------------------------------

TEST(Scan, ExclusivePrefixSum) {
  const Region g(0, 0, 4, 4);
  std::vector<i64> vals(16);
  for (int i = 0; i < 16; ++i) vals[static_cast<size_t>(i)] = i + 1;
  const auto r =
      scan_snake<i64>(g, vals, 0, [](i64 a, i64 b) { return a + b; });
  ASSERT_EQ(r.prefix.size(), 16u);
  EXPECT_EQ(r.prefix[0], 0);
  EXPECT_EQ(r.prefix[1], 1);
  EXPECT_EQ(r.prefix[15], 15 * 16 / 2);
  EXPECT_EQ(r.steps, 2 * 4 + 4);
  EXPECT_THROW(
      scan_snake<i64>(g, std::vector<i64>(3), 0,
                      [](i64 a, i64 b) { return a + b; }),
      ConfigError);
}

TEST(Rank, RanksWithinGroupsAfterSort) {
  Mesh mesh(6, 6);
  const Region g = mesh.whole();
  Rng rng(17);
  scatter_random(mesh, g, 300, 9, rng);  // many collisions across 9 keys
  sort_region(mesh, g);
  const i64 steps = rank_within_groups(mesh, g);
  EXPECT_GT(steps, 0);

  // Every key group must carry ranks 0..groupsize-1 exactly once.
  std::map<u64, std::set<u64>> ranks;
  std::map<u64, i64> sizes;
  for (i64 s = 0; s < g.size(); ++s) {
    for (const Packet& p : mesh.buf(mesh.node_id(g.at_snake(s)))) {
      EXPECT_TRUE(ranks[p.key].insert(p.rank).second)
          << "duplicate rank " << p.rank << " in group " << p.key;
      ++sizes[p.key];
    }
  }
  for (const auto& [key, rs] : ranks) {
    EXPECT_EQ(static_cast<i64>(rs.size()), sizes[key]);
    EXPECT_EQ(*rs.begin(), 0u);
    EXPECT_EQ(*rs.rbegin(), static_cast<u64>(sizes[key] - 1));
  }
}

TEST(Rank, RequiresSortedRegion) {
  Mesh mesh(2, 2);
  mesh.buf(0).push_back(mk(5));
  mesh.buf(3).push_back(mk(1));  // descending along snake
  EXPECT_THROW(rank_within_groups(mesh, mesh.whole()), InternalError);
}

TEST(Rank, MaxGroupSize) {
  Mesh mesh(2, 2);
  mesh.buf(0).push_back(mk(1));
  mesh.buf(1).push_back(mk(1));
  mesh.buf(2).push_back(mk(1));
  mesh.buf(3).push_back(mk(2));
  EXPECT_EQ(max_group_size(mesh, mesh.whole()), 3);
}

// ---------------------------------------------------------------------------
// Greedy routing.
// ---------------------------------------------------------------------------

TEST(Greedy, SinglePacketTakesExactlyDistanceSteps) {
  Mesh mesh(8, 8);
  Packet p = mk(0);
  p.dest = mesh.node_id({5, 6});
  mesh.buf(mesh.node_id({1, 2})).push_back(p);
  const RouteStats rs = route_greedy(mesh, mesh.whole());
  EXPECT_EQ(rs.steps, manhattan({1, 2}, {5, 6}));
  EXPECT_EQ(rs.packets, 1);
  EXPECT_EQ(mesh.buf(mesh.node_id({5, 6})).size(), 1u);
}

TEST(Greedy, PermutationDeliversWithinGreedyBound) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  Rng rng(23);
  std::vector<i64> perm(static_cast<size_t>(g.size()));
  for (i64 i = 0; i < g.size(); ++i) perm[static_cast<size_t>(i)] = i;
  rng.shuffle(perm);
  for (i64 s = 0; s < g.size(); ++s) {
    Packet p = mk(0, s);
    p.dest = mesh.node_at(g, perm[static_cast<size_t>(s)]);
    mesh.buf(mesh.node_at(g, s)).push_back(p);
  }
  const RouteStats rs = route_greedy(mesh, g);
  EXPECT_EQ(rs.packets, g.size());
  for (i64 s = 0; s < g.size(); ++s) {
    const i32 id = mesh.node_at(g, s);
    ASSERT_EQ(mesh.buf(id).size(), 1u) << "node " << id;
    EXPECT_EQ(mesh.buf(id)[0].dest, id);
  }
  // Greedy XY on a permutation: never worse than a small multiple of the
  // diameter (theory: 2*sqrt(n)-2 with farthest-first on column-balanced
  // inputs; random permutations stay close to that).
  EXPECT_LE(rs.steps, 4 * (mesh.rows() + mesh.cols()));
}

TEST(Greedy, HotSpotSerializesOnReceiverLinks) {
  // All 4 neighbors + far nodes target one node: receiver has 4 in-links, so
  // steps >= ceil(packets / 4).
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  const i32 target = mesh.node_id({4, 4});
  i64 count = 0;
  for (i64 s = 0; s < g.size(); ++s) {
    const i32 id = mesh.node_at(g, s);
    if (id == target) continue;
    Packet p = mk(0, s);
    p.dest = target;
    mesh.buf(id).push_back(p);
    ++count;
  }
  const RouteStats rs = route_greedy(mesh, g);
  EXPECT_EQ(static_cast<i64>(mesh.buf(target).size()), count);
  EXPECT_GE(rs.steps, ceil_div(count, 4));
}

TEST(Greedy, PacketAlreadyAtDestinationCostsNothing) {
  Mesh mesh(4, 4);
  Packet p = mk(0);
  p.dest = 5;
  mesh.buf(5).push_back(p);
  const RouteStats rs = route_greedy(mesh, mesh.whole());
  EXPECT_EQ(rs.steps, 0);
  EXPECT_EQ(mesh.buf(5).size(), 1u);
}

TEST(Greedy, NothingInFlightCountsAndChecksEveryPacket) {
  // Every packet home: the call only reads the buffers, but still counts
  // every packet and still rejects a bad destination anywhere in the region.
  Mesh mesh(4, 4);
  for (const i32 id : {5, 5, 9, 0, 15}) {
    Packet p = mk(static_cast<u64>(id));
    p.dest = id;
    mesh.buf(id).push_back(p);
  }
  const RouteStats rs = route_greedy(mesh, mesh.whole());
  EXPECT_EQ(rs.steps, 0);
  EXPECT_EQ(rs.packets, 5);
  EXPECT_EQ(rs.total_distance, 0);
  EXPECT_EQ(mesh.buf(5).size(), 2u);

  Packet lost = mk(1);
  mesh.buf(6).push_back(lost);  // dest = -1
  EXPECT_THROW(route_greedy(mesh, mesh.whole()), ConfigError);
  mesh.buf(6).clear();
  Packet away = mk(2);
  away.dest = mesh.node_id({3, 3});
  mesh.buf(mesh.node_id({1, 1})).push_back(away);
  EXPECT_THROW(route_greedy(mesh, Region(0, 0, 2, 2)), ConfigError);
}

TEST(Greedy, RejectsDestOutsideRegion) {
  Mesh mesh(4, 4);
  Packet p = mk(0);
  p.dest = mesh.node_id({3, 3});
  mesh.buf(mesh.node_id({0, 0})).push_back(p);
  EXPECT_THROW(route_greedy(mesh, Region(0, 0, 2, 2)), ConfigError);
}

TEST(Greedy, StaysWithinSubregion) {
  // Packets in a subregion must be routed using only subregion nodes; the
  // rest of the mesh must stay untouched.
  Mesh mesh(8, 8);
  const Region sub(2, 2, 4, 4);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    Packet p = mk(0, i);
    p.dest = mesh.node_id(sub.at_snake(rng.range(0, sub.size() - 1)));
    mesh.buf(mesh.node_id(sub.at_snake(rng.range(0, sub.size() - 1))))
        .push_back(p);
  }
  const RouteStats rs = route_greedy(mesh, sub);
  EXPECT_EQ(rs.packets, 40);
  i64 inside = 0;
  for (i64 s = 0; s < sub.size(); ++s) {
    inside += static_cast<i64>(mesh.buf(mesh.node_id(sub.at_snake(s))).size());
  }
  EXPECT_EQ(inside, 40);
}

/// Routes the same workload on `region` of two rows x cols meshes, once on
/// one thread and once on a forced stripe team of `team` bands, then demands
/// bit-identical stats, node-by-node buffer layouts (delivery order included
/// -- the lane protocol must reproduce serial arrival order) and, with
/// sampling on, identical `forwarded` and `max_queue` counter grids.
void expect_striped_matches_serial(
    int rows, int cols, const Region& region, int team,
    const std::function<void(Mesh&, const Region&)>& load) {
  ASSERT_LE(team, region.rows()) << "a band holds at least one row";
  Mesh ser(rows, cols), par(rows, cols);
  load(ser, region);
  load(par, region);

#if MESHPRAM_TELEMETRY
  telemetry::set_sample_every(1);
  telemetry::set_enabled(true);
#endif
  set_execution_threads(1);
  const RouteStats ss = route_greedy(ser, region);
  set_execution_threads(team);
  set_stripe_min_nodes(1);
  const RouteStats sp = route_greedy(par, region);
  set_stripe_min_nodes(0);
  set_execution_threads(0);
#if MESHPRAM_TELEMETRY
  telemetry::set_enabled(false);
  telemetry::clear();
#endif

  const std::string where = "region " + std::to_string(region.r0()) + "," +
                            std::to_string(region.c0()) + " " +
                            std::to_string(region.rows()) + "x" +
                            std::to_string(region.cols()) +
                            " team " + std::to_string(team);
  EXPECT_GT(ss.steps, 0) << where;
  EXPECT_EQ(ss.steps, sp.steps) << where;
  EXPECT_EQ(ss.max_queue, sp.max_queue) << where;
  EXPECT_EQ(ss.packets, sp.packets) << where;
  EXPECT_EQ(ss.total_distance, sp.total_distance) << where;
  for (i32 id = 0; id < ser.size(); ++id) {
    const auto& bs = ser.buf(id);
    const auto& bp = par.buf(id);
    ASSERT_EQ(bs.size(), bp.size()) << where << " node " << id;
    for (size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(bs[i].var, bp[i].var) << where << " node " << id << " slot "
                                      << i;
      EXPECT_EQ(bs[i].dest, bp[i].dest) << where << " node " << id
                                        << " slot " << i;
    }
  }
#if MESHPRAM_TELEMETRY
  EXPECT_EQ(ser.counters().forwarded(), par.counters().forwarded()) << where;
  EXPECT_EQ(ser.counters().max_queue(), par.counters().max_queue()) << where;
#endif
}

/// `count` packets between random nodes of the region.
void load_random(Mesh& mesh, const Region& g, int count, u64 seed) {
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    Packet p = mk(0, i);
    p.dest = mesh.node_at(g, rng.range(0, g.size() - 1));
    mesh.buf(mesh.node_at(g, rng.range(0, g.size() - 1))).push_back(p);
  }
}

TEST(Greedy, StripedRandomTrafficMatchesSerial) {
  expect_striped_matches_serial(16, 16, Region(0, 0, 16, 16), 4,
                                [](Mesh& mesh, const Region&) {
    Rng rng(4242);
    for (int i = 0; i < 800; ++i) {
      Packet p = mk(0, i);
      p.dest = static_cast<i32>(rng.range(0, mesh.size() - 1));
      mesh.buf(static_cast<i32>(rng.range(0, mesh.size() - 1))).push_back(p);
    }
  });
}

TEST(Greedy, StripedHotSpotMatchesSerial) {
  // Every node fires 8 packets at 4 targets in one row: arrival queues blow
  // far past the initial arena capacity, so the band arenas grow many times.
  // The layout must still match serial exactly.
  expect_striped_matches_serial(16, 16, Region(0, 0, 16, 16), 4,
                                [](Mesh& mesh, const Region&) {
    int i = 0;
    for (i32 id = 0; id < mesh.size(); ++id) {
      for (int j = 0; j < 8; ++j) {
        Packet p = mk(0, i++);
        p.dest = mesh.node_id({7, static_cast<int>(6 + (id + j) % 4)});
        mesh.buf(id).push_back(p);
      }
    }
  });
}

TEST(Greedy, StripedBandsMatchSerialOnOffsetRegions) {
  // Band edges on odd rows of the region, one-row bands, and regions whose
  // first row is odd in the mesh: a band must drain its lanes by the routing
  // region's row parity while it addresses its own arena by its own snake.
  // Same-column traffic moves only vertically, so nearly every packet
  // crosses band edges, several per route.
  const int rows = 14, cols = 13;
  const Region regions[] = {Region(0, 0, rows, cols), Region(3, 2, 9, 7),
                            Region(5, 1, 3, 11), Region(7, 4, 2, 8)};
  const auto random = [](Mesh& mesh, const Region& g) {
    load_random(mesh, g, static_cast<int>(4 * g.size()),
                static_cast<u64>(1000 + g.r0()));
  };
  const auto same_column = [](Mesh& mesh, const Region& g) {
    Rng rng(77);
    int i = 0;
    for (i64 s = 0; s < g.size(); ++s) {
      const Coord at = g.at_snake(s);
      for (int j = 0; j < 3; ++j) {
        Packet p = mk(0, i++);
        p.dest = mesh.node_id(
            {g.r0() + static_cast<int>(rng.range(0, g.rows() - 1)), at.c});
        mesh.buf(mesh.node_id(at)).push_back(p);
      }
    }
  };
  for (const Region& g : regions) {
    for (const int team : {2, 3, 4}) {
      if (team > g.rows()) continue;
      expect_striped_matches_serial(rows, cols, g, team, random);
      expect_striped_matches_serial(rows, cols, g, team, same_column);
    }
  }
}

TEST(Greedy, ArenaGrowMatchesPreGrownArena) {
  // Adversarial convergence burst: every node fires 6 packets at a 2-node
  // hot spot, so arrival queues overflow the initial arena layout (setup
  // depth 6 + default headroom 2) and the in-place grow path runs. A second
  // mesh routes the identical workload with the arena pre-grown far past the
  // peak queue (headroom 512, grow never triggers); stats and node-by-node
  // delivery order must be bit-identical.
  const auto load = [](Mesh& mesh) {
    int i = 0;
    for (i32 id = 0; id < mesh.size(); ++id) {
      for (int j = 0; j < 6; ++j) {
        Packet p = mk(0, i++, id);
        p.dest = mesh.node_id({4, 4 + (id + j) % 2});
        mesh.buf(id).push_back(p);
      }
    }
  };
  Mesh grown(8, 8), pre(8, 8);
  load(grown);
  load(pre);

  ASSERT_EQ(route_initial_headroom(), 2);  // default: grow path will trigger
  const RouteStats gs = route_greedy(grown, grown.whole());
  // Peak queue beyond setup depth + headroom proves the arena actually grew.
  ASSERT_GT(gs.max_queue, 6 + 2);

  set_route_initial_headroom(512);
  const RouteStats ps = route_greedy(pre, pre.whole());
  set_route_initial_headroom(2);

  EXPECT_EQ(gs.steps, ps.steps);
  EXPECT_EQ(gs.max_queue, ps.max_queue);
  EXPECT_EQ(gs.packets, ps.packets);
  EXPECT_EQ(gs.total_distance, ps.total_distance);
  for (i32 id = 0; id < grown.size(); ++id) {
    const auto& bg = grown.buf(id);
    const auto& bp = pre.buf(id);
    ASSERT_EQ(bg.size(), bp.size()) << "node " << id;
    for (size_t i = 0; i < bg.size(); ++i) {
      EXPECT_EQ(bg[i].var, bp[i].var) << "node " << id << " slot " << i;
      EXPECT_EQ(bg[i].origin, bp[i].origin) << "node " << id << " slot " << i;
    }
  }
}

TEST(Greedy, ArenaGrowUnderStripesMatchesPreGrown) {
  // Same adversarial burst on a forced stripe team: each band grows its own
  // arena in place. Pre-growing must again change nothing.
  Mesh grown(16, 16), pre(16, 16);
  const auto load = [](Mesh& mesh) {
    int i = 0;
    for (i32 id = 0; id < mesh.size(); ++id) {
      for (int j = 0; j < 6; ++j) {
        Packet p = mk(0, i++, id);
        p.dest = mesh.node_id({8, 7 + (id + j) % 2});
        mesh.buf(id).push_back(p);
      }
    }
  };
  load(grown);
  load(pre);

  set_execution_threads(4);
  set_stripe_min_nodes(1);
  const RouteStats gs = route_greedy(grown, grown.whole());
  ASSERT_GT(gs.max_queue, 6 + 2);
  set_route_initial_headroom(1024);
  const RouteStats ps = route_greedy(pre, pre.whole());
  set_route_initial_headroom(2);
  set_stripe_min_nodes(0);
  set_execution_threads(0);

  EXPECT_EQ(gs.steps, ps.steps);
  EXPECT_EQ(gs.max_queue, ps.max_queue);
  for (i32 id = 0; id < grown.size(); ++id) {
    const auto& bg = grown.buf(id);
    const auto& bp = pre.buf(id);
    ASSERT_EQ(bg.size(), bp.size()) << "node " << id;
    for (size_t i = 0; i < bg.size(); ++i) {
      EXPECT_EQ(bg[i].origin, bp[i].origin) << "node " << id << " slot " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// (l1,l2)-routing strategies.
// ---------------------------------------------------------------------------

TEST(LRoute, SortedRoutingDeliversEverything) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    Packet p = mk(0, i);
    p.dest = mesh.node_at(g, rng.range(0, g.size() - 1));
    mesh.buf(mesh.node_at(g, rng.range(0, g.size() - 1))).push_back(p);
  }
  const auto st = route_sorted(mesh, g);
  EXPECT_GT(st.sort_steps, 0);
  EXPECT_GT(st.route_steps, 0);
  i64 delivered = 0;
  for (i32 id = 0; id < mesh.size(); ++id) {
    for (const Packet& p : mesh.buf(id)) {
      EXPECT_EQ(p.dest, id);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 200);
}

TEST(LRoute, TwoStageDeliversAndBalancesIntermediateLoad) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  const auto subs = g.grid_split(4);  // 4x 4x4 quadrants
  Rng rng(53);
  // Skewed: every packet goes to quadrant 0 (the tessellated case where
  // sort+rank balancing matters).
  for (int i = 0; i < 160; ++i) {
    Packet p = mk(0, i);
    p.dest = mesh.node_id(subs[0].at_snake(rng.range(0, 3)));  // 4 hot nodes
    mesh.buf(mesh.node_at(g, rng.range(0, g.size() - 1))).push_back(p);
  }
  const auto st = route_two_stage(mesh, g, subs);
  EXPECT_GT(st.sort_steps, 0);
  EXPECT_GT(st.rank_steps, 0);
  i64 delivered = 0;
  for (i32 id = 0; id < mesh.size(); ++id) {
    for (const Packet& p : mesh.buf(id)) {
      EXPECT_EQ(p.dest, id);
      EXPECT_EQ(p.stash, -1);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 160);
}

TEST(LRoute, TwoStageRejectsUncoveredDestination) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  // Tessellation covering only the top half.
  const std::vector<Region> subs{Region(0, 0, 4, 8)};
  Packet p = mk(0);
  p.dest = mesh.node_id({6, 6});
  mesh.buf(0).push_back(p);
  EXPECT_THROW(route_two_stage(mesh, g, subs), ConfigError);
}

TEST(LRoute, DirectEqualsGreedy) {
  Mesh a(6, 6), b(6, 6);
  Rng r1(7), r2(7);
  for (int i = 0; i < 60; ++i) {
    Packet p = mk(0, i);
    p.dest = static_cast<i32>(r1.range(0, a.size() - 1));
    a.buf(static_cast<i32>(r1.range(0, a.size() - 1))).push_back(p);
    Packet q = mk(0, i);
    q.dest = static_cast<i32>(r2.range(0, b.size() - 1));
    b.buf(static_cast<i32>(r2.range(0, b.size() - 1))).push_back(q);
  }
  const auto sa = route_direct(a, a.whole());
  const RouteStats sb = route_greedy(b, b.whole());
  EXPECT_EQ(sa.route_steps, sb.steps);
  EXPECT_EQ(sa.steps, sb.steps);
}

}  // namespace
}  // namespace meshpram

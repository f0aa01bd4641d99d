// Tests for the HMOS: level parameters, constructive memory map, and the
// physical placement onto the mesh (§3.1, §3.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "hmos/memory_map.hpp"
#include "hmos/params.hpp"
#include "hmos/placement.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace meshpram {
namespace {

TEST(Params, LevelSequenceMatchesPaper) {
  // n = 1024 (32x32), M = 4096, q = 3, k = 2:
  // f(4) = 1080 < 4096 <= f(5) = 9801 -> d1 = 5, m1 = 243;
  // d2 = ceil(5/2)+1 = 4... no: ceil(5/2) = 3, +1 = 4 -> m2 = 81.
  HmosParams p(3, 2, 4096, 32, 32);
  EXPECT_EQ(p.level(1).d, 5);
  EXPECT_EQ(p.level(1).modules, 243);
  EXPECT_EQ(p.level(2).d, 4);
  EXPECT_EQ(p.level(2).modules, 81);
  EXPECT_EQ(p.redundancy(), 9);
  EXPECT_EQ(p.level(1).pages, 3 * 243);
  EXPECT_EQ(p.level(2).pages, 81);
  EXPECT_NEAR(p.alpha(), std::log(4096.0) / std::log(1024.0), 1e-12);
}

TEST(Params, DeeperHierarchies) {
  HmosParams p(3, 3, 100000, 64, 64);
  // f(6) = 88452 < 100000 <= f(7) -> d1 = 7; d2 = ceil(7/2)+1 = 5;
  // d3 = ceil(5/2)+1 = 4.
  EXPECT_EQ(p.level(1).d, 7);
  EXPECT_EQ(p.level(2).d, 5);
  EXPECT_EQ(p.level(3).d, 4);
  EXPECT_EQ(p.redundancy(), 27);
  EXPECT_EQ(p.level(3).modules, 81);
}

TEST(Params, CullingThresholds) {
  HmosParams p(3, 2, 4096, 32, 32);
  // tau_i = 2 * q^k * n^{1 - 1/2^i}, n = 1024.
  EXPECT_EQ(p.culling_threshold(1), static_cast<i64>(2 * 9 * 32));  // n^{1/2}
  EXPECT_EQ(p.culling_threshold(2),
            static_cast<i64>(std::floor(2 * 9 * std::pow(1024.0, 0.75))));
  EXPECT_EQ(p.theorem3_bound(1), 2 * p.culling_threshold(1));
  EXPECT_THROW(p.culling_threshold(0), ConfigError);
  EXPECT_THROW(p.culling_threshold(3), ConfigError);
}

TEST(Params, MajorityAndExtensive) {
  EXPECT_EQ(HmosParams(3, 1, 64, 8, 8).majority(), 2);
  EXPECT_EQ(HmosParams(3, 1, 64, 8, 8).extensive(), 3);
  EXPECT_EQ(HmosParams(5, 1, 256, 16, 16).majority(), 3);
  EXPECT_EQ(HmosParams(5, 1, 256, 16, 16).extensive(), 4);
}

TEST(Params, RejectsInvalidConfigs) {
  EXPECT_THROW(HmosParams(2, 2, 4096, 32, 32), ConfigError);  // q = 2
  EXPECT_THROW(HmosParams(6, 2, 4096, 32, 32), ConfigError);  // not prime pow
  EXPECT_THROW(HmosParams(3, 0, 4096, 32, 32), ConfigError);  // k < 1
  EXPECT_THROW(HmosParams(3, 7, i64{1} << 40, 32, 32), ConfigError);  // k > 6
  EXPECT_THROW(HmosParams(3, 2, 100, 32, 32), ConfigError);   // M < n
  // More level-k modules than mesh nodes: M huge on a tiny mesh.
  EXPECT_THROW(HmosParams(3, 1, 1000000, 4, 4), ConfigError);
}

class MapFixture : public ::testing::Test {
 protected:
  MapFixture() : params_(3, 2, 4096, 32, 32), map_(params_) {}
  HmosParams params_;
  MemoryMap map_;
};

TEST_F(MapFixture, CopyIdRoundTrip) {
  Rng rng(8);
  for (int t = 0; t < 200; ++t) {
    const i64 var = rng.range(0, params_.num_vars() - 1);
    std::vector<i64> choices(2);
    choices[0] = rng.range(0, 2);
    choices[1] = rng.range(0, 2);
    const u64 id = map_.copy_id(var, choices);
    EXPECT_EQ(map_.variable_of(id), var);
    EXPECT_EQ(map_.choices_of(id), choices);
  }
}

TEST_F(MapFixture, ModulePathsFollowLevelGraphs) {
  Rng rng(9);
  for (int t = 0; t < 100; ++t) {
    const i64 var = rng.range(0, params_.num_vars() - 1);
    for (i64 c1 = 0; c1 < 3; ++c1) {
      for (i64 c2 = 0; c2 < 3; ++c2) {
        const u64 id = map_.copy_id(var, {c1, c2});
        const auto path = map_.module_path(id);
        ASSERT_EQ(path.size(), 2u);
        EXPECT_EQ(path[0], map_.graph(1).neighbor(var, c1));
        EXPECT_EQ(path[1], map_.graph(2).neighbor(path[0], c2));
        EXPECT_TRUE(map_.graph(1).adjacent(var, path[0]));
        EXPECT_TRUE(map_.graph(2).adjacent(path[0], path[1]));
        EXPECT_EQ(map_.module_at(id, 1), path[0]);
        EXPECT_EQ(map_.module_at(id, 2), path[1]);
      }
    }
  }
}

TEST_F(MapFixture, CopiesSpreadOverDistinctModules) {
  // The q copies of any variable go to q distinct level-1 modules, and the
  // q pages of any level-1 module go to q distinct level-2 modules.
  Rng rng(10);
  for (int t = 0; t < 100; ++t) {
    const i64 var = rng.range(0, params_.num_vars() - 1);
    std::set<i64> l1;
    for (i64 c = 0; c < 3; ++c) l1.insert(map_.graph(1).neighbor(var, c));
    EXPECT_EQ(l1.size(), 3u);
  }
  for (i64 u = 0; u < params_.level(1).modules; u += 17) {
    std::set<i64> l2;
    for (i64 c = 0; c < 3; ++c) l2.insert(map_.graph(2).neighbor(u, c));
    EXPECT_EQ(l2.size(), 3u);
  }
}

TEST_F(MapFixture, GraphShapesMatchParams) {
  EXPECT_EQ(map_.graph(1).num_inputs(), params_.num_vars());
  EXPECT_EQ(map_.graph(1).num_outputs(), params_.level(1).modules);
  EXPECT_EQ(map_.graph(2).num_inputs(), params_.level(1).modules);
  EXPECT_EQ(map_.graph(2).num_outputs(), params_.level(2).modules);
  EXPECT_EQ(map_.total_copies(), 4096 * 9);
}

TEST_F(MapFixture, RejectsOutOfRange) {
  EXPECT_THROW(map_.copy_id(-1, {0, 0}), ConfigError);
  EXPECT_THROW(map_.copy_id(4096, {0, 0}), ConfigError);
  EXPECT_THROW(map_.copy_id(0, {0}), ConfigError);
  EXPECT_THROW(map_.copy_id(0, {3, 0}), ConfigError);
  EXPECT_THROW(map_.graph(0), ConfigError);
  EXPECT_THROW(map_.graph(3), ConfigError);
}

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

class PlacementFixture : public ::testing::Test {
 protected:
  PlacementFixture()
      : params_(3, 2, 4096, 32, 32), map_(params_),
        placement_(map_, Region(0, 0, 32, 32)) {}
  HmosParams params_;
  MemoryMap map_;
  Placement placement_;
};

TEST_F(PlacementFixture, NotDegradedAtThisScale) {
  // 32x32 with M = 4096: q^{k-1} * m1 = 729 <= 1024 nodes.
  EXPECT_FALSE(placement_.degraded());
}

TEST_F(PlacementFixture, LevelKRegionsAreDisjoint) {
  std::set<std::pair<int, int>> covered;
  for (const PageInfo& page : placement_.pages(2)) {
    for (i64 s = 0; s < page.region.size(); ++s) {
      const Coord x = page.region.at_snake(s);
      EXPECT_TRUE(covered.insert({x.r, x.c}).second) << "overlap at " << x;
    }
  }
  EXPECT_LE(static_cast<i64>(covered.size()), 1024);
}

TEST_F(PlacementFixture, ChildRegionsNestInParents) {
  const auto& l1 = placement_.pages(1);
  const auto& l2 = placement_.pages(2);
  for (const PageInfo& page : l1) {
    ASSERT_GE(page.parent, 0);
    const Region& parent = l2[static_cast<size_t>(page.parent)].region;
    for (i64 s = 0; s < page.region.size(); ++s) {
      EXPECT_TRUE(parent.contains(page.region.at_snake(s)));
    }
  }
}

TEST_F(PlacementFixture, PageCountsMatchParams) {
  EXPECT_EQ(static_cast<i64>(placement_.pages(1).size()),
            params_.level(1).pages);
  EXPECT_EQ(static_cast<i64>(placement_.pages(2).size()),
            params_.level(2).pages);
}

TEST_F(PlacementFixture, EveryLevel1ModuleHasQPagesInDistinctParents) {
  std::map<i64, std::set<i64>> parents_of_module;
  for (const PageInfo& page : placement_.pages(1)) {
    parents_of_module[page.module].insert(
        placement_.pages(2)[static_cast<size_t>(page.parent)].module);
  }
  for (const auto& [module, parents] : parents_of_module) {
    EXPECT_EQ(parents.size(), 3u) << "module " << module;
  }
}

TEST_F(PlacementFixture, LocateIsConsistent) {
  Rng rng(11);
  for (int t = 0; t < 300; ++t) {
    const i64 var = rng.range(0, params_.num_vars() - 1);
    const u64 id = map_.copy_id(var, {rng.range(0, 2), rng.range(0, 2)});
    const CopyLoc loc = placement_.locate(id);
    const auto path = map_.module_path(id);
    ASSERT_EQ(path.size(), 2u);
    // Page modules along the descent match the module path.
    EXPECT_EQ(placement_.pages(1)[static_cast<size_t>(loc.page[0])].module,
              path[0]);
    EXPECT_EQ(placement_.pages(2)[static_cast<size_t>(loc.page[1])].module,
              path[1]);
    // The node lies inside the level-1 page region, which lies inside the
    // level-2 page region.
    const Region& r1 =
        placement_.pages(1)[static_cast<size_t>(loc.page[0])].region;
    const Region& r2 =
        placement_.pages(2)[static_cast<size_t>(loc.page[1])].region;
    EXPECT_TRUE(r1.contains(loc.node));
    EXPECT_TRUE(r2.contains(loc.node));
    EXPECT_EQ(placement_.page_at(id, 1), loc.page[0]);
    EXPECT_EQ(placement_.page_at(id, 2), loc.page[1]);
  }
}

TEST_F(PlacementFixture, DistinctCopiesOfAVariableOnDistinctNodes) {
  // The 9 copies of a variable live in 9 distinct (module, page) slots;
  // in the non-degraded regime they should land on >= q distinct nodes.
  Rng rng(12);
  for (int t = 0; t < 50; ++t) {
    const i64 var = rng.range(0, params_.num_vars() - 1);
    std::set<std::pair<int, int>> nodes;
    std::set<u64> slots;
    for (i64 c1 = 0; c1 < 3; ++c1) {
      for (i64 c2 = 0; c2 < 3; ++c2) {
        const CopyLoc loc = placement_.locate(map_.copy_id(var, {c1, c2}));
        nodes.insert({loc.node.r, loc.node.c});
        slots.insert((static_cast<u64>(loc.page[0]) << 20) ^
                     static_cast<u64>(loc.node.r * 1000 + loc.node.c));
      }
    }
    EXPECT_GE(nodes.size(), 3u) << "var " << var;
    EXPECT_EQ(slots.size(), 9u) << "var " << var;
  }
}

TEST_F(PlacementFixture, StorageIsBalancedAcrossNodes) {
  // Count copies per node over a sample of variables; no node should carry
  // more than a small multiple of the average.
  std::map<std::pair<int, int>, i64> per_node;
  const i64 sample = 500;
  Rng rng(13);
  for (i64 t = 0; t < sample; ++t) {
    const i64 var = rng.range(0, params_.num_vars() - 1);
    for (i64 c1 = 0; c1 < 3; ++c1) {
      for (i64 c2 = 0; c2 < 3; ++c2) {
        const CopyLoc loc = placement_.locate(map_.copy_id(var, {c1, c2}));
        ++per_node[{loc.node.r, loc.node.c}];
      }
    }
  }
  const double avg = static_cast<double>(sample * 9) / 1024.0;
  i64 worst = 0;
  for (const auto& [node, cnt] : per_node) worst = std::max(worst, cnt);
  EXPECT_LE(static_cast<double>(worst), 8.0 * avg + 8.0);
}

TEST(PlacementDegraded, PacksPagesWhenMeshIsTooSmall) {
  // 8x8 mesh with M = 1080 (d1 = 4, m1 = 81, level-1 pages = 243 > 64).
  HmosParams params(3, 2, 1080, 8, 8);
  MemoryMap map(params);
  Placement placement(map, Region(0, 0, 8, 8));
  EXPECT_TRUE(placement.degraded());
  // Still: every copy locatable, inside its level-2 page region.
  Rng rng(14);
  for (int t = 0; t < 200; ++t) {
    const i64 var = rng.range(0, params.num_vars() - 1);
    const u64 id = map.copy_id(var, {rng.range(0, 2), rng.range(0, 2)});
    const CopyLoc loc = placement.locate(id);
    const Region& r2 =
        placement.pages(2)[static_cast<size_t>(loc.page[1])].region;
    EXPECT_TRUE(r2.contains(loc.node));
  }
}

struct WalkConfig {
  i64 q;
  int k;
  i64 vars;
  int rows;
  int cols;
};

TEST(PlacementWalk, CopyTreeWalkMatchesPerCopyLookups) {
  // Every code of sampled variables: the walk's page at each level equals
  // page_at() and locate().page, and its holder equals locate().node.
  // Square and non-square meshes, with and without t_i < 1 packing.
  const WalkConfig configs[] = {
      {3, 1, 117, 8, 8},      {3, 2, 4096, 32, 32}, {3, 2, 1080, 16, 24},
      {3, 3, 1080, 32, 32},   {3, 3, 1080, 24, 40}, {3, 3, 100000, 64, 64},
      {3, 2, 1080, 8, 8},     {4, 1, 320, 8, 8},    {4, 2, 1344, 12, 20},
      {4, 3, 5000, 16, 16},   {5, 1, 750, 12, 12},  {5, 2, 3875, 20, 12},
      {5, 3, 3875, 16, 16},
  };
  int degraded = 0;
  for (const WalkConfig& cfg : configs) {
    HmosParams params(cfg.q, cfg.k, cfg.vars, cfg.rows, cfg.cols);
    MemoryMap map(params);
    Placement placement(map, Region(0, 0, cfg.rows, cfg.cols));
    if (placement.degraded()) ++degraded;
    const i64 red = params.redundancy();
    std::vector<i32> pages(static_cast<size_t>(cfg.k * red), -1);
    std::vector<i32> holders(static_cast<size_t>(red), -1);
    Rng rng(static_cast<u64>(cfg.q * 1000 + cfg.k * 100 + cfg.rows));
    std::vector<i64> vars = {0, params.num_vars() - 1};
    for (int t = 0; t < 20; ++t) {
      vars.push_back(rng.range(0, params.num_vars() - 1));
    }
    for (const i64 var : vars) {
      placement.walk_copies(var, pages.data(), holders.data());
      for (i64 code = 0; code < red; ++code) {
        const u64 copy =
            static_cast<u64>(var) * static_cast<u64>(red) +
            static_cast<u64>(code);
        const CopyLoc loc = placement.locate(copy);
        for (int level = 1; level <= cfg.k; ++level) {
          const i64 walked =
              pages[static_cast<size_t>((level - 1) * red + code)];
          ASSERT_EQ(walked, placement.page_at(copy, level))
              << "q=" << cfg.q << " k=" << cfg.k << ' ' << cfg.rows << 'x'
              << cfg.cols << " var=" << var << " code=" << code
              << " level=" << level;
          ASSERT_EQ(walked, loc.page[static_cast<size_t>(level - 1)]);
        }
        ASSERT_EQ(holders[static_cast<size_t>(code)],
                  loc.node.r * cfg.cols + loc.node.c)
            << "q=" << cfg.q << " k=" << cfg.k << ' ' << cfg.rows << 'x'
            << cfg.cols << " var=" << var << " code=" << code;
      }
    }
  }
  EXPECT_GT(degraded, 0);
  EXPECT_LT(degraded, static_cast<int>(std::size(configs)));
}

}  // namespace
}  // namespace meshpram

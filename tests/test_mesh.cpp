// Tests for the mesh machine substrate: regions, snake order, grid splits,
// buffers/stores, step accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mesh/machine.hpp"
#include "mesh/region.hpp"
#include "mesh/step_counter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace meshpram {
namespace {

TEST(Geometry, ManhattanAndSteps) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({2, 2}, {2, 2}), 0);
  EXPECT_EQ(step_toward({1, 1}, Dir::North), (Coord{0, 1}));
  EXPECT_EQ(step_toward({1, 1}, Dir::South), (Coord{2, 1}));
  EXPECT_EQ(step_toward({1, 1}, Dir::East), (Coord{1, 2}));
  EXPECT_EQ(step_toward({1, 1}, Dir::West), (Coord{1, 0}));
}

TEST(Region, SnakeRoundTripAndAdjacency) {
  for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 7}, {7, 1}, {3, 5}, {5, 3}, {8, 8}}) {
    const Region g(2, 3, rows, cols);
    std::set<std::pair<int, int>> seen;
    Coord prev{};
    for (i64 s = 0; s < g.size(); ++s) {
      const Coord x = g.at_snake(s);
      EXPECT_TRUE(g.contains(x));
      EXPECT_EQ(g.snake_of(x), s);
      seen.insert({x.r, x.c});
      if (s > 0) {
        // Consecutive snake positions are mesh neighbors.
        EXPECT_EQ(manhattan(prev, x), 1)
            << rows << 'x' << cols << " at s=" << s;
      }
      prev = x;
    }
    EXPECT_EQ(static_cast<i64>(seen.size()), g.size());
  }
}

TEST(Region, RejectsOutOfRange) {
  const Region g(0, 0, 4, 4);
  EXPECT_THROW(g.at_snake(-1), ConfigError);
  EXPECT_THROW(g.at_snake(16), ConfigError);
  EXPECT_THROW(g.snake_of({4, 0}), ConfigError);
  EXPECT_THROW(Region(0, 0, 0, 3), ConfigError);
}

TEST(Region, GridSplitPartitionProperties) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const int rows = static_cast<int>(rng.range(1, 20));
    const int cols = static_cast<int>(rng.range(1, 20));
    const Region g(static_cast<int>(rng.range(0, 5)),
                   static_cast<int>(rng.range(0, 5)), rows, cols);
    const i64 k = rng.range(1, g.size());
    const auto subs = g.grid_split(k);
    ASSERT_EQ(static_cast<i64>(subs.size()), k);
    // Disjoint, contained, non-empty.
    std::set<std::pair<int, int>> covered;
    i64 total = 0;
    for (const Region& sub : subs) {
      EXPECT_GE(sub.size(), 1);
      total += sub.size();
      for (i64 s = 0; s < sub.size(); ++s) {
        const Coord x = sub.at_snake(s);
        EXPECT_TRUE(g.contains(x));
        EXPECT_TRUE(covered.insert({x.r, x.c}).second)
            << "overlap at " << x << " (k=" << k << ", region " << g << ")";
      }
    }
    EXPECT_LE(total, g.size());
    // Near-even: largest subregion is at most a small multiple of the
    // average (proportional cuts keep areas within a factor ~4).
    i64 largest = 0;
    for (const Region& sub : subs) largest = std::max(largest, sub.size());
    EXPECT_LE(largest, 4 * ceil_div(g.size(), k) + 4)
        << "k=" << k << " region " << g;
  }
}

TEST(Region, GridSplitExactTilings) {
  const Region g(0, 0, 8, 8);
  for (i64 k : {1, 2, 4, 8, 16, 32, 64}) {
    const auto subs = g.grid_split(k);
    i64 total = 0;
    for (const auto& sub : subs) total += sub.size();
    EXPECT_EQ(total, 64) << "k=" << k;  // powers of two tile exactly
  }
}

TEST(Region, GridSplitRejectsBadK) {
  const Region g(0, 0, 3, 3);
  EXPECT_THROW(g.grid_split(0), ConfigError);
  EXPECT_THROW(g.grid_split(10), ConfigError);
}

TEST(Mesh, NodeIdRoundTrip) {
  Mesh mesh(5, 7);
  EXPECT_EQ(mesh.size(), 35);
  for (i32 id = 0; id < mesh.size(); ++id) {
    EXPECT_EQ(mesh.node_id(mesh.coord(id)), id);
  }
  EXPECT_THROW(mesh.coord(35), ConfigError);
  EXPECT_THROW(mesh.node_id({5, 0}), ConfigError);
}

TEST(Mesh, BuffersAndLoads) {
  Mesh mesh(4, 4);
  const Region g = mesh.whole();
  EXPECT_EQ(mesh.total_packets(g), 0);
  Packet p;
  p.key = 1;
  mesh.buf(0).push_back(p);
  mesh.buf(0).push_back(p);
  mesh.buf(5).push_back(p);
  EXPECT_EQ(mesh.total_packets(g), 3);
  EXPECT_EQ(mesh.max_load(g), 2);
  const Region corner(0, 0, 1, 1);
  EXPECT_EQ(mesh.total_packets(corner), 2);
  mesh.clear_buffers();
  EXPECT_EQ(mesh.total_packets(g), 0);
}

TEST(Mesh, StoresPersistAcrossBufferClears) {
  Mesh mesh(2, 2);
  mesh.store(3)[42] = CopySlot{7, 1};
  mesh.clear_buffers();
  EXPECT_EQ(mesh.store(3)[42].value, 7);
  EXPECT_EQ(mesh.store(3)[42].timestamp, 1);
}

TEST(StepCounter, AggregatesByPhase) {
  StepCounter c;
  c.add("sort", 10);
  c.add("route", 5);
  c.add("sort", 3);
  EXPECT_EQ(c.total(), 18);
  EXPECT_EQ(c.by_phase().at("sort"), 13);
  EXPECT_EQ(c.by_phase().at("route"), 5);
  EXPECT_THROW(c.add("x", -1), ConfigError);
  c.reset();
  EXPECT_EQ(c.total(), 0);
}

TEST(StepCounter, ParallelCostTakesMax) {
  ParallelCost pc;
  pc.observe(3);
  pc.observe(10);
  pc.observe(5);
  EXPECT_EQ(pc.max(), 10);
  EXPECT_THROW(pc.observe(-1), ConfigError);
}

TEST(Packet, TrailPushBounded) {
  Packet p;
  for (int i = 0; i < 8; ++i) p.push_trail(i);
  EXPECT_EQ(p.trail_len, 8);
  EXPECT_EQ(p.trail[0], 0);
  EXPECT_EQ(p.trail[7], 7);
  EXPECT_THROW(p.push_trail(8), InternalError);  // overflow is a bug
}

}  // namespace
}  // namespace meshpram

// EXP-MAP — §3.1: the memory map is constructive and space-efficient.
//
// Times the variable -> copy-address computation (module path + physical
// node) as the shared memory grows: the cost is O(k * d) = O(k log M) field
// operations with O(1) per-processor state, versus the Omega(M)-sized
// explicit tables a random-graph MOS needs [Her90a]. A second table times
// one walk down a variable's copy tree (all q^k addresses, as CULLING's
// per-step copy table fills them) against q^k separate locate() calls.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "hmos/memory_map.hpp"
#include "hmos/placement.hpp"
#include "recorder.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace meshpram;
using benchutil::BenchRecorder;
using benchutil::WallTimer;

namespace {

struct Stack {
  HmosParams params;
  MemoryMap map;
  Placement placement;
  Stack(i64 M, int side)
      : params(3, 2, M, side, side), map(params),
        placement(map, Region(0, 0, side, side)) {}
};

void BM_ModulePath(benchmark::State& state) {
  Stack s(state.range(0), 32);
  Rng rng(5);
  u64 copy = s.map.copy_id(rng.range(0, s.params.num_vars() - 1), {1, 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.map.module_path(copy));
  }
  state.counters["M"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ModulePath)->Arg(4096)->Arg(32768)->Arg(262144)->Arg(1048576);

void BM_Locate(benchmark::State& state) {
  Stack s(state.range(0), 32);
  Rng rng(6);
  u64 copy = s.map.copy_id(rng.range(0, s.params.num_vars() - 1), {0, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.placement.locate(copy));
  }
  state.counters["M"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Locate)->Arg(4096)->Arg(32768)->Arg(262144)->Arg(1048576);

void representation_table() {
  std::cout << "=== EXP-MAP: memory-map representation cost (3.1) ===\n";
  Table t({"M", "d_1", "level graphs state (words)",
           "explicit-table alternative (words)"});
  for (i64 M : {i64{4096}, i64{32768}, i64{262144}, i64{1048576}}) {
    HmosParams params(3, 2, M, 32, 32);
    // Our state per processor: q, k, the d_i, and the subgraph decomposition
    // (l, w, z) per level — a handful of words.
    const i64 ours = 2 + 2 * params.k() + 3 * params.k();
    t.add(M, params.level(1).d, ours, M * params.redundancy());
  }
  t.print(std::cout);
  std::cout << '\n';
}

/// All q^k addresses of 4096 variables at k = 3 on a 64x64 mesh (the
/// simulator benchmark's geometry): one copy-tree walk per variable against
/// one locate() per copy. Best of three passes each.
void walk_vs_locate(BenchRecorder& rec) {
  std::cout << "=== EXP-MAP: copy-tree walk vs per-copy locate "
               "(q=3 k=3, 64x64, 4096 variables) ===\n";
  Table t({"M", "walk us/var", "walk ns/copy", "locate us/var",
           "locate ns/copy", "locate / walk"});
  constexpr int kVars = 4096;
  constexpr int kPasses = 3;
  for (i64 M : {i64{4096}, i64{262144}, i64{1048576}}) {
    HmosParams params(3, 3, M, 64, 64);
    MemoryMap map(params);
    Placement placement(map, Region(0, 0, 64, 64));
    const i64 red = params.redundancy();
    std::vector<i32> pages(static_cast<size_t>(params.k() * red));
    std::vector<i32> holders(static_cast<size_t>(red));
    Rng rng(8);
    const std::vector<i64> vars = rng.sample(M, kVars);
    i64 sink = 0;
    double walk_ms = 1e300;
    double locate_ms = 1e300;
    for (int pass = 0; pass < kPasses; ++pass) {
      const WallTimer walk_timer;
      for (const i64 v : vars) {
        placement.walk_copies(v, pages.data(), holders.data());
        sink += holders[0] + pages[0];
      }
      walk_ms = std::min(walk_ms, walk_timer.ms());
      const WallTimer locate_timer;
      for (const i64 v : vars) {
        for (i64 code = 0; code < red; ++code) {
          sink += placement.locate(static_cast<u64>(v * red + code)).node.r;
        }
      }
      locate_ms = std::min(locate_ms, locate_timer.ms());
    }
    benchmark::DoNotOptimize(sink);
    const std::string m = std::to_string(M);
    rec.point("walk-4096 k=3 M=" + m, walk_ms, /*mesh_steps=*/0);
    rec.point("locate-4096x27 k=3 M=" + m, locate_ms, /*mesh_steps=*/0);
    const double walk_us = walk_ms * 1e3 / kVars;
    const double locate_us = locate_ms * 1e3 / kVars;
    t.add(M, format_double(walk_us, 2), format_double(walk_us * 1e3 / red, 0),
          format_double(locate_us, 2),
          format_double(locate_us * 1e3 / red, 0),
          format_double(locate_us / walk_us, 2));
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  // The larger-M placements at k=3 pack several pages per node (t_i < 1).
  set_log_level(LogLevel::Error);
  BenchRecorder rec("memory_map");
  {
    const WallTimer timer;
    representation_table();
    rec.point("representation-table", timer.ms(), /*mesh_steps=*/0);
  }
  walk_vs_locate(rec);
  // Point timings of the hot address computation (1e5 locates per M).
  for (i64 M : {i64{4096}, i64{262144}, i64{1048576}}) {
    Stack s(M, 32);
    Rng rng(7);
    const u64 red = static_cast<u64>(s.params.redundancy());
    const u64 base =
        static_cast<u64>(rng.range(0, s.params.num_vars() - 1)) * red;
    const WallTimer timer;
    i64 sink = 0;
    for (int i = 0; i < 100000; ++i) {
      sink += s.placement.locate(base + static_cast<u64>(i) % red).slot;
    }
    benchmark::DoNotOptimize(sink);
    rec.point("locate-100k M=" + std::to_string(M), timer.ms(),
              /*mesh_steps=*/0);
  }
  rec.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

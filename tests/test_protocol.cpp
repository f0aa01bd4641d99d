// Tests for copy selection (target sets + CULLING) and the end-to-end access
// protocol: Theorem 3's congestion bound, the quorum-intersection consistency
// argument, and full write/read correctness against a flat reference memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "protocol/culling.hpp"
#include "protocol/simulator.hpp"
#include "protocol/target_set.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace meshpram {
namespace {

// ---------------------------------------------------------------------------
// Target sets.
// ---------------------------------------------------------------------------

struct QK {
  i64 q;
  int k;
};

class TargetSweep : public ::testing::TestWithParam<QK> {};

TEST_P(TargetSweep, MinimalSizesMatchFormula) {
  const auto [q, k] = GetParam();
  TargetSelector sel(q, k);
  const i64 maj = q / 2 + 1;
  const i64 ext = q / 2 + 2;
  for (int level = 0; level <= k; ++level) {
    const auto codes = sel.initial(level);
    // (maj)^level * (ext)^{k-level} leaves.
    EXPECT_EQ(static_cast<i64>(codes.size()),
              ipow(maj, level) * ipow(ext, k - level))
        << "q=" << q << " k=" << k << " level=" << level;
    std::vector<char> bits(static_cast<size_t>(sel.num_codes()), 0);
    for (i64 c : codes) bits[static_cast<size_t>(c)] = 1;
    EXPECT_TRUE(sel.is_level_target_set(bits, level));
    EXPECT_TRUE(sel.is_target_set(bits));  // level-i targets contain targets
  }
}

TEST_P(TargetSweep, AnyTwoTargetSetsIntersect) {
  // The quorum property behind read/write consistency: random minimal target
  // sets (selected under random marked preferences) always share a leaf.
  const auto [q, k] = GetParam();
  TargetSelector sel(q, k);
  Rng rng(static_cast<u64>(q * 100 + k));
  std::vector<std::vector<i64>> sets;
  const std::vector<char> all(static_cast<size_t>(sel.num_codes()), 1);
  for (int t = 0; t < 24; ++t) {
    std::vector<char> marked(static_cast<size_t>(sel.num_codes()), 0);
    for (i64 c = 0; c < sel.num_codes(); ++c) {
      marked[static_cast<size_t>(c)] = static_cast<char>(rng.below(2));
    }
    const auto s = sel.select(k, all, marked);  // ordinary target set
    ASSERT_TRUE(s.feasible);
    sets.push_back(s.codes);
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t j = i + 1; j < sets.size(); ++j) {
      EXPECT_TRUE(TargetSelector::intersects(sets[i], sets[j]))
          << "q=" << q << " k=" << k;
    }
  }
}

TEST_P(TargetSweep, SelectionRespectsCandidatesAndPrefersMarked) {
  const auto [q, k] = GetParam();
  TargetSelector sel(q, k);
  Rng rng(77);
  for (int t = 0; t < 30; ++t) {
    std::vector<char> cand(static_cast<size_t>(sel.num_codes()), 0);
    std::vector<char> marked(static_cast<size_t>(sel.num_codes()), 0);
    for (i64 c = 0; c < sel.num_codes(); ++c) {
      cand[static_cast<size_t>(c)] = static_cast<char>(rng.below(10) < 8);
      marked[static_cast<size_t>(c)] =
          static_cast<char>(cand[static_cast<size_t>(c)] && rng.below(2));
    }
    const int level = static_cast<int>(rng.below(static_cast<u64>(k + 1)));
    const auto s = sel.select(level, cand, marked);
    if (!s.feasible) continue;
    i64 unmarked = 0;
    for (i64 c : s.codes) {
      EXPECT_TRUE(cand[static_cast<size_t>(c)]) << "chose non-candidate";
      if (!marked[static_cast<size_t>(c)]) ++unmarked;
    }
    EXPECT_EQ(unmarked, s.unmarked);
    std::vector<char> bits(static_cast<size_t>(sel.num_codes()), 0);
    for (i64 c : s.codes) bits[static_cast<size_t>(c)] = 1;
    EXPECT_TRUE(sel.is_level_target_set(bits, level));
    // Preference sanity: selecting with everything marked costs 0.
    const auto s2 = sel.select(level, cand, cand);
    if (s2.feasible) {
      EXPECT_EQ(s2.unmarked, 0);
    }
  }
}

TEST_P(TargetSweep, InfeasibleWhenTooFewCopies) {
  const auto [q, k] = GetParam();
  TargetSelector sel(q, k);
  const std::vector<char> none(static_cast<size_t>(sel.num_codes()), 0);
  EXPECT_FALSE(sel.select(k, none, none).feasible);
  // A single leaf cannot be a target set for k >= 1.
  std::vector<char> one(static_cast<size_t>(sel.num_codes()), 0);
  one[0] = 1;
  EXPECT_FALSE(sel.is_target_set(one));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TargetSweep,
                         ::testing::Values(QK{3, 1}, QK{3, 2}, QK{3, 3},
                                           QK{3, 4}, QK{4, 2}, QK{5, 2},
                                           QK{5, 3}, QK{7, 2}, QK{9, 2}),
                         [](const ::testing::TestParamInfo<QK>& info) {
                           return "q" + std::to_string(info.param.q) + "_k" +
                                  std::to_string(info.param.k);
                         });

TEST(TargetSelector, RejectsBadParameters) {
  EXPECT_THROW(TargetSelector(2, 2), ConfigError);
  EXPECT_THROW(TargetSelector(3, 0), ConfigError);
  TargetSelector sel(3, 2);
  EXPECT_THROW(sel.select(3, std::vector<char>(9, 1), std::vector<char>(9, 1)),
               ConfigError);
  EXPECT_THROW(sel.select(0, std::vector<char>(4, 1), std::vector<char>(4, 1)),
               ConfigError);
}

TEST(TargetSelector, MajorityIntersectionIsTightForQ3) {
  // For q=3, k=2: minimal target sets have 4 of 9 leaves, and two disjoint
  // 4-subsets of 9 exist — but not two disjoint TARGET sets.
  TargetSelector sel(3, 2);
  const auto a = sel.initial(2);
  EXPECT_EQ(a.size(), 4u);
}

// Reference solver: a plain top-down recursion over T_v that builds every
// node's chosen leaf list. An internal node at tree depth d needs
// extensive() children at d >= level and majority() below, and takes the
// `need` cheapest feasible ones, the lower digit first on equal cost.
struct RefNode {
  bool feasible = false;
  i64 cost = 0;
  std::vector<i64> codes;
};

RefNode ref_solve(i64 q, int k, int depth, i64 prefix, int level,
                  const std::vector<char>& candidate,
                  const std::vector<char>& marked) {
  RefNode node;
  if (depth == k) {
    node.feasible = candidate[static_cast<size_t>(prefix)] != 0;
    if (node.feasible) {
      node.cost = marked[static_cast<size_t>(prefix)] ? 0 : 1;
      node.codes = {prefix};
    }
    return node;
  }
  std::vector<RefNode> kids;
  for (i64 c = 0; c < q; ++c) {
    kids.push_back(ref_solve(q, k, depth + 1, prefix + c * ipow(q, depth),
                             level, candidate, marked));
  }
  const i64 need = depth >= level ? q / 2 + 2 : q / 2 + 1;
  std::vector<size_t> order;
  for (size_t i = 0; i < kids.size(); ++i) {
    if (kids[i].feasible) order.push_back(i);
  }
  if (static_cast<i64>(order.size()) < need) return node;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return kids[a].cost < kids[b].cost;
  });
  node.feasible = true;
  for (i64 t = 0; t < need; ++t) {
    const RefNode& kid = kids[order[static_cast<size_t>(t)]];
    node.cost += kid.cost;
    node.codes.insert(node.codes.end(), kid.codes.begin(), kid.codes.end());
  }
  std::sort(node.codes.begin(), node.codes.end());
  return node;
}

TEST(TargetSelector, MatchesRecursiveReference) {
  // Seeded random candidate/marked bitmaps in the call shapes CULLING uses:
  // marked inside candidate (augmenting C with unmarked copies), marked ==
  // candidate (extracting from M alone, degraded-mode survivors), plus an
  // unrelated marked set. Sparse candidates make many inputs infeasible.
  const int kCandPct[] = {35, 55, 70, 85, 95, 100};
  const int kMarkPct[] = {0, 25, 50, 80};
  i64 cases = 0;
  i64 infeasible = 0;
  for (const i64 q : {3, 4, 5, 7}) {
    for (int k = 1; k <= 4; ++k) {
      TargetSelector sel(q, k);
      const i64 ncodes = sel.num_codes();
      Rng rng(static_cast<u64>(q * 10 + k));
      const int trials = ncodes > 500 ? 6 : 24;
      for (int level = 0; level <= k; ++level) {
        for (int t = 0; t < trials; ++t) {
          const int cand_pct = kCandPct[t % 6];
          const int mark_pct = kMarkPct[(t / 6) % 4];
          std::vector<char> cand(static_cast<size_t>(ncodes), 0);
          std::vector<char> in_m(static_cast<size_t>(ncodes), 0);
          std::vector<char> other(static_cast<size_t>(ncodes), 0);
          for (i64 c = 0; c < ncodes; ++c) {
            const auto i = static_cast<size_t>(c);
            cand[i] = static_cast<char>(rng.below(100) <
                                        static_cast<u64>(cand_pct));
            in_m[i] = static_cast<char>(
                cand[i] && rng.below(100) < static_cast<u64>(mark_pct));
            other[i] = static_cast<char>(rng.below(2));
          }
          const std::pair<const std::vector<char>*,
                          const std::vector<char>*>
              shapes[] = {{&cand, &in_m}, {&in_m, &in_m}, {&cand, &cand},
                          {&cand, &other}};
          for (const auto& [c_bits, m_bits] : shapes) {
            const RefNode want =
                ref_solve(q, k, 0, 0, level, *c_bits, *m_bits);
            const TargetSelector::Selection got =
                sel.select(level, *c_bits, *m_bits);
            ++cases;
            if (!want.feasible) ++infeasible;
            ASSERT_EQ(got.feasible, want.feasible)
                << "q=" << q << " k=" << k << " level=" << level
                << " trial=" << t;
            if (!want.feasible) continue;
            ASSERT_EQ(got.unmarked, want.cost)
                << "q=" << q << " k=" << k << " level=" << level
                << " trial=" << t;
            ASSERT_EQ(got.codes, want.codes)
                << "q=" << q << " k=" << k << " level=" << level
                << " trial=" << t;
          }
        }
      }
    }
  }
  EXPECT_GT(infeasible, cases / 10);
  EXPECT_LT(infeasible, cases * 9 / 10);
}

// ---------------------------------------------------------------------------
// CULLING (Theorem 3).
// ---------------------------------------------------------------------------

struct SimFixtureConfig {
  int rows;
  int cols;
  i64 vars;
  int k;
};

class CullingTest : public ::testing::TestWithParam<SimFixtureConfig> {};

TEST_P(CullingTest, Theorem3BoundHolds) {
  const auto [rows, cols, vars, k] = GetParam();
  HmosParams params(3, k, vars, rows, cols);
  MemoryMap map(params);
  Mesh mesh(rows, cols);
  Placement placement(map, mesh.whole());
  Culling culling(mesh, placement);

  Rng rng(2025);
  // Adversarial-ish request set: a mix of consecutive variables (which share
  // BIBD structure) and random ones.
  std::vector<i64> reqs(static_cast<size_t>(mesh.size()), -1);
  for (i64 node = 0; node < mesh.size(); ++node) {
    reqs[static_cast<size_t>(node)] =
        (node % 2 == 0) ? node % params.num_vars()
                        : rng.range(0, params.num_vars() - 1);
  }
  // EREW de-dup.
  std::set<i64> used;
  for (auto& v : reqs) {
    while (used.contains(v)) v = (v + 1) % params.num_vars();
    used.insert(v);
  }

  CullingStats stats;
  const auto selections = culling.run(reqs, &stats);

  ASSERT_EQ(static_cast<int>(stats.max_page_load.size()), k);
  for (int i = 1; i <= k; ++i) {
    EXPECT_LE(stats.max_page_load[static_cast<size_t>(i - 1)],
              stats.bound[static_cast<size_t>(i - 1)])
        << "Theorem 3 violated at level " << i;
  }

  // Every selection is a minimal target set of its variable, contained in
  // the full code set.
  TargetSelector sel(3, k);
  const i64 expect_size = ipow(2, k);
  for (i64 node = 0; node < mesh.size(); ++node) {
    const auto& codes = selections[static_cast<size_t>(node)];
    ASSERT_EQ(static_cast<i64>(codes.size()), expect_size) << "node " << node;
    std::vector<char> bits(static_cast<size_t>(sel.num_codes()), 0);
    for (i64 c : codes) bits[static_cast<size_t>(c)] = 1;
    EXPECT_TRUE(sel.is_target_set(bits));
  }
  EXPECT_GT(stats.steps, 0);
  EXPECT_EQ(stats.selected_copies, mesh.size() * expect_size);
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, CullingTest,
    ::testing::Values(SimFixtureConfig{8, 8, 1080, 2},
                      SimFixtureConfig{8, 8, 64, 1},
                      SimFixtureConfig{16, 16, 1080, 2},
                      SimFixtureConfig{32, 32, 4096, 2}),
    [](const ::testing::TestParamInfo<SimFixtureConfig>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols) + "_M" +
             std::to_string(info.param.vars) + "_k" +
             std::to_string(info.param.k);
    });

TEST(Culling, IdleProcessorsAreSkipped) {
  HmosParams params(3, 2, 1080, 8, 8);
  MemoryMap map(params);
  Mesh mesh(8, 8);
  Placement placement(map, mesh.whole());
  Culling culling(mesh, placement);
  std::vector<i64> reqs(64, -1);
  reqs[5] = 42;
  CullingStats stats;
  const auto selections = culling.run(reqs, &stats);
  for (i64 node = 0; node < 64; ++node) {
    if (node == 5) {
      EXPECT_EQ(selections[static_cast<size_t>(node)].size(), 4u);
    } else {
      EXPECT_TRUE(selections[static_cast<size_t>(node)].empty());
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end access protocol.
// ---------------------------------------------------------------------------

SimConfig small_config() {
  SimConfig cfg;
  cfg.mesh_rows = 8;
  cfg.mesh_cols = 8;
  cfg.num_vars = 1080;
  cfg.q = 3;
  cfg.k = 2;
  return cfg;
}

TEST(Access, WriteThenReadRoundTrip) {
  PramMeshSimulator sim(small_config());
  const i64 n = sim.processors();
  std::vector<i64> vars(static_cast<size_t>(n));
  std::vector<i64> vals(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    vars[static_cast<size_t>(i)] = i * 7 % sim.num_vars();
    vals[static_cast<size_t>(i)] = 1000 + i;
  }
  // Ensure distinct vars (7 and 1080 are coprime over 64 values: fine).
  StepStats ws, rs;
  sim.write_step(vars, vals, &ws);
  const auto got = sim.read_step(vars, &rs);
  for (i64 i = 0; i < n; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], vals[static_cast<size_t>(i)])
        << "var " << vars[static_cast<size_t>(i)];
  }
  EXPECT_GT(ws.total_steps, 0);
  EXPECT_GT(rs.total_steps, 0);
  EXPECT_EQ(static_cast<int>(ws.forward_stage_steps.size()), 3);  // k+1 stages
}

TEST(Access, ReadersSeeLatestOfInterleavedWrites) {
  PramMeshSimulator sim(small_config());
  const i64 n = sim.processors();
  Rng rng(4242);
  std::unordered_map<i64, i64> reference;

  for (int step = 0; step < 8; ++step) {
    // Random mix of reads and writes over distinct variables.
    std::vector<AccessRequest> reqs(static_cast<size_t>(n));
    std::set<i64> used;
    for (i64 i = 0; i < n; ++i) {
      i64 v = rng.range(0, sim.num_vars() - 1);
      while (used.contains(v)) v = (v + 1) % sim.num_vars();
      used.insert(v);
      const bool write = rng.below(2) == 0;
      reqs[static_cast<size_t>(i)] =
          AccessRequest{v, write ? Op::Write : Op::Read,
                        write ? rng.range(1, 1 << 20) : 0};
    }
    const auto results = sim.step(reqs);
    for (i64 i = 0; i < n; ++i) {
      const auto& r = reqs[static_cast<size_t>(i)];
      if (r.op == Op::Read) {
        const auto it = reference.find(r.var);
        const i64 expect = it == reference.end() ? 0 : it->second;
        EXPECT_EQ(results[static_cast<size_t>(i)], expect)
            << "step " << step << " var " << r.var;
      }
    }
    for (i64 i = 0; i < n; ++i) {
      const auto& r = reqs[static_cast<size_t>(i)];
      if (r.op == Op::Write) reference[r.var] = r.value;
    }
  }
}

TEST(Access, OverwriteReturnsNewestValue) {
  PramMeshSimulator sim(small_config());
  for (i64 round = 1; round <= 5; ++round) {
    sim.write_step({17}, {round * 11});
    const auto got = sim.read_step({17});
    EXPECT_EQ(got[0], round * 11);
  }
}

TEST(Access, UnwrittenVariablesReadZero) {
  PramMeshSimulator sim(small_config());
  const auto got = sim.read_step({3, 99, 1000});
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 0);
  EXPECT_EQ(got[2], 0);
}

TEST(Access, RejectsErewViolation) {
  PramMeshSimulator sim(small_config());
  std::vector<AccessRequest> reqs(static_cast<size_t>(sim.processors()));
  reqs[0] = AccessRequest{5, Op::Read, 0};
  reqs[1] = AccessRequest{5, Op::Read, 0};
  EXPECT_THROW(sim.step(reqs), ConfigError);
}

TEST(Access, RejectsTooManyRequests) {
  PramMeshSimulator sim(small_config());
  std::vector<AccessRequest> reqs(static_cast<size_t>(sim.processors()) + 1);
  EXPECT_THROW(sim.step(reqs), ConfigError);
}

TEST(Access, NonDegradedMediumMesh) {
  SimConfig cfg;
  cfg.mesh_rows = 32;
  cfg.mesh_cols = 32;
  cfg.num_vars = 4096;
  PramMeshSimulator sim(cfg);
  EXPECT_FALSE(sim.placement().degraded());
  const i64 n = sim.processors();
  std::vector<i64> vars(static_cast<size_t>(n));
  std::vector<i64> vals(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    vars[static_cast<size_t>(i)] = (i * 3 + 1) % 4096;
    vals[static_cast<size_t>(i)] = i ^ 0x5a5a;
  }
  StepStats ws;
  sim.write_step(vars, vals, &ws);
  const auto got = sim.read_step(vars);
  for (i64 i = 0; i < n; ++i) {
    ASSERT_EQ(got[static_cast<size_t>(i)], vals[static_cast<size_t>(i)]);
  }
  // Theorem 3 held during culling.
  for (size_t i = 0; i < ws.culling.max_page_load.size(); ++i) {
    EXPECT_LE(ws.culling.max_page_load[i], ws.culling.bound[i]);
  }
}

TEST(Access, AnalyticSortModeGivesSameResults) {
  SimConfig cfg = small_config();
  cfg.sort_mode = SortMode::Analytic;
  PramMeshSimulator sim(cfg);
  sim.write_step({1, 2, 3}, {10, 20, 30});
  const auto got = sim.read_step({3, 2, 1});
  EXPECT_EQ(got[0], 30);
  EXPECT_EQ(got[1], 20);
  EXPECT_EQ(got[2], 10);
}

TEST(Access, StatsAreInternallyConsistent) {
  PramMeshSimulator sim(small_config());
  StepStats st;
  sim.write_step({1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, &st);
  EXPECT_EQ(st.total_steps,
            st.culling_steps + st.forward_steps + st.return_steps);
  i64 fwd = 0;
  for (i64 s : st.forward_stage_steps) fwd += s;
  EXPECT_EQ(fwd, st.forward_steps);
  EXPECT_EQ(st.packets, 5 * 4);  // 5 requests, 2^k = 4 copies each
}

}  // namespace
}  // namespace meshpram

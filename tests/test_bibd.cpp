// Tests for the explicit (q^d, q)-BIBD and the Appendix subgraph.
//
// These validate the combinatorial backbone of the whole simulation:
//  * Definition 1 (degrees, λ = 1),
//  * Lemma 1 (strong expansion),
//  * Theorem 5 (balanced output degrees of the input-subset subgraph),
// exhaustively for a parameter sweep of prime powers q and dimensions d.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "bibd/bibd.hpp"
#include "bibd/subgraph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace meshpram {
namespace {

struct QD {
  i64 q;
  int d;
};

std::ostream& operator<<(std::ostream& os, const QD& p) {
  return os << "q" << p.q << "_d" << p.d;
}

class BibdProperties : public ::testing::TestWithParam<QD> {};

TEST_P(BibdProperties, SizesMatchDefinition) {
  const auto [q, d] = GetParam();
  Bibd g(q, d);
  EXPECT_EQ(g.num_outputs(), ipow(q, d));
  EXPECT_EQ(g.num_inputs(), bibd_input_count(q, d));
  EXPECT_EQ(g.input_degree(), q);
  EXPECT_EQ(g.output_degree(), (ipow(q, d) - 1) / (q - 1));
}

TEST_P(BibdProperties, InputEncodingRoundTrips) {
  const auto [q, d] = GetParam();
  Bibd g(q, d);
  for (i64 w = 0; w < g.num_inputs(); ++w) {
    const auto phi = g.decode_input(w);
    EXPECT_EQ(g.encode_input(phi), w);
    EXPECT_GE(phi.h, 0);
    EXPECT_LT(phi.h, d);
    EXPECT_LT(phi.A, ipow(q, d - 1));
    EXPECT_LT(phi.B, ipow(q, phi.h));
  }
}

TEST_P(BibdProperties, InputNeighborsAreDistinctOutputs) {
  const auto [q, d] = GetParam();
  Bibd g(q, d);
  for (i64 w = 0; w < g.num_inputs(); ++w) {
    const auto nb = g.neighbors(w);
    ASSERT_EQ(nb.size(), static_cast<size_t>(q));
    std::set<i64> uniq(nb.begin(), nb.end());
    EXPECT_EQ(uniq.size(), static_cast<size_t>(q))
        << "input " << w << " has repeated neighbors";
    for (i64 u : nb) {
      EXPECT_GE(u, 0);
      EXPECT_LT(u, g.num_outputs());
      EXPECT_TRUE(g.adjacent(w, u));
    }
  }
}

TEST_P(BibdProperties, OutputDegreesUniform) {
  const auto [q, d] = GetParam();
  Bibd g(q, d);
  std::vector<i64> deg(static_cast<size_t>(g.num_outputs()), 0);
  for (i64 w = 0; w < g.num_inputs(); ++w) {
    for (i64 u : g.neighbors(w)) ++deg[static_cast<size_t>(u)];
  }
  for (i64 u = 0; u < g.num_outputs(); ++u) {
    EXPECT_EQ(deg[static_cast<size_t>(u)], g.output_degree());
  }
}

TEST_P(BibdProperties, LambdaIsExactlyOne) {
  const auto [q, d] = GetParam();
  Bibd g(q, d);
  if (g.num_outputs() > 256) GTEST_SKIP() << "quadratic check too large";
  // Count common inputs for every output pair by enumeration.
  std::map<std::pair<i64, i64>, int> common;
  for (i64 w = 0; w < g.num_inputs(); ++w) {
    const auto nb = g.neighbors(w);
    for (size_t i = 0; i < nb.size(); ++i) {
      for (size_t j = i + 1; j < nb.size(); ++j) {
        const auto key = std::minmax(nb[i], nb[j]);
        ++common[{key.first, key.second}];
      }
    }
  }
  for (i64 u1 = 0; u1 < g.num_outputs(); ++u1) {
    for (i64 u2 = u1 + 1; u2 < g.num_outputs(); ++u2) {
      const auto it = common.find({u1, u2});
      ASSERT_NE(it, common.end())
          << "outputs " << u1 << ", " << u2 << " share no input";
      EXPECT_EQ(it->second, 1)
          << "outputs " << u1 << ", " << u2 << " share " << it->second;
    }
  }
}

TEST_P(BibdProperties, CommonInputMatchesEnumeration) {
  const auto [q, d] = GetParam();
  Bibd g(q, d);
  Rng rng(2024);
  const int trials = g.num_outputs() > 512 ? 200 : 50;
  for (int t = 0; t < trials; ++t) {
    const i64 u1 = rng.range(0, g.num_outputs() - 1);
    i64 u2 = rng.range(0, g.num_outputs() - 1);
    if (u1 == u2) continue;
    const i64 w = g.common_input(u1, u2);
    EXPECT_TRUE(g.adjacent(w, u1));
    EXPECT_TRUE(g.adjacent(w, u2));
  }
}

TEST_P(BibdProperties, OutputNeighborEnumerationAndRanks) {
  const auto [q, d] = GetParam();
  Bibd g(q, d);
  Rng rng(7);
  const i64 samples = std::min<i64>(g.num_outputs(), 64);
  for (i64 s = 0; s < samples; ++s) {
    const i64 u = rng.range(0, g.num_outputs() - 1);
    std::set<i64> seen;
    for (i64 r = 0; r < g.output_degree(); ++r) {
      const i64 w = g.output_neighbor(u, r);
      EXPECT_TRUE(g.adjacent(w, u)) << "u=" << u << " r=" << r;
      EXPECT_EQ(g.edge_rank(w, u), r);
      EXPECT_EQ(g.input_rank(w), r);
      seen.insert(w);
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(g.output_degree()))
        << "duplicate neighbors for output " << u;
  }
}

TEST_P(BibdProperties, StrongExpansionLemma1) {
  const auto [q, d] = GetParam();
  Bibd g(q, d);
  Rng rng(99);
  // For a random output u and a random subset S of its inputs, fix k <= q
  // outgoing edges per input (always including (w, u)): |Γ_k(S)| = (k-1)|S|+1.
  for (int trial = 0; trial < 20; ++trial) {
    const i64 u = rng.range(0, g.num_outputs() - 1);
    const i64 deg = g.output_degree();
    const i64 take = std::min<i64>(deg, 1 + static_cast<i64>(rng.below(8)));
    const auto which = rng.sample(deg, take);
    for (i64 k = 2; k <= q; ++k) {
      std::set<i64> gamma;
      for (i64 r : which) {
        const i64 w = g.output_neighbor(u, r);
        const auto nb = g.neighbors(w);
        // Fix k edges: (w, u) plus the first k-1 other neighbors.
        gamma.insert(u);
        i64 added = 0;
        for (i64 cand : nb) {
          if (cand == u) continue;
          if (added == k - 1) break;
          gamma.insert(cand);
          ++added;
        }
      }
      EXPECT_EQ(static_cast<i64>(gamma.size()), (k - 1) * take + 1)
          << "q=" << q << " d=" << d << " u=" << u << " |S|=" << take
          << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BibdProperties,
    ::testing::Values(QD{2, 2}, QD{2, 3}, QD{2, 4}, QD{3, 1}, QD{3, 2},
                      QD{3, 3}, QD{3, 4}, QD{4, 2}, QD{4, 3}, QD{5, 2},
                      QD{7, 2}, QD{8, 2}, QD{9, 2}),
    [](const ::testing::TestParamInfo<QD>& info) {
      return "q" + std::to_string(info.param.q) + "_d" +
             std::to_string(info.param.d);
    });

TEST(Bibd, RejectsBadParameters) {
  EXPECT_THROW(Bibd(6, 2), ConfigError);   // not a prime power
  EXPECT_THROW(Bibd(3, 0), ConfigError);   // d < 1
  EXPECT_THROW(Bibd(1, 2), ConfigError);   // q < 2
}

TEST(Bibd, DegenerateD1) {
  // (q, q)-BIBD: one input connected to every output.
  Bibd g(5, 1);
  EXPECT_EQ(g.num_inputs(), 1);
  EXPECT_EQ(g.num_outputs(), 5);
  const auto nb = g.neighbors(0);
  std::set<i64> uniq(nb.begin(), nb.end());
  EXPECT_EQ(uniq.size(), 5u);
}

// ---------------------------------------------------------------------------
// Appendix subgraph (Theorem 5).
// ---------------------------------------------------------------------------

struct SubParam {
  i64 q;
  int d;
  i64 m;
};

class SubgraphProperties : public ::testing::TestWithParam<QD> {};

TEST_P(SubgraphProperties, Theorem5HoldsForEveryM) {
  const auto [q, d] = GetParam();
  const i64 f = bibd_input_count(q, d);
  const i64 qd = ipow(q, d);
  // Sweep all m for small designs, a spread of m for larger ones.
  std::vector<i64> ms;
  if (f <= 200) {
    for (i64 m = 1; m <= f; ++m) ms.push_back(m);
  } else {
    Rng rng(5);
    ms = {1, 2, qd - 1, qd, qd + 1, f / 3, f / 2, f - 1, f};
    for (int t = 0; t < 20; ++t) ms.push_back(1 + rng.range(0, f - 1));
  }
  for (i64 m : ms) {
    BibdSubgraph g(q, d, m);
    // Recompute all output degrees by brute force.
    std::vector<i64> deg(static_cast<size_t>(qd), 0);
    for (i64 v = 0; v < m; ++v) {
      const auto nb = g.neighbors(v);
      std::set<i64> uniq(nb.begin(), nb.end());
      ASSERT_EQ(uniq.size(), static_cast<size_t>(q));
      for (i64 u : nb) ++deg[static_cast<size_t>(u)];
    }
    const i64 lo = (q * m) / qd;
    const i64 hi = ceil_div(q * m, qd);
    for (i64 u = 0; u < qd; ++u) {
      EXPECT_GE(deg[static_cast<size_t>(u)], lo) << "m=" << m << " u=" << u;
      EXPECT_LE(deg[static_cast<size_t>(u)], hi) << "m=" << m << " u=" << u;
      EXPECT_EQ(deg[static_cast<size_t>(u)], g.output_degree(u))
          << "m=" << m << " u=" << u;
    }
  }
}

TEST_P(SubgraphProperties, NeighborRankRoundTrip) {
  const auto [q, d] = GetParam();
  const i64 f = bibd_input_count(q, d);
  Rng rng(13);
  for (i64 m : {f / 4 + 1, f / 2 + 1, f}) {
    if (m < 1) continue;
    BibdSubgraph g(q, d, m);
    const i64 samples = std::min<i64>(g.num_outputs(), 32);
    for (i64 s = 0; s < samples; ++s) {
      const i64 u = rng.range(0, g.num_outputs() - 1);
      std::set<i64> seen;
      for (i64 r = 0; r < g.output_degree(u); ++r) {
        const i64 v = g.output_neighbor(u, r);
        EXPECT_LT(v, m);
        EXPECT_TRUE(g.adjacent(v, u));
        EXPECT_EQ(g.edge_rank(v, u), r) << "m=" << m << " u=" << u;
        EXPECT_EQ(g.input_rank(v), r) << "m=" << m << " u=" << u;
        seen.insert(v);
      }
      EXPECT_EQ(static_cast<i64>(seen.size()), g.output_degree(u));
    }
  }
}

TEST_P(SubgraphProperties, DecompositionIdentity) {
  const auto [q, d] = GetParam();
  const i64 f = bibd_input_count(q, d);
  Rng rng(77);
  for (int t = 0; t < 30; ++t) {
    const i64 m = 1 + rng.range(0, f - 1);
    BibdSubgraph g(q, d, m);
    // m = q^{d-1}((q^l - 1)/(q-1) + w) + z  (Appendix eq. 11)
    const i64 qd1 = ipow(q, d - 1);
    EXPECT_EQ(qd1 * ((ipow(q, g.l()) - 1) / (q - 1) + g.w()) + g.z(), m);
    if (g.l() < d) {
      EXPECT_LT(g.w(), ipow(q, g.l()));
    }
    EXPECT_LT(g.z(), qd1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubgraphProperties,
    ::testing::Values(QD{2, 2}, QD{2, 3}, QD{3, 2}, QD{3, 3}, QD{4, 2},
                      QD{5, 2}, QD{9, 2}),
    [](const ::testing::TestParamInfo<QD>& info) {
      return "q" + std::to_string(info.param.q) + "_d" +
             std::to_string(info.param.d);
    });

TEST(Subgraph, RejectsBadM) {
  EXPECT_THROW(BibdSubgraph(3, 2, 0), ConfigError);
  EXPECT_THROW(BibdSubgraph(3, 2, bibd_input_count(3, 2) + 1), ConfigError);
}

TEST(Subgraph, FullMEqualsWholeDesign) {
  const i64 f = bibd_input_count(3, 3);
  BibdSubgraph g(3, 3, f);
  EXPECT_EQ(g.l(), 3);
  EXPECT_EQ(g.w(), 0);
  EXPECT_EQ(g.z(), 0);
  EXPECT_EQ(g.min_output_degree(), g.max_output_degree());
  EXPECT_EQ(g.min_output_degree(), g.full().output_degree());
}

}  // namespace
}  // namespace meshpram

// Unit and property tests for GF(p^e): field axioms checked exhaustively for
// every order used anywhere in the simulator (and a few more).
#include <gtest/gtest.h>

#include "gf/gf.hpp"
#include "gf/poly.hpp"
#include "util/error.hpp"

namespace meshpram {
namespace {

class FieldAxioms : public ::testing::TestWithParam<i64> {};

TEST_P(FieldAxioms, AdditionGroup) {
  const GF& f = GF::get(GetParam());
  const i64 q = f.order();
  for (i64 a = 0; a < q; ++a) {
    EXPECT_EQ(f.add(a, 0), a);
    EXPECT_EQ(f.add(a, f.neg(a)), 0);
    for (i64 b = 0; b < q; ++b) {
      EXPECT_EQ(f.add(a, b), f.add(b, a));
      for (i64 c = 0; c < q; ++c) {
        EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
      }
    }
  }
}

TEST_P(FieldAxioms, MultiplicationGroup) {
  const GF& f = GF::get(GetParam());
  const i64 q = f.order();
  for (i64 a = 0; a < q; ++a) {
    EXPECT_EQ(f.mul(a, 1), a);
    EXPECT_EQ(f.mul(a, 0), 0);
    if (a != 0) {
      EXPECT_EQ(f.mul(a, f.inv(a)), 1);
    }
    for (i64 b = 0; b < q; ++b) {
      EXPECT_EQ(f.mul(a, b), f.mul(b, a));
      for (i64 c = 0; c < q; ++c) {
        EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
      }
    }
  }
}

TEST_P(FieldAxioms, Distributivity) {
  const GF& f = GF::get(GetParam());
  const i64 q = f.order();
  for (i64 a = 0; a < q; ++a) {
    for (i64 b = 0; b < q; ++b) {
      for (i64 c = 0; c < q; ++c) {
        EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
      }
    }
  }
}

TEST_P(FieldAxioms, NoZeroDivisors) {
  const GF& f = GF::get(GetParam());
  const i64 q = f.order();
  for (i64 a = 1; a < q; ++a) {
    for (i64 b = 1; b < q; ++b) {
      EXPECT_NE(f.mul(a, b), 0) << "zero divisor: " << a << " * " << b;
    }
  }
}

TEST_P(FieldAxioms, SubAndDivInvertAddAndMul) {
  const GF& f = GF::get(GetParam());
  const i64 q = f.order();
  for (i64 a = 0; a < q; ++a) {
    for (i64 b = 0; b < q; ++b) {
      EXPECT_EQ(f.sub(f.add(a, b), b), a);
      if (b != 0) {
        EXPECT_EQ(f.div(f.mul(a, b), b), a);
      }
    }
  }
}

TEST_P(FieldAxioms, FrobeniusFixesPrimeSubfield) {
  const GF& f = GF::get(GetParam());
  // x -> x^p is a field automorphism; x^q = x for all x (little Fermat).
  for (i64 a = 0; a < f.order(); ++a) {
    EXPECT_EQ(f.pow(a, f.order()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, FieldAxioms,
                         ::testing::Values<i64>(2, 3, 4, 5, 7, 8, 9, 11, 13,
                                                16, 25, 27));

TEST(GF, RejectsNonPrimePowers) {
  EXPECT_THROW(GF(6), ConfigError);
  EXPECT_THROW(GF(10), ConfigError);
  EXPECT_THROW(GF(12), ConfigError);
  EXPECT_THROW(GF(1), ConfigError);
  EXPECT_THROW(GF(0), ConfigError);
}

TEST(GF, CharacteristicAndDegree) {
  EXPECT_EQ(GF::get(9).characteristic(), 3);
  EXPECT_EQ(GF::get(9).extension_degree(), 2);
  EXPECT_EQ(GF::get(8).characteristic(), 2);
  EXPECT_EQ(GF::get(8).extension_degree(), 3);
  EXPECT_EQ(GF::get(7).characteristic(), 7);
  EXPECT_EQ(GF::get(7).extension_degree(), 1);
}

TEST(GF, PrimeFieldMatchesModularArithmetic) {
  const GF& f = GF::get(7);
  for (i64 a = 0; a < 7; ++a) {
    for (i64 b = 0; b < 7; ++b) {
      EXPECT_EQ(f.add(a, b), (a + b) % 7);
      EXPECT_EQ(f.mul(a, b), (a * b) % 7);
    }
  }
}

TEST(GF, RangeChecks) {
  const GF& f = GF::get(3);
  EXPECT_THROW(f.add(3, 0), ConfigError);
  EXPECT_THROW(f.add(0, -1), ConfigError);
  EXPECT_THROW(f.inv(0), ConfigError);
}

TEST(GF, GetReturnsSameInstance) {
  EXPECT_EQ(&GF::get(3), &GF::get(3));
}

TEST(Poly, DegreeAndNormalize) {
  using gf::Poly;
  Poly a{1, 2, 0, 0};
  EXPECT_EQ(gf::degree(a), 1);
  Poly zero{0, 0};
  EXPECT_EQ(gf::degree(zero), -1);
}

TEST(Poly, MulMatchesHandComputation) {
  using gf::Poly;
  // (1 + x)(1 + x) over GF(2) = 1 + x^2.
  const Poly r = gf::mul({1, 1}, {1, 1}, 2);
  EXPECT_EQ(r, (Poly{1, 0, 1}));
  // (2 + x)(1 + 2x) over GF(3) = 2 + 5x + 2x^2 = 2 + 2x + 2x^2.
  const Poly s = gf::mul({2, 1}, {1, 2}, 3);
  EXPECT_EQ(s, (Poly{2, 2, 2}));
}

TEST(Poly, ModReduces) {
  using gf::Poly;
  // x^2 mod (x^2 + 1) over GF(3) = -1 = 2.
  const Poly r = gf::mod({0, 0, 1}, {1, 0, 1}, 3);
  EXPECT_EQ(r, (Poly{2}));
}

TEST(Poly, IrreducibleSearchFindsKnownPolynomials) {
  using gf::Poly;
  // Any degree-2 irreducible over GF(2) must be x^2 + x + 1.
  const Poly m = gf::find_irreducible(2, 2);
  EXPECT_EQ(m, (Poly{1, 1, 1}));
  // Degree-1 is trivially irreducible (the smallest is x).
  EXPECT_EQ(gf::degree(gf::find_irreducible(5, 1)), 1);
}

TEST(Poly, IrreducibilityClassification) {
  using gf::Poly;
  // x^2 + 1 over GF(2) = (x+1)^2: reducible.
  EXPECT_FALSE(gf::is_irreducible({1, 0, 1}, 2));
  // x^2 + x + 1 over GF(2): irreducible.
  EXPECT_TRUE(gf::is_irreducible({1, 1, 1}, 2));
  // x^2 + 1 over GF(3): irreducible (no roots: 0,1,2 -> 1,2,2).
  EXPECT_TRUE(gf::is_irreducible({1, 0, 1}, 3));
  // x^2 - 1 over GF(3): reducible.
  EXPECT_FALSE(gf::is_irreducible({2, 0, 1}, 3));
}

}  // namespace
}  // namespace meshpram

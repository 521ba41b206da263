//===- tests/LatticeTests.cpp - Figure 1 lattice tests --------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Verifies the constant propagation lattice of Figure 1: the meet rule
// table, the algebraic laws of a meet-semilattice, and the bounded-depth
// property the complexity argument of Section 3.1.5 rests on.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lattice.h"

#include <gtest/gtest.h>

#include <vector>

using namespace ipcp;

namespace {

const LatticeValue Top = LatticeValue::top();
const LatticeValue Bottom = LatticeValue::bottom();

LatticeValue C(ConstantValue V) { return LatticeValue::constant(V); }

TEST(Lattice, Figure1MeetTable) {
  // T /\ any = any
  EXPECT_EQ(meet(Top, Top), Top);
  EXPECT_EQ(meet(Top, C(7)), C(7));
  EXPECT_EQ(meet(Top, Bottom), Bottom);
  EXPECT_EQ(meet(C(7), Top), C(7));
  EXPECT_EQ(meet(Bottom, Top), Bottom);
  // ci /\ cj = ci if ci == cj
  EXPECT_EQ(meet(C(7), C(7)), C(7));
  // ci /\ cj = _|_ if ci != cj
  EXPECT_EQ(meet(C(7), C(8)), Bottom);
  // _|_ /\ any = _|_
  EXPECT_EQ(meet(Bottom, C(7)), Bottom);
  EXPECT_EQ(meet(Bottom, Bottom), Bottom);
}

TEST(Lattice, Predicates) {
  EXPECT_TRUE(Top.isTop());
  EXPECT_TRUE(Bottom.isBottom());
  EXPECT_TRUE(C(0).isConstant());
  EXPECT_EQ(C(-3).getConstant(), -3);
  EXPECT_FALSE(C(0).isTop());
  EXPECT_FALSE(C(0).isBottom());
}

TEST(Lattice, DefaultConstructionIsTop) {
  // "The value T is used as an initial approximation for all parameters."
  EXPECT_TRUE(LatticeValue().isTop());
}

TEST(Lattice, EqualityDistinguishesConstants) {
  EXPECT_EQ(C(4), C(4));
  EXPECT_NE(C(4), C(5));
  EXPECT_NE(C(4), Top);
  EXPECT_NE(C(4), Bottom);
  EXPECT_NE(Top, Bottom);
}

TEST(Lattice, StrictOrder) {
  EXPECT_TRUE(Bottom.strictlyBelow(Top));
  EXPECT_TRUE(Bottom.strictlyBelow(C(1)));
  EXPECT_TRUE(C(1).strictlyBelow(Top));
  EXPECT_FALSE(Top.strictlyBelow(C(1)));
  EXPECT_FALSE(C(1).strictlyBelow(C(2)))
      << "distinct constants are incomparable";
  EXPECT_FALSE(C(1).strictlyBelow(C(1)));
}

TEST(Lattice, HeightIsTwo) {
  // "the value associated with some formal parameter x can be lowered at
  // most twice."
  EXPECT_EQ(Top.height(), 2u);
  EXPECT_EQ(C(123).height(), 1u);
  EXPECT_EQ(Bottom.height(), 0u);
}

TEST(Lattice, MeetNeverRaises) {
  const LatticeValue Samples[] = {Top, Bottom, C(0), C(1), C(-5)};
  for (LatticeValue A : Samples)
    for (LatticeValue B : Samples) {
      LatticeValue M = meet(A, B);
      EXPECT_TRUE(M == A || M.strictlyBelow(A));
      EXPECT_TRUE(M == B || M.strictlyBelow(B));
    }
}

TEST(Lattice, Rendering) {
  EXPECT_EQ(Top.str(), "T");
  EXPECT_EQ(Bottom.str(), "_|_");
  EXPECT_EQ(C(42).str(), "42");
  EXPECT_EQ(C(-1).str(), "-1");
}

//===----------------------------------------------------------------------===//
// Algebraic laws, swept over a deterministic pseudo-random sample.
//===----------------------------------------------------------------------===//

class LatticeAlgebra : public ::testing::TestWithParam<uint64_t> {
protected:
  std::vector<LatticeValue> sample() {
    std::vector<LatticeValue> Values = {Top, Bottom};
    uint64_t State = GetParam() * 0x9E3779B97F4A7C15ULL + 1;
    for (int I = 0; I != 6; ++I) {
      State ^= State << 13;
      State ^= State >> 7;
      State ^= State << 17;
      Values.push_back(C(static_cast<ConstantValue>(State % 17) - 8));
    }
    return Values;
  }
};

TEST_P(LatticeAlgebra, MeetIsCommutative) {
  std::vector<LatticeValue> Values = sample();
  for (LatticeValue A : Values)
    for (LatticeValue B : Values)
      EXPECT_EQ(meet(A, B), meet(B, A));
}

TEST_P(LatticeAlgebra, MeetIsAssociative) {
  std::vector<LatticeValue> Values = sample();
  for (LatticeValue A : Values)
    for (LatticeValue B : Values)
      for (LatticeValue X : Values)
        EXPECT_EQ(meet(meet(A, B), X), meet(A, meet(B, X)));
}

TEST_P(LatticeAlgebra, MeetIsIdempotent) {
  for (LatticeValue A : sample())
    EXPECT_EQ(meet(A, A), A);
}

TEST_P(LatticeAlgebra, TopIsIdentityBottomAbsorbs) {
  for (LatticeValue A : sample()) {
    EXPECT_EQ(meet(Top, A), A);
    EXPECT_EQ(meet(Bottom, A), Bottom);
  }
}

TEST_P(LatticeAlgebra, DescendingChainsEndWithinTwoSteps) {
  // Any strictly descending chain has length at most 3 (T > c > _|_):
  // verify by exhausting chains over the sample.
  std::vector<LatticeValue> Values = sample();
  for (LatticeValue A : Values)
    for (LatticeValue B : Values)
      for (LatticeValue X : Values) {
        // If A > B > X (strictly), A must be T and X must be _|_.
        if (B.strictlyBelow(A) && X.strictlyBelow(B)) {
          EXPECT_TRUE(A.isTop());
          EXPECT_TRUE(X.isBottom());
        }
      }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeAlgebra,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace

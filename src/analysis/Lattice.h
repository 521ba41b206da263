//===- analysis/Lattice.h - The constant propagation lattice ----*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-level constant-propagation lattice of Figure 1 in the paper
/// (Callahan, Cooper, Kennedy & Torczon 1986; restated in Grove & Torczon
/// 1993):
///
/// \code
///            T                T  /\ any  = any
///      ... -1 0 1 2 ...      ci /\ cj   = ci  if ci == cj
///            _|_             ci /\ cj   = _|_ if ci != cj
///                           _|_ /\ any  = _|_
/// \endcode
///
/// T (top) means "no evidence yet" — kept only by parameters of procedures
/// that are never called. A constant c means "always has value c on
/// entry". _|_ (bottom) means "not known to be constant". Although the
/// constant level is infinite, the lattice has depth two: any value can be
/// lowered at most twice, which bounds the interprocedural propagation
/// (paper Section 3.1.5).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_LATTICE_H
#define IPCP_ANALYSIS_LATTICE_H

#include "support/ConstantMath.h"

#include <cassert>
#include <string>

namespace ipcp {

/// One element of the constant propagation lattice.
class LatticeValue {
public:
  /// Constructs T, the initial optimistic approximation.
  constexpr LatticeValue() : TheKind(Kind::Top), Value(0) {}

  static constexpr LatticeValue top() { return LatticeValue(); }
  static constexpr LatticeValue bottom() {
    return LatticeValue(Kind::Bottom, 0);
  }
  static constexpr LatticeValue constant(ConstantValue V) {
    return LatticeValue(Kind::Constant, V);
  }

  constexpr bool isTop() const { return TheKind == Kind::Top; }
  constexpr bool isConstant() const { return TheKind == Kind::Constant; }
  constexpr bool isBottom() const { return TheKind == Kind::Bottom; }

  constexpr ConstantValue getConstant() const {
    assert(isConstant() && "getConstant on non-constant lattice value");
    return Value;
  }

  /// The meet operation of Figure 1.
  friend constexpr LatticeValue meet(LatticeValue A, LatticeValue B) {
    if (A.isTop())
      return B;
    if (B.isTop())
      return A;
    if (A.isBottom() || B.isBottom())
      return bottom();
    return A.Value == B.Value ? A : bottom();
  }

  friend constexpr bool operator==(LatticeValue A, LatticeValue B) {
    return A.TheKind == B.TheKind &&
           (A.TheKind != Kind::Constant || A.Value == B.Value);
  }
  friend constexpr bool operator!=(LatticeValue A, LatticeValue B) {
    return !(A == B);
  }

  /// Lattice order: true when this is strictly below \p Other
  /// (bottom < constant < top).
  constexpr bool strictlyBelow(LatticeValue Other) const {
    if (Other.isTop())
      return !isTop();
    if (Other.isConstant())
      return isBottom();
    return false;
  }

  /// Height of this element: T=2, constant=1, bottom=0. A value can be
  /// lowered at most its height many times.
  constexpr unsigned height() const {
    switch (TheKind) {
    case Kind::Top:
      return 2;
    case Kind::Constant:
      return 1;
    case Kind::Bottom:
      return 0;
    }
    return 0;
  }

  std::string str() const {
    if (isTop())
      return "T";
    if (isBottom())
      return "_|_";
    return std::to_string(Value);
  }

private:
  enum class Kind { Top, Constant, Bottom };

  constexpr LatticeValue(Kind TheKind, ConstantValue Value)
      : TheKind(TheKind), Value(Value) {}

  Kind TheKind;
  ConstantValue Value;
};

} // namespace ipcp

#endif // IPCP_ANALYSIS_LATTICE_H

//===- core/JumpFunction.h - Jump function representation -------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The context-independent representation of jump functions (paper
/// Section 4.1: "The resulting expression tree is converted into a
/// context-independent representation and stored in the list of jump
/// functions for the parameters of this call site").
///
/// A SymExpr is an immutable, hash-consed expression tree over the entry
/// values of a procedure's extended formal parameters (formals plus
/// referenced globals). The SymExprContext arena folds constants during
/// construction, canonicalizes commutative operands, applies a few safe
/// algebraic identities, and caps tree size; a null SymExpr pointer means
/// lattice bottom everywhere in the core library.
///
/// A JumpFunction wraps an expression (or bottom) together with its
/// support — "the exact set of the caller's formal parameters whose
/// values on entry are used in the computation" (paper Section 2). The
/// same representation serves all four forward jump function classes and
/// the return jump functions; the classes differ only in which expressions
/// the builders keep (see ForwardJumpFunctions.h).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_JUMPFUNCTION_H
#define IPCP_CORE_JUMPFUNCTION_H

#include "analysis/Lattice.h"
#include "ir/Variable.h"
#include "support/Arena.h"
#include "support/ConstantMath.h"
#include "support/Ids.h"

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {

/// One immutable node of a symbolic expression tree.
class SymExpr {
public:
  enum class Kind { Const, Formal, Binary, Unary };

  Kind getKind() const { return TheKind; }

  ConstantValue getConst() const {
    assert(TheKind == Kind::Const && "not a constant node");
    return C;
  }
  Variable *getFormal() const {
    assert(TheKind == Kind::Formal && "not a formal node");
    return Var;
  }
  BinaryOp getBinaryOp() const {
    assert(TheKind == Kind::Binary && "not a binary node");
    return BinOp;
  }
  UnaryOp getUnaryOp() const {
    assert(TheKind == Kind::Unary && "not a unary node");
    return UnOp;
  }
  const SymExpr *getLHS() const {
    assert(TheKind != Kind::Const && TheKind != Kind::Formal);
    return L;
  }
  const SymExpr *getRHS() const {
    assert(TheKind == Kind::Binary && "no RHS on non-binary node");
    return R;
  }

  /// Number of nodes in this tree (for the size cap).
  unsigned size() const { return Size; }

  /// Dense handle of this node within its owning SymExprContext; nodes
  /// are numbered in interning order, so the id doubles as a creation
  /// timestamp.
  ExprId id() const { return Id; }

  bool isConst() const { return TheKind == Kind::Const; }
  bool isFormal() const { return TheKind == Kind::Formal; }

  /// Renders e.g. "((n * 2) + 1)".
  std::string str() const;

private:
  friend class SymExprContext;
  SymExpr() = default;

  Kind TheKind = Kind::Const;
  ConstantValue C = 0;
  Variable *Var = nullptr;
  BinaryOp BinOp = BinaryOp::Add;
  UnaryOp UnOp = UnaryOp::Neg;
  const SymExpr *L = nullptr;
  const SymExpr *R = nullptr;
  unsigned Size = 1;
  ExprId Id;
};

/// Hash-consing arena for SymExprs; this is the "global value numbering"
/// identity: two structurally equal expressions are the same pointer.
///
/// Nodes are bump-allocated from an Arena (trivially destructible, so the
/// arena may drop them without running destructors) and indexed by ExprId
/// through a flat side table; the hash-cons set is an open-addressing
/// table of ExprId slots probed linearly, replacing the node-keyed
/// unordered_map that dominated jump-function construction in profiles.
class SymExprContext {
public:
  /// \p MaxNodes bounds expression size; constructions that would exceed
  /// it return null (bottom). The paper observes that polynomial jump
  /// functions stay small in practice; the cap keeps pathological
  /// compositions linear.
  explicit SymExprContext(unsigned MaxNodes = 64) : MaxNodes(MaxNodes) {}

  SymExprContext(const SymExprContext &) = delete;
  SymExprContext &operator=(const SymExprContext &) = delete;

  const SymExpr *getConst(ConstantValue V);
  const SymExpr *getFormal(Variable *Var);

  /// Folds constants, applies safe identities (x+0, x*1, x*0, x-x, ...),
  /// canonicalizes commutative operand order. Null operands or foldings
  /// that trap (overflow, division by zero) yield null.
  const SymExpr *getBinary(BinaryOp Op, const SymExpr *L, const SymExpr *R);
  const SymExpr *getUnary(UnaryOp Op, const SymExpr *X);

  /// Replaces each formal through \p Map (returning null for unmapped
  /// formals is allowed and propagates bottom). Used to compose return
  /// jump functions into caller expressions.
  const SymExpr *
  substitute(const SymExpr *E,
             const std::function<const SymExpr *(Variable *)> &Map);

  /// Structural total order (deterministic across runs).
  static int compare(const SymExpr *A, const SymExpr *B);

  unsigned maxNodes() const { return MaxNodes; }
  size_t uniqueExprCount() const { return Nodes.size(); }

  /// The node behind a handle. Valid for every id returned by this
  /// context; ids are dense, so node(ExprId::fromIndex(i)) enumerates the
  /// interned population in creation order.
  const SymExpr *node(ExprId Id) const { return Nodes.at(Id); }

private:
  const SymExpr *intern(const SymExpr &Node);
  static size_t hashNode(const SymExpr &Node);
  static bool sameNode(const SymExpr &A, const SymExpr &B);
  void rehash(size_t NewSlotCount);

  unsigned MaxNodes;
  Arena NodeArena;
  IdMap<ExprId, const SymExpr *> Nodes; ///< handle -> interned node
  /// Open-addressing hash-cons table: each slot holds an ExprId raw value
  /// or ExprId::InvalidIndex when empty; power-of-two sized.
  std::vector<uint32_t> Slots;
  size_t SlotMask = 0;
};

/// Environment assigning lattice values to a procedure's extended
/// formals; anything unmapped is treated as top (not yet lowered).
using LatticeEnv = std::unordered_map<Variable *, LatticeValue>;

/// A forward or return jump function: an expression over entry values,
/// or bottom.
class JumpFunction {
public:
  /// Bottom.
  JumpFunction() = default;

  /// Wraps \p E (null = bottom) and computes its support.
  explicit JumpFunction(const SymExpr *E);

  static JumpFunction bottom() { return JumpFunction(); }
  static JumpFunction constant(SymExprContext &Ctx, ConstantValue V) {
    return JumpFunction(Ctx.getConst(V));
  }

  bool isBottom() const { return Expr == nullptr; }
  bool isConstant() const { return Expr && Expr->isConst(); }
  bool isPassThrough() const { return Expr && Expr->isFormal(); }

  const SymExpr *expr() const { return Expr; }

  /// The support set (paper Section 2), ID-ordered.
  const std::vector<Variable *> &support() const { return Support; }

  /// Evaluates under \p Env per the paper's rules: bottom if the function
  /// is bottom or any support value is bottom; top if any support value
  /// is still top; otherwise the folded constant (folding failure is
  /// bottom).
  LatticeValue evaluate(const LatticeEnv &Env) const;

  /// Same rules as evaluate(), but support values are read through
  /// \p Lookup (Variable* -> LatticeValue). The dense-VAL propagator uses
  /// this to evaluate straight out of its per-procedure value vectors
  /// without materializing a hash-map environment per visit.
  template <typename LookupFn>
  LatticeValue evaluateVia(const LookupFn &Lookup) const {
    if (isBottom())
      return LatticeValue::bottom();
    bool AnyTop = false;
    for (Variable *Var : Support) {
      LatticeValue V = Lookup(Var);
      if (V.isBottom())
        return LatticeValue::bottom();
      if (V.isTop())
        AnyTop = true;
    }
    if (AnyTop)
      return LatticeValue::top();
    if (auto Result = evalExprVia(Expr, Lookup))
      return LatticeValue::constant(*Result);
    return LatticeValue::bottom();
  }

  /// "_|_", "42", or the expression text.
  std::string str() const;

private:
  /// Folds \p E given constant support values (Lookup must yield a
  /// constant for every formal in the tree).
  template <typename LookupFn>
  static std::optional<ConstantValue> evalExprVia(const SymExpr *E,
                                                  const LookupFn &Lookup) {
    switch (E->getKind()) {
    case SymExpr::Kind::Const:
      return E->getConst();
    case SymExpr::Kind::Formal: {
      LatticeValue V = Lookup(E->getFormal());
      assert(V.isConstant() && "evalExprVia requires constant support");
      return V.getConstant();
    }
    case SymExpr::Kind::Binary: {
      auto L = evalExprVia(E->getLHS(), Lookup);
      if (!L)
        return std::nullopt;
      auto R = evalExprVia(E->getRHS(), Lookup);
      if (!R)
        return std::nullopt;
      return foldBinary(E->getBinaryOp(), *L, *R);
    }
    case SymExpr::Kind::Unary: {
      auto V = evalExprVia(E->getLHS(), Lookup);
      if (!V)
        return std::nullopt;
      return foldUnary(E->getUnaryOp(), *V);
    }
    }
    return std::nullopt;
  }

  const SymExpr *Expr = nullptr;
  std::vector<Variable *> Support;
};

} // namespace ipcp

#endif // IPCP_CORE_JUMPFUNCTION_H

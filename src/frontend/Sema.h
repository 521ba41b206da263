//===- frontend/Sema.h - MiniFort semantic checks ---------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for MiniFort programs. Checks performed:
///
///  - no duplicate global, procedure, parameter, or local names
///    (declarations are procedure-scoped, as in Fortran — nested blocks do
///    not open new scopes);
///  - locals must not shadow parameters; either may shadow a global;
///  - every referenced variable is declared; every called procedure exists;
///  - call argument count matches the callee's parameter count;
///  - arrays are always subscripted and scalars never are;
///  - arrays are not passed as bare call arguments (globals are the
///    sharing mechanism, matching the analysis' array-opacity assumption);
///  - optionally, a zero-argument `main` procedure exists (whole-program
///    analysis needs an entry point);
///  - warning when a do-loop induction variable is assigned in the loop
///    body (nonconforming Fortran; the analysis stays sound regardless).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_FRONTEND_SEMA_H
#define IPCP_FRONTEND_SEMA_H

#include "frontend/Ast.h"
#include "support/Diagnostics.h"

#include <string>
#include <string_view>
#include <unordered_map>

namespace ipcp {

/// Runs the MiniFort semantic checks and reports through a
/// DiagnosticsEngine.
class Sema {
public:
  explicit Sema(DiagnosticsEngine &Diags) : Diags(Diags) {}

  /// Demand a `main()` procedure (default true).
  void setRequireMain(bool Require) { RequireMain = Require; }

  /// Checks \p Prog; returns true when no errors were found.
  bool check(const Program &Prog);

private:
  /// What a name refers to inside a procedure.
  enum class Symbol { Scalar, Array };

  struct ProcScope {
    std::unordered_map<std::string, Symbol> Names;
    const ProcDecl *Proc = nullptr;
  };

  void checkProc(const ProcDecl &Proc);
  void declare(ProcScope &Scope, const DeclItem &Item, const char *What);
  void checkStmt(ProcScope &Scope, const Stmt *S,
                 const std::string *LoopIndVar);
  void checkExpr(const ProcScope &Scope, const Expr *E);
  void checkLValue(const ProcScope &Scope, const Expr *E);
  /// Looks up \p Name in the procedure scope, then globals; nullopt when
  /// undeclared.
  std::optional<Symbol> lookup(const ProcScope &Scope,
                               const std::string &Name) const;

  DiagnosticsEngine &Diags;
  bool RequireMain = true;
  std::unordered_map<std::string, Symbol> GlobalNames;
  /// Procedures by name, pointing into the Program under check() (valid
  /// only during that call). A redefinition keeps the first definition,
  /// and calls are checked against it.
  std::unordered_map<std::string_view, const ProcDecl *> ProcsByName;
};

} // namespace ipcp

#endif // IPCP_FRONTEND_SEMA_H

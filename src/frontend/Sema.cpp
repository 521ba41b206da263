//===- frontend/Sema.cpp --------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include "support/Casting.h"

using namespace ipcp;

bool Sema::check(const Program &Prog) {
  GlobalNames.clear();
  ProcsByName.clear();

  for (const GlobalDecl &G : Prog.Globals) {
    for (const DeclItem &Item : G.Items) {
      Symbol Sym = Item.isArray() ? Symbol::Array : Symbol::Scalar;
      if (!GlobalNames.emplace(Item.Name, Sym).second)
        Diags.error(Item.Loc, "redefinition of global '" + Item.Name + "'");
    }
  }

  ProcsByName.reserve(Prog.Procs.size());
  for (const ProcDecl &P : Prog.Procs) {
    if (!ProcsByName.emplace(P.Name, &P).second)
      Diags.error(P.Loc, "redefinition of procedure '" + P.Name + "'");
    if (GlobalNames.count(P.Name))
      Diags.error(P.Loc, "procedure '" + P.Name +
                             "' has the same name as a global variable");
  }

  for (const ProcDecl &P : Prog.Procs)
    checkProc(P);

  if (RequireMain) {
    auto Main = ProcsByName.find("main");
    if (Main == ProcsByName.end())
      Diags.error(SourceLoc(), "program has no 'main' procedure");
    else if (!Main->second->Params.empty())
      Diags.error(Main->second->Loc, "'main' must take no parameters");
  }

  return !Diags.hasErrors();
}

void Sema::declare(ProcScope &Scope, const DeclItem &Item, const char *What) {
  Symbol Sym = Item.isArray() ? Symbol::Array : Symbol::Scalar;
  if (!Scope.Names.emplace(Item.Name, Sym).second)
    Diags.error(Item.Loc, std::string("redefinition of ") + What + " '" +
                              Item.Name + "' in procedure '" +
                              Scope.Proc->Name + "'");
}

std::optional<Sema::Symbol> Sema::lookup(const ProcScope &Scope,
                                         const std::string &Name) const {
  auto Local = Scope.Names.find(Name);
  if (Local != Scope.Names.end())
    return Local->second;
  auto Global = GlobalNames.find(Name);
  if (Global != GlobalNames.end())
    return Global->second;
  return std::nullopt;
}

void Sema::checkProc(const ProcDecl &Proc) {
  ProcScope Scope;
  Scope.Proc = &Proc;
  for (const DeclItem &Param : Proc.Params)
    declare(Scope, Param, "parameter");

  // Fortran-style flat procedure scope: hoist every `var` declaration in
  // the body (including inside nested blocks) before checking uses.
  // A use before the textual declaration reads an uninitialized (zero)
  // value, exactly like Fortran; lowering gives locals an explicit zero
  // initialization so execution and analysis agree.
  std::vector<const Stmt *> Stack{Proc.Body.get()};
  while (!Stack.empty()) {
    const Stmt *S = Stack.back();
    Stack.pop_back();
    if (const auto *Block = dyn_cast<BlockStmt>(S)) {
      for (const StmtPtr &Child : Block->getStmts())
        Stack.push_back(Child.get());
    } else if (const auto *If = dyn_cast<IfStmt>(S)) {
      Stack.push_back(If->getThen());
      if (If->getElse())
        Stack.push_back(If->getElse());
    } else if (const auto *While = dyn_cast<WhileStmt>(S)) {
      Stack.push_back(While->getBody());
    } else if (const auto *Do = dyn_cast<DoLoopStmt>(S)) {
      Stack.push_back(Do->getBody());
    } else if (const auto *Decl = dyn_cast<VarDeclStmt>(S)) {
      for (const DeclItem &Item : Decl->getItems())
        declare(Scope, Item, "local variable");
    }
  }

  checkStmt(Scope, Proc.Body.get(), /*LoopIndVar=*/nullptr);
}

void Sema::checkStmt(ProcScope &Scope, const Stmt *S,
                     const std::string *LoopIndVar) {
  switch (S->getKind()) {
  case Stmt::Kind::VarDecl:
    return; // handled during hoisting
  case Stmt::Kind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    checkLValue(Scope, Assign->getTarget());
    checkExpr(Scope, Assign->getValue());
    if (LoopIndVar) {
      if (const auto *Ref = dyn_cast<VarRefExpr>(Assign->getTarget()))
        if (Ref->getName() == *LoopIndVar)
          Diags.warning(S->getLoc(), "assignment to do-loop induction "
                                     "variable '" +
                                         *LoopIndVar + "' inside the loop");
    }
    return;
  }
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    checkExpr(Scope, If->getCond());
    checkStmt(Scope, If->getThen(), LoopIndVar);
    if (If->getElse())
      checkStmt(Scope, If->getElse(), LoopIndVar);
    return;
  }
  case Stmt::Kind::While: {
    const auto *While = cast<WhileStmt>(S);
    checkExpr(Scope, While->getCond());
    checkStmt(Scope, While->getBody(), LoopIndVar);
    return;
  }
  case Stmt::Kind::DoLoop: {
    const auto *Do = cast<DoLoopStmt>(S);
    auto Sym = lookup(Scope, Do->getIndVar());
    if (!Sym)
      Diags.error(S->getLoc(), "use of undeclared variable '" +
                                   Do->getIndVar() + "'");
    else if (*Sym == Symbol::Array)
      Diags.error(S->getLoc(), "do-loop induction variable '" +
                                   Do->getIndVar() + "' is an array");
    checkExpr(Scope, Do->getLo());
    checkExpr(Scope, Do->getHi());
    if (Do->getStep())
      checkExpr(Scope, Do->getStep());
    const std::string IndVar = Do->getIndVar();
    checkStmt(Scope, Do->getBody(), &IndVar);
    return;
  }
  case Stmt::Kind::Call: {
    const auto *Call = cast<CallStmt>(S);
    auto It = ProcsByName.find(Call->getCallee());
    const ProcDecl *Callee = It == ProcsByName.end() ? nullptr : It->second;
    if (!Callee) {
      Diags.error(S->getLoc(),
                  "call to undefined procedure '" + Call->getCallee() + "'");
    } else if (Callee->Params.size() != Call->getArgs().size()) {
      Diags.error(S->getLoc(),
                  "procedure '" + Call->getCallee() + "' expects " +
                      std::to_string(Callee->Params.size()) +
                      " argument(s), got " +
                      std::to_string(Call->getArgs().size()));
    }
    for (const ExprPtr &Arg : Call->getArgs()) {
      // A bare array name is not a valid argument (arrays are shared via
      // globals); a subscripted element is fine.
      if (const auto *Ref = dyn_cast<VarRefExpr>(Arg.get())) {
        auto Sym = lookup(Scope, Ref->getName());
        if (Sym && *Sym == Symbol::Array) {
          Diags.error(Arg->getLoc(), "array '" + Ref->getName() +
                                         "' cannot be passed as an argument");
          continue;
        }
      }
      checkExpr(Scope, Arg.get());
    }
    return;
  }
  case Stmt::Kind::Print:
    checkExpr(Scope, cast<PrintStmt>(S)->getValue());
    return;
  case Stmt::Kind::Read:
    checkLValue(Scope, cast<ReadStmt>(S)->getTarget());
    return;
  case Stmt::Kind::Return:
    return;
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->getStmts())
      checkStmt(Scope, Child.get(), LoopIndVar);
    return;
  }
}

void Sema::checkLValue(const ProcScope &Scope, const Expr *E) {
  if (isa<VarRefExpr, ArrayRefExpr>(E)) {
    checkExpr(Scope, E);
    return;
  }
  Diags.error(E->getLoc(), "assignment target must be a variable or array "
                           "element");
}

void Sema::checkExpr(const ProcScope &Scope, const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    return;
  case Expr::Kind::VarRef: {
    const auto *Ref = cast<VarRefExpr>(E);
    auto Sym = lookup(Scope, Ref->getName());
    if (!Sym)
      Diags.error(E->getLoc(),
                  "use of undeclared variable '" + Ref->getName() + "'");
    else if (*Sym == Symbol::Array)
      Diags.error(E->getLoc(),
                  "array '" + Ref->getName() + "' used without a subscript");
    return;
  }
  case Expr::Kind::ArrayRef: {
    const auto *Ref = cast<ArrayRefExpr>(E);
    auto Sym = lookup(Scope, Ref->getName());
    if (!Sym)
      Diags.error(E->getLoc(),
                  "use of undeclared array '" + Ref->getName() + "'");
    else if (*Sym == Symbol::Scalar)
      Diags.error(E->getLoc(),
                  "scalar '" + Ref->getName() + "' subscripted like an array");
    checkExpr(Scope, Ref->getIndex());
    return;
  }
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    checkExpr(Scope, Bin->getLHS());
    checkExpr(Scope, Bin->getRHS());
    return;
  }
  case Expr::Kind::Unary:
    checkExpr(Scope, cast<UnaryExpr>(E)->getOperand());
    return;
  }
}

//===- tests/SemaTests.cpp - MiniFort semantic checks ---------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

TEST(Sema, AcceptsValidProgram) {
  parseOk("global g;\n"
          "proc helper(a, b) { a = b + g; }\n"
          "proc main() { var x; call helper(x, 2); }");
}

TEST(Sema, DuplicateGlobal) {
  EXPECT_NE(parseErrors("global g; global g;\nproc main() { }")
                .find("redefinition of global 'g'"),
            std::string::npos);
}

TEST(Sema, DuplicateProcedure) {
  EXPECT_NE(parseErrors("proc f() { }\nproc f() { }\nproc main() { }")
                .find("redefinition of procedure 'f'"),
            std::string::npos);
}

TEST(Sema, ProcedureClashesWithGlobal) {
  EXPECT_NE(parseErrors("global f;\nproc f() { }\nproc main() { }")
                .find("same name as a global"),
            std::string::npos);
}

TEST(Sema, DuplicateParameter) {
  EXPECT_NE(parseErrors("proc f(a, a) { }\nproc main() { }")
                .find("redefinition of parameter 'a'"),
            std::string::npos);
}

TEST(Sema, DuplicateLocal) {
  EXPECT_NE(parseErrors("proc main() { var x; var x; }")
                .find("redefinition of local variable 'x'"),
            std::string::npos);
}

TEST(Sema, LocalShadowingParameterRejected) {
  EXPECT_NE(parseErrors("proc f(a) { var a; }\nproc main() { }")
                .find("redefinition"),
            std::string::npos);
}

TEST(Sema, LocalMayShadowGlobal) {
  parseOk("global g;\nproc main() { var g; g = 1; }");
}

TEST(Sema, FlatProcedureScope) {
  // Fortran-style: declarations in nested blocks are procedure-wide, so a
  // second declaration anywhere in the body is a redefinition...
  EXPECT_NE(parseErrors("proc main() { if (1) { var x; } else { var x; } }")
                .find("redefinition"),
            std::string::npos);
  // ...and a use before the textual declaration is legal (reads zero).
  parseOk("proc main() { x = 1; var x; }");
}

TEST(Sema, UndeclaredVariable) {
  EXPECT_NE(parseErrors("proc main() { x = 1; }")
                .find("undeclared variable 'x'"),
            std::string::npos);
}

TEST(Sema, UndefinedProcedure) {
  EXPECT_NE(parseErrors("proc main() { call nope(); }")
                .find("undefined procedure 'nope'"),
            std::string::npos);
}

TEST(Sema, CallArityMismatch) {
  std::string Errs =
      parseErrors("proc f(a, b) { }\nproc main() { call f(1); }");
  EXPECT_NE(Errs.find("expects 2 argument(s), got 1"), std::string::npos);
}

TEST(Sema, RedefinedProcedureFirstDefinitionDecidesArity) {
  // Calls are checked against the first definition of f only: the call
  // matching the second definition's arity is the one reported.
  EXPECT_EQ(parseErrors("proc f(a) { }\nproc f(a, b) { }\n"
                        "proc main() { call f(1); call f(1, 2); }"),
            "2:1: error: redefinition of procedure 'f'\n"
            "3:26: error: procedure 'f' expects 1 argument(s), got 2\n");
}

TEST(Sema, ForwardReferencesAllowed) {
  parseOk("proc main() { call later(1); }\nproc later(x) { }");
}

TEST(Sema, RecursionAllowed) {
  parseOk("proc f(n) { if (n > 0) { call f(n - 1); } }\n"
          "proc main() { call f(3); }");
}

TEST(Sema, ArrayWithoutSubscript) {
  EXPECT_NE(parseErrors("proc main() { var a[3]; print a; }")
                .find("used without a subscript"),
            std::string::npos);
}

TEST(Sema, ScalarWithSubscript) {
  EXPECT_NE(parseErrors("proc main() { var x; print x[0]; }")
                .find("subscripted like an array"),
            std::string::npos);
}

TEST(Sema, ArrayCannotBePassed) {
  EXPECT_NE(parseErrors("proc f(a) { }\n"
                        "proc main() { var m[3]; call f(m); }")
                .find("cannot be passed as an argument"),
            std::string::npos);
}

TEST(Sema, ArrayElementCanBePassed) {
  parseOk("proc f(a) { }\nproc main() { var m[3]; call f(m[1]); }");
}

TEST(Sema, DoLoopInductionMustBeScalar) {
  EXPECT_NE(parseErrors("proc main() { var a[3]; do a = 1, 2 { } }")
                .find("is an array"),
            std::string::npos);
}

TEST(Sema, DoLoopInductionAssignmentWarns) {
  DiagnosticsEngine Diags;
  std::optional<Program> Prog = parseAndCheck(
      "proc main() { var i; do i = 1, 3 { i = 0; } }", Diags);
  EXPECT_TRUE(Prog.has_value());
  bool SawWarning = false;
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Kind == DiagKind::Warning &&
        D.Message.find("induction") != std::string::npos)
      SawWarning = true;
  EXPECT_TRUE(SawWarning) << Diags.str();
}

TEST(Sema, MainRequired) {
  EXPECT_NE(parseErrors("proc f() { }").find("no 'main'"),
            std::string::npos);
  parseOk("proc f() { }", /*RequireMain=*/false);
}

TEST(Sema, MainMustTakeNoParameters) {
  EXPECT_NE(parseErrors("proc main(x) { }")
                .find("'main' must take no parameters"),
            std::string::npos);
}

TEST(Sema, AssignToUndeclaredArray) {
  EXPECT_NE(parseErrors("proc main() { a[0] = 1; }")
                .find("undeclared array 'a'"),
            std::string::npos);
}

TEST(Sema, GlobalsVisibleInAllProcedures) {
  parseOk("global shared;\n"
          "proc a() { shared = 1; }\n"
          "proc b() { print shared; }\n"
          "proc main() { call a(); call b(); }");
}

} // namespace

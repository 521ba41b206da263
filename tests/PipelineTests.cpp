//===- tests/PipelineTests.cpp - end-to-end driver tests ------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/DeadCode.h"
#include "core/Pipeline.h"
#include "workload/Programs.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// The ocean-like pattern used throughout: an init routine, a guarded
/// clobber, and phases reading the constants.
const char *OceanLike = R"(
global nx, dt, steps, debug, depth;
proc init() {
  nx = 20; dt = 4; steps = 3; debug = 0; depth = 100;
}
proc noisy() {
  var v;
  read v;
  depth = v;
}
proc phase(k) {
  if (debug != 0) { call noisy(); }
  print depth + k * dt;
}
proc main() {
  var t;
  call init();
  do t = 1, steps { call phase(t); }
  print depth;
}
)";

TEST(Pipeline, CountsConstantReferences) {
  auto M = lowerOk("proc f(a) { print a + a; }\n"
                   "proc main() { call f(21); }");
  IPCPResult R = runIPCP(*M);
  EXPECT_EQ(R.findProc("f")->ConstantRefs, 2u) << "both refs of a";
  EXPECT_EQ(R.TotalConstantRefs, 2u);
  EXPECT_EQ(R.TotalEntryConstants, 1u);
}

TEST(Pipeline, CountsIncludeIntraproceduralCascades) {
  // The metric counts every variable reference proven constant once the
  // entry constants are substituted and local propagation reruns.
  auto M = lowerOk("proc f(a) { var b; b = a * 2; print b + 1; }\n"
                   "proc main() { call f(10); }");
  IPCPResult R = runIPCP(*M);
  EXPECT_EQ(R.findProc("f")->ConstantRefs, 2u) << "the a ref and the b ref";
}

TEST(Pipeline, RefsInDeadBranchesAreNotCounted) {
  auto M = lowerOk("proc f(flag, x) { if (flag) { print x; } }\n"
                   "proc main() { call f(0, 5); }");
  IPCPResult R = runIPCP(*M);
  // flag's own ref in the condition counts; x's ref inside the dead
  // branch does not.
  EXPECT_EQ(R.findProc("f")->ConstantRefs, 1u);
}

TEST(Pipeline, FactsApplyToTheOriginalModule) {
  auto M = lowerOk("proc f(a) { print a; }\n"
                   "proc main() { call f(3); }");
  IPCPResult R = runIPCP(*M);
  ASSERT_EQ(R.Facts.ConstantLoads.size(), 1u);
  TransformStats Stats = applyFacts(*M, R.Facts);
  EXPECT_EQ(Stats.LoadsReplaced, 1u);
  expectVerifies(*M, VerifyMode::PreSSA);
  // After substitution, no scalar load of the formal remains in f.
  EXPECT_EQ(countInsts<LoadInst>(*getProc(*M, "f")), 0u);
}

TEST(Pipeline, ModuleIsNotMutatedByAnalysis) {
  auto M = lowerOk("proc f(a) { print a; }\nproc main() { call f(3); }");
  unsigned Before = M->instructionCount();
  runIPCP(*M);
  EXPECT_EQ(M->instructionCount(), Before);
}

TEST(Pipeline, OceanPatternNeedsReturnJumpFunctions) {
  auto M = lowerOk(OceanLike);
  IPCPResult With = runIPCP(*M);
  IPCPOptions NoRet;
  NoRet.UseReturnJumpFunctions = false;
  IPCPResult Without = runIPCP(*M, NoRet);
  EXPECT_GT(With.TotalConstantRefs, 3 * Without.TotalConstantRefs)
      << "the init-routine constants dominate (paper: ocean tripled)";
}

TEST(Pipeline, CompletePropagationExposesGuardedConstants) {
  auto M = lowerOk(OceanLike);
  IPCPResult Single = runIPCP(*M);
  CompletePropagationResult Complete = runCompletePropagation(*M);
  EXPECT_EQ(Complete.Rounds, 2u) << "one dead-code round, as in the paper";
  EXPECT_GT(Complete.TotalConstantRefs, Single.TotalConstantRefs)
      << "depth becomes provably constant once noisy() is removed";
  EXPECT_GT(Complete.BlocksRemoved, 0u);
}

TEST(Pipeline, CompletePropagationIsIdempotentWithoutDeadCode) {
  auto M = lowerOk("proc f(a) { print a; }\nproc main() { call f(3); }");
  IPCPResult Single = runIPCP(*M);
  CompletePropagationResult Complete = runCompletePropagation(*M);
  EXPECT_EQ(Complete.Rounds, 1u);
  EXPECT_EQ(Complete.TotalConstantRefs, Single.TotalConstantRefs);
  EXPECT_EQ(Complete.BlocksRemoved, 0u);
}

TEST(Pipeline, CompletePropagationDoesNotMutateInput) {
  auto M = lowerOk(OceanLike);
  unsigned Before = M->instructionCount();
  runCompletePropagation(*M);
  EXPECT_EQ(M->instructionCount(), Before);
}

TEST(Pipeline, CompletePropagationRefsAreTheSubstitutedLoads) {
  // applyFacts replaces and erases every load a round names, so no load
  // is counted twice: the rounds' substituted loads are the distinct
  // references proven constant.
  const JumpFunctionKind Kinds[] = {
      JumpFunctionKind::Literal, JumpFunctionKind::IntraproceduralConstant,
      JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial};
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    auto M = loadSuiteModule(Prog);
    for (JumpFunctionKind Kind : Kinds) {
      IPCPOptions Opts;
      Opts.ForwardKind = Kind;
      CompletePropagationResult CP = runCompletePropagation(*M, Opts);
      EXPECT_EQ(CP.TotalConstantRefs, CP.Stats.get("cp_loads_replaced"))
          << Prog.Name << " " << jumpFunctionKindName(Kind);
      EXPECT_GE(CP.TotalConstantRefs, runIPCP(*M, Opts).TotalConstantRefs)
          << Prog.Name << " " << jumpFunctionKindName(Kind);
    }
  }
}

TEST(Pipeline, CompleteAndOptimizeStopOnDifferentRules) {
  // One analyze→substitute loop, two stopping rules: complete
  // propagation stops at the first round that removes no block (the
  // paper's Table 3 rule), the constants pass of optimizeModule at the
  // first round that changes nothing.
  struct Case {
    const char *Program;
    IPCPOptions Opts;
    unsigned CompleteRounds, CompleteRefs, OptRounds, Substitutions;
  };
  IPCPOptions Intra;
  Intra.ForwardKind = JumpFunctionKind::IntraproceduralConstant;
  IPCPOptions NoMod;
  NoMod.UseModInformation = false;
  const Case Cases[] = {{"snasa7", Intra, 1, 7, 5, 21},
                        {"fpppp", NoMod, 1, 9, 3, 24}};

  TransformPassConfig ConstantsOnly;
  ConstantsOnly.CopyPropagation = false;
  for (const Case &C : Cases) {
    auto M = loadSuiteModule(*findSuiteProgram(C.Program));
    CompletePropagationResult CP = runCompletePropagation(*M, C.Opts);
    EXPECT_EQ(CP.Rounds, C.CompleteRounds) << C.Program;
    EXPECT_EQ(CP.TotalConstantRefs, C.CompleteRefs) << C.Program;

    OptimizationResult Opt = optimizeModule(*M, C.Opts, ConstantsOnly);
    EXPECT_EQ(Opt.Rounds, C.OptRounds) << C.Program;
    EXPECT_EQ(Opt.Substitutions, C.Substitutions) << C.Program;
  }
}

TEST(Pipeline, IntraproceduralBaseline) {
  auto M = lowerOk("proc f(a) { var k; k = 6; print k + a; }\n"
                   "proc main() { call f(1); }");
  IPCPOptions Intra;
  Intra.IntraproceduralOnly = true;
  IPCPResult R = runIPCP(*M, Intra);
  EXPECT_EQ(R.TotalEntryConstants, 0u) << "no interprocedural information";
  EXPECT_EQ(R.findProc("f")->ConstantRefs, 1u) << "only the local k";
  IPCPResult Full = runIPCP(*M);
  EXPECT_EQ(Full.findProc("f")->ConstantRefs, 2u);
}

TEST(Pipeline, StatsExposePhaseTimings) {
  auto M = lowerOk(OceanLike);
  IPCPResult R = runIPCP(*M);
  EXPECT_GT(R.Stats.get("constants_found"), 0u);
  EXPECT_EQ(R.Stats.get("constant_refs"), R.TotalConstantRefs);
  EXPECT_GT(R.Stats.get("rjf_entries"), 0u);
  EXPECT_GT(R.Stats.get("jf_constant") + R.Stats.get("jf_passthrough") +
                R.Stats.get("jf_polynomial"),
            0u);
  // Timings exist (values are machine dependent).
  EXPECT_GE(R.Stats.get("time_total_us"), R.Stats.get("time_propagation_us"));
}

TEST(Pipeline, NoModOptionUsesWorstCase) {
  // The calls sit in a loop so the phi at the header defeats the
  // identity-return-jump-function recovery; without MOD information the
  // body's view of g is destroyed, exactly the Table 3 column 1 effect.
  auto M = lowerOk("global g;\n"
                   "proc pure(a) { print a + g; }\n"
                   "proc main() { var t; g = 8; do t = 1, 3 { "
                   "call pure(1); } }");
  IPCPResult With = runIPCP(*M);
  IPCPOptions NoMod;
  NoMod.UseModInformation = false;
  IPCPResult Without = runIPCP(*M, NoMod);
  EXPECT_GT(With.TotalConstantRefs, Without.TotalConstantRefs)
      << "without MOD the second call site loses g";
}

TEST(Pipeline, CustomEntryProcedure) {
  auto M = lowerOk("global g;\nproc start() { print g; }\n"
                   "proc main() { print 1; }");
  IPCPOptions Opts;
  Opts.EntryProcedure = "start";
  IPCPResult R = runIPCP(*M, Opts);
  const ProcedureResult *Start = R.findProc("start");
  ASSERT_EQ(Start->EntryConstants.size(), 1u);
  EXPECT_EQ(Start->EntryConstants[0].first, "g");
  EXPECT_EQ(Start->EntryConstants[0].second, 0);
}

TEST(Pipeline, EmptyProgramIsFine) {
  auto M = lowerOk("proc main() { }");
  IPCPResult R = runIPCP(*M);
  EXPECT_EQ(R.TotalConstantRefs, 0u);
  CompletePropagationResult C = runCompletePropagation(*M);
  EXPECT_EQ(C.Rounds, 1u);
}

} // namespace

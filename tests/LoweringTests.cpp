//===- tests/LoweringTests.cpp - AST to IR lowering tests -----------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/IRPrinter.h"
#include "support/Casting.h"
#include "workload/Generator.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

TEST(Lowering, EmptyMainHasEntryAndExit) {
  auto M = lowerOk("proc main() { }");
  Procedure *Main = getProc(*M, "main");
  ASSERT_EQ(Main->blocks().size(), 2u);
  EXPECT_EQ(Main->getEntryBlock()->getName(), "entry");
  EXPECT_NE(Main->getExitBlock(), nullptr);
  EXPECT_TRUE(isa<RetInst>(Main->getExitBlock()->getTerminator()));
}

TEST(Lowering, ScalarLocalsZeroInitialized) {
  auto M = lowerOk("proc main() { var x, y; print x + y; }");
  Procedure *Main = getProc(*M, "main");
  unsigned ZeroStores = 0;
  for (const std::unique_ptr<Instruction> &Inst :
       Main->getEntryBlock()->instructions()) {
    auto *Store = dyn_cast<StoreInst>(Inst.get());
    if (!Store)
      continue;
    auto *C = dyn_cast<ConstantInt>(Store->getValueOperand());
    if (C && C->getValue() == 0)
      ++ZeroStores;
  }
  EXPECT_EQ(ZeroStores, 2u);
}

TEST(Lowering, EveryVariableReferenceIsOneLoad) {
  auto M = lowerOk("proc main() { var x, y; y = x + x * x; }");
  Procedure *Main = getProc(*M, "main");
  EXPECT_EQ(countInsts<LoadInst>(*Main), 3u) << "three refs to x";
  EXPECT_EQ(countInsts<StoreInst>(*Main), 3u) << "two zero-inits + y";
}

TEST(Lowering, IfProducesDiamond) {
  auto M = lowerOk(
      "proc main() { var x; if (x > 0) { x = 1; } else { x = 2; } print x; }");
  Procedure *Main = getProc(*M, "main");
  // entry, then, else, merge, exit.
  EXPECT_EQ(Main->blocks().size(), 5u);
  EXPECT_EQ(countInsts<CondBranchInst>(*Main), 1u);
}

TEST(Lowering, IfWithoutElseBranchesToMerge) {
  auto M = lowerOk("proc main() { var x; if (x > 0) { x = 1; } print x; }");
  Procedure *Main = getProc(*M, "main");
  auto *CBr = firstInst<CondBranchInst>(*Main);
  ASSERT_NE(CBr, nullptr);
  EXPECT_NE(CBr->getTrueTarget(), CBr->getFalseTarget());
}

TEST(Lowering, WhileLoopShape) {
  auto M = lowerOk("proc main() { var x; while (x < 3) { x = x + 1; } }");
  Procedure *Main = getProc(*M, "main");
  // entry, header, body, exit-of-loop, proc exit.
  EXPECT_EQ(Main->blocks().size(), 5u);
  // The header has two predecessors: entry and the body (back edge).
  bool FoundLoopHeader = false;
  for (const std::unique_ptr<BasicBlock> &BB : Main->blocks())
    if (BB->predecessors().size() == 2)
      FoundLoopHeader = true;
  EXPECT_TRUE(FoundLoopHeader);
}

TEST(Lowering, DoLoopEvaluatesBoundsOnce) {
  auto M = lowerOk(
      "global g;\nproc main() { var i; do i = 1, g + 5 { g = g + 1; } }");
  Procedure *Main = getProc(*M, "main");
  // The bound expression g+5 is computed in the preheader: exactly one
  // Add of a load with 5 in the entry block.
  unsigned AddsInEntry = 0;
  for (const std::unique_ptr<Instruction> &Inst :
       Main->getEntryBlock()->instructions())
    if (isa<BinaryInst>(Inst.get()))
      ++AddsInEntry;
  EXPECT_EQ(AddsInEntry, 1u);
}

TEST(Lowering, DoLoopNegativeLiteralStepComparesDownward) {
  auto M = lowerOk("proc main() { var i, s; do i = 9, 0, -3 { s = s + i; } }");
  Procedure *Main = getProc(*M, "main");
  bool FoundGe = false;
  for (const std::unique_ptr<BasicBlock> &BB : Main->blocks())
    for (const std::unique_ptr<Instruction> &Inst : BB->instructions())
      if (auto *Bin = dyn_cast<BinaryInst>(Inst.get()))
        if (Bin->getOp() == BinaryOp::CmpGe)
          FoundGe = true;
  EXPECT_TRUE(FoundGe);
}

TEST(Lowering, CallActualClassification) {
  auto M = lowerOk("global g;\n"
                   "proc f(a, b, c, d) { }\n"
                   "proc main() { var x, m[2]; call f(7, x, x + 1, m[0]); }");
  Procedure *Main = getProc(*M, "main");
  auto *Call = firstInst<CallInst>(*Main);
  ASSERT_NE(Call, nullptr);
  ASSERT_EQ(Call->getNumActuals(), 4u);

  EXPECT_TRUE(Call->getActual(0).WasLiteral);
  EXPECT_EQ(Call->getActual(0).ByRefLoc, nullptr);

  EXPECT_FALSE(Call->getActual(1).WasLiteral);
  ASSERT_NE(Call->getActual(1).ByRefLoc, nullptr);
  EXPECT_EQ(Call->getActual(1).ByRefLoc->getName(), "x");

  EXPECT_EQ(Call->getActual(2).ByRefLoc, nullptr) << "expression actual";
  EXPECT_EQ(Call->getActual(3).ByRefLoc, nullptr) << "array element actual";
}

TEST(Lowering, GlobalActualIsByRef) {
  auto M = lowerOk("global g;\nproc f(a) { }\nproc main() { call f(g); }");
  auto *Call = firstInst<CallInst>(*getProc(*M, "main"));
  ASSERT_NE(Call, nullptr);
  ASSERT_NE(Call->getActual(0).ByRefLoc, nullptr);
  EXPECT_TRUE(Call->getActual(0).ByRefLoc->isGlobal());
}

TEST(Lowering, ReturnBranchesToExitAndDropsDeadCode) {
  auto M = lowerOk("proc main() { var x; return; x = 1; print x; }");
  Procedure *Main = getProc(*M, "main");
  // The statements after return are unreachable and removed entirely.
  EXPECT_EQ(countInsts<PrintInst>(*Main), 0u);
  expectVerifies(*M, VerifyMode::PreSSA);
}

TEST(Lowering, ReadLowersToReadPlusStore) {
  auto M = lowerOk("proc main() { var x; read x; }");
  Procedure *Main = getProc(*M, "main");
  EXPECT_EQ(countInsts<ReadInst>(*Main), 1u);
  auto *Read = firstInst<ReadInst>(*Main);
  bool Stored = false;
  for (const std::unique_ptr<Instruction> &Inst :
       Main->getEntryBlock()->instructions())
    if (auto *Store = dyn_cast<StoreInst>(Inst.get()))
      if (Store->getValueOperand() == Read)
        Stored = true;
  EXPECT_TRUE(Stored);
}

TEST(Lowering, ArrayAccessLowering) {
  auto M = lowerOk("proc main() { var a[4], i; a[i] = a[i + 1] * 2; }");
  Procedure *Main = getProc(*M, "main");
  EXPECT_EQ(countInsts<ArrayLoadInst>(*Main), 1u);
  EXPECT_EQ(countInsts<ArrayStoreInst>(*Main), 1u);
}

TEST(Lowering, GlobalsLowerToModuleVariables) {
  auto M = lowerOk("global g, h[3];\nproc main() { g = 1; h[0] = g; }");
  ASSERT_EQ(M->globals().size(), 2u);
  EXPECT_TRUE(M->globals()[0]->isScalar());
  EXPECT_TRUE(M->globals()[1]->isArray());
  EXPECT_EQ(M->globals()[1]->getArraySize(), 3);
}

TEST(Lowering, LocalShadowsGlobalInLoweredIR) {
  auto M = lowerOk("global g;\nproc main() { var g; g = 5; }");
  Procedure *Main = getProc(*M, "main");
  bool StoreTargetsLocal = false;
  for (const std::unique_ptr<BasicBlock> &BB : Main->blocks())
    for (const std::unique_ptr<Instruction> &Inst : BB->instructions())
      if (auto *Store = dyn_cast<StoreInst>(Inst.get()))
        if (auto *C = dyn_cast<ConstantInt>(Store->getValueOperand());
            C && C->getValue() == 5)
          StoreTargetsLocal = Store->getVariable()->isLocal();
  EXPECT_TRUE(StoreTargetsLocal);
}

TEST(Lowering, WholeSuiteVerifies) {
  // Conditions, nesting, early returns, recursion: one bigger program.
  auto M = lowerOk(
      "global depth;\n"
      "proc rec(n) {\n"
      "  if (n <= 0) { return; }\n"
      "  depth = depth + 1;\n"
      "  call rec(n - 1);\n"
      "}\n"
      "proc main() {\n"
      "  var i, acc;\n"
      "  do i = 1, 5 {\n"
      "    if (i % 2 == 0) { acc = acc + i; } else { acc = acc - i; }\n"
      "    while (acc > 3) { acc = acc - 2; }\n"
      "  }\n"
      "  call rec(4);\n"
      "  print acc + depth;\n"
      "}\n");
  expectVerifies(*M, VerifyMode::PreSSA);
  EXPECT_GE(M->instructionCount(), 30u);
}

/// Appends the callee of every call statement under \p S to \p Out.
void collectCallees(const Stmt *S, std::vector<std::string> &Out) {
  if (const auto *Call = dyn_cast<CallStmt>(S)) {
    Out.push_back(Call->getCallee());
  } else if (const auto *Block = dyn_cast<BlockStmt>(S)) {
    for (const StmtPtr &Child : Block->getStmts())
      collectCallees(Child.get(), Out);
  } else if (const auto *If = dyn_cast<IfStmt>(S)) {
    collectCallees(If->getThen(), Out);
    if (If->getElse())
      collectCallees(If->getElse(), Out);
  } else if (const auto *While = dyn_cast<WhileStmt>(S)) {
    collectCallees(While->getBody(), Out);
  } else if (const auto *Do = dyn_cast<DoLoopStmt>(S)) {
    collectCallees(Do->getBody(), Out);
  }
}

TEST(Lowering, CallsResolveToTheirNamedCalleeInLargeModules) {
  // Thousands of procedures named p0..pN share prefixes (p1, p10, p100,
  // p1000), so a callee resolved to the wrong procedure shows up as a
  // name mismatch.
  GeneratorConfig Config;
  Config.Seed = 5;
  Config.NumProcs = 4100;
  Config.StmtsPerProc = 3;
  Config.CallChance = 60;
  Config.UseArrays = false;
  Program Prog = parseOk(generateProgram(Config));
  std::unique_ptr<Module> M = lowerProgram(Prog);
  ASSERT_EQ(M->procedures().size(), Prog.Procs.size());
  ASSERT_GE(M->procedures().size(), 4096u);

  size_t Calls = 0;
  for (size_t I = 0; I != Prog.Procs.size(); ++I) {
    const Procedure &P = *M->procedures()[I];
    ASSERT_EQ(P.getName(), Prog.Procs[I].Name);
    std::vector<std::string> AstCallees, IRCallees;
    collectCallees(Prog.Procs[I].Body.get(), AstCallees);
    for (CallInst *Site : P.callSites())
      IRCallees.push_back(Site->getCallee()->getName());
    // Lowering may order blocks differently from the statements; the
    // callees as a multiset must agree.
    std::sort(AstCallees.begin(), AstCallees.end());
    std::sort(IRCallees.begin(), IRCallees.end());
    ASSERT_EQ(IRCallees, AstCallees) << "in procedure " << P.getName();
    Calls += IRCallees.size();
  }
  EXPECT_GE(Calls, 4096u);
}

TEST(Lowering, PrinterMentionsCoreInstructions) {
  auto M = lowerOk("global g;\nproc main() { var x; x = g + 1; print x; }");
  std::string Text = printModule(*M);
  EXPECT_NE(Text.find("load g"), std::string::npos);
  EXPECT_NE(Text.find("store x"), std::string::npos);
  EXPECT_NE(Text.find("print"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

} // namespace

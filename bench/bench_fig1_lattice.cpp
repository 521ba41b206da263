//===- bench/bench_fig1_lattice.cpp - Figure 1 reproduction ---------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Figure 1 of the paper defines the constant propagation lattice and its
// meet operation. This binary (a) prints the meet rule table so it can be
// compared against the figure directly, and (b) measures the cost of the
// meet and of jump-function evaluation — the innermost operations of the
// propagation phase whose complexity Section 3.1.5 analyzes.
//
//===----------------------------------------------------------------------===//

#include "core/JumpFunction.h"
#include "analysis/Lattice.h"
#include "ir/Module.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

using namespace ipcp;

static void printMeetTable() {
  const LatticeValue Samples[] = {
      LatticeValue::top(), LatticeValue::constant(7),
      LatticeValue::constant(9), LatticeValue::bottom()};
  std::printf("Figure 1: the constant propagation lattice meet\n");
  std::printf("%8s", "/\\");
  for (LatticeValue B : Samples)
    std::printf("%8s", B.str().c_str());
  std::printf("\n");
  for (LatticeValue A : Samples) {
    std::printf("%8s", A.str().c_str());
    for (LatticeValue B : Samples)
      std::printf("%8s", meet(A, B).str().c_str());
    std::printf("\n");
  }
  std::printf("\n");
}

static void BM_MeetOperation(benchmark::State &State) {
  std::vector<LatticeValue> Values;
  for (int I = 0; I != 64; ++I)
    Values.push_back(I % 3 == 0   ? LatticeValue::top()
                     : I % 3 == 1 ? LatticeValue::constant(I)
                                  : LatticeValue::bottom());
  size_t I = 0;
  for (auto _ : State) {
    LatticeValue Result =
        meet(Values[I % Values.size()], Values[(I + 7) % Values.size()]);
    benchmark::DoNotOptimize(Result);
    ++I;
  }
}
BENCHMARK(BM_MeetOperation);

/// Evaluation cost by jump function shape: constant vs pass-through vs
/// polynomial (the cost(J) factor in the propagation bound).
static void BM_JumpFunctionEvaluate(benchmark::State &State) {
  Module M;
  Procedure *P = M.createProcedure("p");
  Variable *A = P->addFormal("a");
  Variable *B = P->addFormal("b");
  SymExprContext Ctx;

  int Shape = State.range(0);
  JumpFunction JF;
  switch (Shape) {
  case 0:
    JF = JumpFunction::constant(Ctx, 42);
    break;
  case 1:
    JF = JumpFunction(Ctx.getFormal(A));
    break;
  default: {
    // ((a * 2 + b) * 3 + a): a small polynomial, like those the paper
    // observed in practice.
    const SymExpr *E = Ctx.getBinary(
        BinaryOp::Add,
        Ctx.getBinary(
            BinaryOp::Mul,
            Ctx.getBinary(BinaryOp::Add,
                          Ctx.getBinary(BinaryOp::Mul, Ctx.getFormal(A),
                                        Ctx.getConst(2)),
                          Ctx.getFormal(B)),
            Ctx.getConst(3)),
        Ctx.getFormal(A));
    JF = JumpFunction(E);
    break;
  }
  }

  LatticeEnv Env;
  Env[A] = LatticeValue::constant(5);
  Env[B] = LatticeValue::constant(6);
  for (auto _ : State) {
    LatticeValue Result = JF.evaluate(Env);
    benchmark::DoNotOptimize(Result);
  }
}
BENCHMARK(BM_JumpFunctionEvaluate)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("shape(0=const,1=passthru,2=poly)");

int main(int argc, char **argv) {
  printMeetTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

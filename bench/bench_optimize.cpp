//===- bench/bench_optimize.cpp - transform pipeline effectiveness --------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the paper's Table 2/3 experiments imagine but never
// run: the transformed program. For each suite program the harness
// optimizes the module (constant substitution + folding, then copy
// propagation; docs/TRANSFORMS.md), interprets the original and the
// optimized module, and reports the interpreted-execution speedup in
// steps alongside the rewrite totals. BENCH_optimize.json carries the
// per-program rows and the suite totals.
//
// The harness FAILS (exit 1) if the pipeline stops doing real work on
// the suite — fewer than 10 substitutions or no resolved branch in
// total — so an effectiveness regression cannot slip through a green
// bench run. The same floor is enforced by the fast tests
// (tests/TransformTests.cpp).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Pipeline.h"
#include "interp/Interpreter.h"
#include "workload/Programs.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

namespace {

/// Wall-clock cost of the full pipeline per suite program.
void BM_OptimizeSuiteProgram(benchmark::State &State) {
  const SuiteProgram &Prog = benchmarkSuite()[State.range(0)];
  State.SetLabel(Prog.Name.c_str());
  for (auto _ : State) {
    State.PauseTiming();
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    State.ResumeTiming();
    OptimizationResult R = optimizeModule(*M);
    benchmark::DoNotOptimize(R.InstsRemoved);
  }
}

/// The headline table: rewrite totals and interpreted-step speedup per
/// suite program, emitted to stdout and BENCH_optimize.json.
int printEffectivenessTable() {
  ExecutionOptions Exec;
  Exec.MaxSteps = 50'000'000;
  Exec.RecordEntrySnapshots = false;

  std::printf("Transform pipeline effectiveness (docs/TRANSFORMS.md):\n");
  std::printf("  %-10s %6s %6s %6s %6s %6s | %9s %9s %8s\n", "program",
              "subst", "folds", "brs", "copies", "insts-", "steps", "steps'",
              "speedup");

  JsonValue Rows = JsonValue::array();
  unsigned Substitutions = 0, Folds = 0, Branches = 0, Copies = 0,
           InstsRemoved = 0;
  uint64_t StepsBefore = 0, StepsAfter = 0;
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    ExecutionResult Before = interpret(*M, Exec);
    OptimizationResult R = optimizeModule(*M);
    ExecutionResult After = interpret(*M, Exec);
    if (!Before.ok() || !After.ok() || Before.Output != After.Output) {
      std::fprintf(stderr, "FATAL: %s changed behavior under --optimize\n",
                   Prog.Name.c_str());
      return 1;
    }

    double Speedup = After.Steps ? double(Before.Steps) / double(After.Steps)
                                 : 1.0;
    std::printf("  %-10s %6u %6u %6u %6u %6u | %9llu %9llu %7.2fx\n",
                Prog.Name.c_str(), R.Substitutions, R.Folds,
                R.BranchesResolved,
                R.CopiesPropagated, R.InstsRemoved,
                static_cast<unsigned long long>(Before.Steps),
                static_cast<unsigned long long>(After.Steps), Speedup);

    JsonValue Row = JsonValue::object();
    Row.set("program", Prog.Name.c_str());
    Row.set("substitutions", R.Substitutions);
    Row.set("folds", R.Folds);
    Row.set("branches_resolved", R.BranchesResolved);
    Row.set("copies_propagated", R.CopiesPropagated);
    Row.set("insts_removed", R.InstsRemoved);
    Row.set("instructions_before", R.InstructionsBefore);
    Row.set("instructions_after", R.InstructionsAfter);
    Row.set("steps_before", Before.Steps);
    Row.set("steps_after", After.Steps);
    Row.set("speedup", Speedup);
    Rows.push(std::move(Row));

    Substitutions += R.Substitutions;
    Folds += R.Folds;
    Branches += R.BranchesResolved;
    Copies += R.CopiesPropagated;
    InstsRemoved += R.InstsRemoved;
    StepsBefore += Before.Steps;
    StepsAfter += After.Steps;
  }

  double SuiteSpeedup =
      StepsAfter ? double(StepsBefore) / double(StepsAfter) : 1.0;
  std::printf("  suite totals: %u substitutions, %u folds, %u branches "
              "resolved, %u copies propagated, %u instructions removed\n",
              Substitutions, Folds, Branches, Copies, InstsRemoved);
  std::printf("  interpreted-execution speedup: %llu -> %llu steps "
              "(%.3fx)\n\n",
              static_cast<unsigned long long>(StepsBefore),
              static_cast<unsigned long long>(StepsAfter), SuiteSpeedup);

  JsonValue Totals = JsonValue::object();
  Totals.set("substitutions", Substitutions);
  Totals.set("folds", Folds);
  Totals.set("branches_resolved", Branches);
  Totals.set("copies_propagated", Copies);
  Totals.set("insts_removed", InstsRemoved);
  Totals.set("steps_before", StepsBefore);
  Totals.set("steps_after", StepsAfter);
  Totals.set("speedup", SuiteSpeedup);

  JsonValue Doc = JsonValue::object();
  Doc.set("rows", std::move(Rows));
  Doc.set("totals", std::move(Totals));
  benchReport("optimize", std::move(Doc));

  if (auto Baseline = benchBaseline("optimize"))
    if (const JsonValue *Base = Baseline->find("totals"))
      if (const JsonValue *BaseSpeedup = Base->find("speedup"))
        if (BaseSpeedup->isNumber())
          printBaselineDelta("suite speedup", BaseSpeedup->asDouble(),
                             SuiteSpeedup, "x", /*LowerIsBetter=*/false);

  // Acceptance floor: the pipeline must keep substituting and resolving
  // on the paper's suite.
  if (Substitutions < 10 || Branches < 1) {
    std::fprintf(stderr,
                 "FATAL: effectiveness floor missed (%u substitutions, %u "
                 "branches resolved; need >=10 and >=1)\n",
                 Substitutions, Branches);
    return 1;
  }
  if (StepsAfter > StepsBefore) {
    std::fprintf(stderr, "FATAL: optimized suite executes MORE steps\n");
    return 1;
  }
  return 0;
}

} // namespace

BENCHMARK(BM_OptimizeSuiteProgram)
    ->DenseRange(0, 11)
    ->ArgName("program")
    ->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  if (int RC = printEffectivenessTable())
    return RC;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

//===- examples/ipcp_driver.cpp - command-line analyzer -------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// A command-line front end for the library, the shape of the analyzer
// described in the paper's Section 4.1 (generation of return jump
// functions, generation of forward jump functions, interprocedural
// propagation, recording the results):
//
//   ipcp_driver FILE.mf [options]
//     --jf=literal|intra|passthrough|polynomial   forward jump functions
//     --no-return-jf                              disable return JFs
//     --no-mod                                    worst-case MOD info
//     --intra-only                                intraprocedural baseline
//     --complete                                  iterate with DCE
//     --clone                                     procedure cloning first
//     --dump-ir                                   print the IR
//     --run                                       execute and show output
//     --stats                                     counter summary table
//     --trace[=FILE]                              per-pass span trace
//     --report-json=FILE                          full JSON report
//     --limit-parse-depth=N  --limit-tokens=N  --limit-ast-nodes=N
//     --limit-ir-insts=N     --limit-prop-evals=N --deadline-ms=N
//                                                 resource budgets
//
// With no FILE, analyzes a built-in demo program.
//
// Exit codes (documented in docs/ROBUSTNESS.md and README.md):
//   0  success
//   1  usage error (unknown flag, malformed value)
//   2  input file cannot be opened or read
//   3  source program has errors
//   4  an output file (report, trace) could not be written
//   5  a resource budget tripped; the run degraded gracefully
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasCheck.h"
#include "core/BindingGraph.h"
#include "core/Cloning.h"
#include "core/Inlining.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/SummaryCache.h"
#include "core/ValueNumbering.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/AstLower.h"
#include "ir/IRPrinter.h"
#include "support/FileIO.h"
#include "support/Trace.h"
#include "workload/Programs.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

using namespace ipcp;

namespace {

const char *DemoSource = R"(
global scale;
proc helper(x, y) {
  print x * scale + y;
}
proc main() {
  scale = 10;
  call helper(4, 2);
  call helper(4, 3);
}
)";

void printUsage() {
  std::printf(
      "usage: ipcp_driver [FILE.mf | --suite=NAME] [options]\n"
      "  --jf=literal|intra|passthrough|polynomial  (default polynomial)\n"
      "  --no-return-jf   --no-mod   --intra-only   --complete   --clone\n"
      "  --binding-graph  --gated-ssa  --check-alias  --integrate\n"
      "  --dump-ir        --dump-jf   --run      --help\n"
      "  --engine=jump|contexts  propagation engine (default jump): the\n"
      "                   1986 caller-merge framework, or the value-contexts\n"
      "                   tabulation (docs/CONTEXTS.md) that never finds\n"
      "                   fewer constants and reports a context_study block\n"
      "  --max-contexts=N contexts-engine tabulation budget (default 4096);\n"
      "                   past it, new entry vectors merge into summary\n"
      "                   contexts (graceful degradation toward jump)\n"
      "  --optimize[=PASSES]  rewrite the program: substitute proven\n"
      "                   constants, fold expressions and branches, then\n"
      "                   forward copies (docs/TRANSFORMS.md). PASSES is a\n"
      "                   comma list of constants, copyprop (default both).\n"
      "                   With --dump-ir, prints before/after IR.\n"
      "  --stats          print the counter summary table\n"
      "  --trace[=FILE]   record per-pass spans (text; stderr or FILE)\n"
      "  --report-json=FILE  write the full analysis report as JSON\n"
      "  --cache-dir=DIR  persistent summary cache for incremental reruns\n"
      "                   (single-run analyses only; see docs/INCREMENTAL.md)\n"
      "  --no-cache       ignore --cache-dir (one-off cold run)\n"
      "  --scrub-timings  zero wall-clock fields in the JSON report so\n"
      "                   identical runs produce identical bytes\n"
      "resource budgets (0 = unlimited; a trip degrades the run, exit 5):\n"
      "  --limit-parse-depth=N  parser recursion depth (default 512)\n"
      "  --limit-tokens=N       tokens per source buffer\n"
      "  --limit-ast-nodes=N    AST nodes the parser may allocate\n"
      "  --limit-ir-insts=N     IR instructions entering (or grown by)\n"
      "                         the analysis\n"
      "  --limit-prop-evals=N   jump-function evaluations per solve\n"
      "  --deadline-ms=N        wall-clock deadline for the whole run\n"
      "exit codes: 0 ok, 1 usage, 2 input unreadable, 3 source errors,\n"
      "            4 output write failed, 5 degraded (budget tripped)\n"
      "suite names: adm doduc fpppp linpackd matrix300 mdg ocean qcd\n"
      "             simple snasa7 spec77 trfd\n");
}

/// Parses the numeric value of --NAME=N budget flags. Exits with a usage
/// error (code 1) on a malformed or out-of-range value.
uint64_t parseLimitValue(const std::string &Arg, size_t PrefixLen) {
  std::string Text = Arg.substr(PrefixLen);
  if (Text.empty() || Text.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "error: malformed value in '%s' (expect a "
                         "non-negative integer)\n",
                 Arg.c_str());
    std::exit(1);
  }
  errno = 0;
  unsigned long long Value = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    std::fprintf(stderr, "error: value out of range in '%s'\n", Arg.c_str());
    std::exit(1);
  }
  return Value;
}

} // namespace

int main(int argc, char **argv) {
  std::string Source = DemoSource;
  std::string SourceName = "<demo>";
  IPCPOptions Opts;
  bool Complete = false, Clone = false, DumpIR = false, Run = false;
  bool CheckAlias = false, DumpJF = false, Integrate = false;
  bool ShowStats = false, TraceOn = false;
  bool NoCache = false, ScrubTimings = false;
  bool Optimize = false;
  TransformPassConfig PassCfg;
  std::string TraceFile, ReportFile, CacheDir;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help") {
      printUsage();
      return 0;
    }
    if (Arg.rfind("--jf=", 0) == 0) {
      std::string Kind = Arg.substr(5);
      if (Kind == "literal")
        Opts.ForwardKind = JumpFunctionKind::Literal;
      else if (Kind == "intra")
        Opts.ForwardKind = JumpFunctionKind::IntraproceduralConstant;
      else if (Kind == "passthrough")
        Opts.ForwardKind = JumpFunctionKind::PassThrough;
      else if (Kind == "polynomial")
        Opts.ForwardKind = JumpFunctionKind::Polynomial;
      else {
        std::fprintf(stderr, "error: unknown jump function class '%s'\n",
                     Kind.c_str());
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--engine=", 0) == 0) {
      std::string Engine = Arg.substr(9);
      if (Engine == "jump")
        Opts.Engine = PropagationEngine::Jump;
      else if (Engine == "contexts")
        Opts.Engine = PropagationEngine::Contexts;
      else {
        std::fprintf(stderr, "error: unknown propagation engine '%s'\n",
                     Engine.c_str());
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--max-contexts=", 0) == 0) {
      uint64_t V = parseLimitValue(Arg, 15);
      if (V == 0 || V > 1u << 20) {
        std::fprintf(stderr, "error: --max-contexts must be in [1, 1048576]\n");
        return 1;
      }
      Opts.MaxContexts = unsigned(V);
      continue;
    }
    if (Arg.rfind("--suite=", 0) == 0) {
      const SuiteProgram *Prog = findSuiteProgram(Arg.substr(8));
      if (!Prog) {
        std::fprintf(stderr, "error: no suite program named '%s'\n",
                     Arg.substr(8).c_str());
        return 1;
      }
      Source = Prog->Source;
      SourceName = Prog->Name;
      continue;
    }
    if (Arg == "--report-json=") {
      std::fprintf(stderr, "error: --report-json needs a file name\n");
      return 1;
    }
    if (Arg.rfind("--report-json=", 0) == 0) {
      ReportFile = Arg.substr(14);
      continue;
    }
    if (Arg == "--trace") {
      TraceOn = true;
      continue;
    }
    if (Arg.rfind("--trace=", 0) == 0) {
      TraceOn = true;
      TraceFile = Arg.substr(8);
      continue;
    }
    if (Arg == "--stats") {
      ShowStats = true;
      continue;
    }
    if (Arg == "--cache-dir=") {
      std::fprintf(stderr, "error: --cache-dir needs a directory name\n");
      return 1;
    }
    if (Arg.rfind("--cache-dir=", 0) == 0) {
      CacheDir = Arg.substr(12);
      continue;
    }
    if (Arg == "--no-cache") {
      NoCache = true;
      continue;
    }
    if (Arg == "--scrub-timings") {
      ScrubTimings = true;
      continue;
    }
    if (Arg == "--optimize") {
      Optimize = true;
      continue;
    }
    if (Arg.rfind("--optimize=", 0) == 0) {
      std::string Error;
      if (!parsePassSpec(Arg.substr(11), PassCfg, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      Optimize = true;
      continue;
    }
    if (Arg.rfind("--limit-parse-depth=", 0) == 0) {
      uint64_t V = parseLimitValue(Arg, 20);
      if (V == 0 || V > 1u << 20) {
        std::fprintf(stderr,
                     "error: --limit-parse-depth must be in [1, 1048576]\n");
        return 1;
      }
      Opts.Limits.MaxParseDepth = unsigned(V);
      continue;
    }
    if (Arg.rfind("--limit-tokens=", 0) == 0) {
      Opts.Limits.MaxTokens = parseLimitValue(Arg, 15);
      continue;
    }
    if (Arg.rfind("--limit-ast-nodes=", 0) == 0) {
      Opts.Limits.MaxAstNodes = parseLimitValue(Arg, 18);
      continue;
    }
    if (Arg.rfind("--limit-ir-insts=", 0) == 0) {
      Opts.Limits.MaxIRInstructions = parseLimitValue(Arg, 17);
      continue;
    }
    if (Arg.rfind("--limit-prop-evals=", 0) == 0) {
      Opts.Limits.MaxPropagationEvals = parseLimitValue(Arg, 19);
      continue;
    }
    if (Arg.rfind("--deadline-ms=", 0) == 0) {
      Opts.Limits.DeadlineMs = parseLimitValue(Arg, 14);
      continue;
    }
    if (Arg == "--no-return-jf") {
      Opts.UseReturnJumpFunctions = false;
    } else if (Arg == "--gated-ssa") {
      Opts.UseGatedSSA = true;
    } else if (Arg == "--binding-graph") {
      Opts.UseBindingGraphPropagator = true;
    } else if (Arg == "--check-alias") {
      CheckAlias = true;
    } else if (Arg == "--no-mod") {
      Opts.UseModInformation = false;
    } else if (Arg == "--intra-only") {
      Opts.IntraproceduralOnly = true;
    } else if (Arg == "--complete") {
      Complete = true;
    } else if (Arg == "--clone") {
      Clone = true;
    } else if (Arg == "--integrate") {
      Integrate = true;
    } else if (Arg == "--dump-ir") {
      DumpIR = true;
    } else if (Arg == "--dump-jf") {
      DumpJF = true;
    } else if (Arg == "--run") {
      Run = true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return 1;
    } else {
      // Exit 2 distinguishes unreadable input from a source program with
      // errors (exit 3): an empty file is a valid (empty) program, a
      // missing or unreadable one is not.
      std::string Error;
      if (!readFileToString(Arg, Source, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 2;
      }
      SourceName = Arg;
    }
  }

  // Recording starts before the frontend so the trace carries its
  // parse, sema and lower spans.
  Trace TraceData;
  if (TraceOn)
    Trace::setActive(&TraceData);

  DiagnosticsEngine Diags;
  ResourceGuard Guard(Opts.Limits);
  std::optional<Program> Ast = parseAndCheck(Source, Diags, true, &Guard);
  if (!Ast) {
    Trace::setActive(nullptr);
    std::fprintf(stderr, "%s", Diags.str().c_str());
    if (!Guard.tripped())
      return 3;
    // A frontend budget trip is degradation, not a source error: emit a
    // schema-valid (result-free) degraded report when one was asked for,
    // and exit 5 so callers can tell the two apart.
    PipelineStatus Status = Guard.status();
    std::fprintf(stderr, "warning: %s\n", Status.Message.c_str());
    if (!ReportFile.empty()) {
      AnalysisReport Report;
      Report.SourceName = SourceName;
      Report.Opts = &Opts;
      Report.Status = &Status;
      std::string Error;
      if (!writeJsonFile(ReportFile, buildAnalysisReport(Report), &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 4;
      }
      if (ReportFile != "-")
        std::printf("report written to %s\n", ReportFile.c_str());
    }
    return 5;
  }
  for (const Diagnostic &D : Diags.diagnostics())
    std::fprintf(stderr, "%s\n", D.str().c_str()); // surface warnings

  std::unique_ptr<Module> M = lowerProgram(*Ast);
  Guard.checkIRInstructions(M->instructionCount(), "lowering");
  Guard.checkDeadline("lowering");
  std::printf("analyzing %s: %zu procedure(s), %u instruction(s)\n",
              SourceName.c_str(), M->procedures().size(),
              M->instructionCount());

  if (CheckAlias) {
    std::vector<Diagnostic> Hazards = checkAliasHazards(*M);
    if (Hazards.empty())
      std::printf("alias check: clean (Fortran no-alias rule satisfied)\n");
    for (const Diagnostic &D : Hazards)
      std::printf("alias check: %s\n", D.str().c_str());
  }

  std::optional<CloningResult> CloneResult;
  if (Clone) {
    CloneResult = cloneForConstants(*M, {Opts}, &Guard);
    std::printf("cloning: %u copies created, %u -> %u instructions\n",
                CloneResult->ClonesCreated, CloneResult->InstructionsBefore,
                CloneResult->InstructionsAfter);
  }

  if (Integrate) {
    InlineOptions IOpts;
    IOpts.EntryProcedure = Opts.EntryProcedure;
    InlineResult IR = inlineCalls(*M, IOpts);
    std::printf("integration: %u call(s) inlined in %u round(s), %u dead "
                "procedure(s) removed, %u -> %u instructions\n",
                IR.CallsInlined, IR.RoundsRun, IR.ProceduresRemoved,
                IR.InstructionsBefore, IR.InstructionsAfter);
  }

  // The transform pipeline rewrites the module in place; everything
  // after this point — the reported analysis, --dump-ir, --run — sees
  // the optimized program. Before-IR is captured first so --dump-ir can
  // show the rewrite as a diffable before/after pair.
  std::optional<OptimizationResult> OptResult;
  std::string BeforeIR;
  if (Optimize) {
    if (DumpIR)
      BeforeIR = printModule(*M);
    OptResult = optimizeModule(*M, Opts, PassCfg, &Guard);
    std::printf("optimization: %u substitution(s), %u fold(s), %u branch(es) "
                "resolved, %u block(s) removed, %u instruction(s) removed, "
                "%u cop%s propagated in %u round(s)\n",
                OptResult->Substitutions, OptResult->Folds,
                OptResult->BranchesResolved, OptResult->BlocksRemoved,
                OptResult->InstsRemoved, OptResult->CopiesPropagated,
                OptResult->CopiesPropagated == 1 ? "y" : "ies",
                OptResult->Rounds);
    if (ShowStats)
      std::printf("optimization statistics:\n%s",
                  formatStatsTable(OptResult->Stats).c_str());
  }

  // Summary cache: single-run analyses of the unmodified module only
  // (complete propagation, cloning, integration, and optimization all
  // mutate or re-analyze the module; see docs/INCREMENTAL.md). A load
  // failure is not an error — the run proceeds cold and reports
  // cache_load_failures.
  std::optional<SummaryCache> Cache;
  if (!CacheDir.empty() && !NoCache && !Complete && !Clone && !Integrate &&
      !Optimize) {
    Cache.emplace(CacheDir);
    Cache->load(SourceName, Opts, &Guard);
    Opts.Cache = &*Cache;
  }

  std::optional<CompletePropagationResult> CompleteResult;
  std::optional<IPCPResult> SingleResult;
  if (Complete) {
    CompleteResult = runCompletePropagation(*M, Opts, &Guard);
    const CompletePropagationResult &CR = *CompleteResult;
    std::printf("complete propagation: %u round(s), %u dead blocks "
                "removed\n",
                CR.Rounds, CR.BlocksRemoved);
    std::printf("constant references: %u\n", CR.TotalConstantRefs);
    for (const ProcedureResult &PR : CR.FinalRound.Procs) {
      std::printf("  CONSTANTS(%s) = {", PR.Name.c_str());
      for (size_t I = 0; I != PR.EntryConstants.size(); ++I)
        std::printf("%s%s=%lld", I ? ", " : "",
                    PR.EntryConstants[I].first.c_str(),
                    static_cast<long long>(PR.EntryConstants[I].second));
      std::printf("}\n");
    }
    if (ShowStats)
      std::printf("statistics (all rounds):\n%s",
                  formatStatsTable(CR.Stats).c_str());
  } else {
    SingleResult = runIPCP(*M, Opts, &Guard);
    const IPCPResult &R = *SingleResult;
    std::printf("configuration: %s jump functions, return JFs %s, MOD %s%s\n",
                jumpFunctionKindName(Opts.ForwardKind),
                Opts.UseReturnJumpFunctions ? "on" : "off",
                Opts.UseModInformation ? "on" : "off",
                Opts.IntraproceduralOnly ? ", intraprocedural only" : "");
    std::printf("entry constants: %u, constant references: %u\n",
                R.TotalEntryConstants, R.TotalConstantRefs);
    for (const ProcedureResult &PR : R.Procs) {
      std::printf("  CONSTANTS(%s) = {", PR.Name.c_str());
      for (size_t I = 0; I != PR.EntryConstants.size(); ++I)
        std::printf("%s%s=%lld", I ? ", " : "",
                    PR.EntryConstants[I].first.c_str(),
                    static_cast<long long>(PR.EntryConstants[I].second));
      std::printf("}  [%u refs]\n", PR.ConstantRefs);
    }
    if (ShowStats)
      std::printf("statistics:\n%s", formatStatsTable(R.Stats).c_str());
    if (R.UsedCache)
      std::printf("cache: %llu hit(s), %llu miss(es), %llu replayed\n",
                  static_cast<unsigned long long>(R.Stats.get("cache_hits")),
                  static_cast<unsigned long long>(R.Stats.get("cache_misses")),
                  static_cast<unsigned long long>(
                      R.Stats.get("cache_record_reused")));
  }

  if (Cache) {
    std::string Error;
    if (!Cache->save(SourceName, Opts, &Error))
      std::fprintf(stderr, "warning: cache not saved: %s\n", Error.c_str());
  }

  // Stop recording before the ancillary dumps so the trace covers
  // exactly the frontend and the analysis (and any cloning/integration
  // before it).
  if (TraceOn)
    Trace::setActive(nullptr);

  if (DumpJF) {
    // Rebuild the jump functions on a scratch clone and print them — the
    // analyzer's own view of each call site (paper Sections 3.1/3.2).
    std::unique_ptr<Module> Scratch = M->clone();
    CallGraph CG(*Scratch);
    ModRefInfo MRI = Opts.UseModInformation
                         ? ModRefInfo::compute(*Scratch, CG)
                         : ModRefInfo::worstCase(*Scratch);
    SSAMap SSA;
    for (const std::unique_ptr<Procedure> &P : Scratch->procedures())
      SSA.emplace(P.get(), constructSSA(*P, MRI));
    SymExprContext Ctx(Opts.MaxExprNodes);
    std::unique_ptr<ReturnJumpFunctions> RJFs;
    if (Opts.UseReturnJumpFunctions)
      RJFs = std::make_unique<ReturnJumpFunctions>(ReturnJumpFunctions::build(
          CG, MRI, SSA, Ctx, Opts.UseGatedSSA));
    ForwardJumpFunctions FJFs =
        ForwardJumpFunctions::build(CG, MRI, SSA, RJFs.get(), Ctx,
                                    Opts.ForwardKind, Opts.UseGatedSSA);

    std::printf("\njump functions (%s class):\n",
                jumpFunctionKindName(Opts.ForwardKind));
    for (Procedure *P : CG.procedures()) {
      for (CallInst *Site : CG.callSitesIn(P)) {
        const CallSiteJumpFunctions &JFs = FJFs.at(Site);
        std::printf("  %s:%s -> %s\n", P->getName().c_str(),
                    Site->getLoc().str().c_str(),
                    Site->getCallee()->getName().c_str());
        for (unsigned I = 0; I != JFs.Formals.size(); ++I)
          std::printf("    J(%s) = %s\n",
                      Site->getCallee()->formals()[I]->getName().c_str(),
                      JFs.Formals[I].str().c_str());
        for (const auto &[G, JF] : JFs.Globals)
          std::printf("    J(global %s) = %s\n", G->getName().c_str(),
                      JF.str().c_str());
      }
    }
    if (RJFs) {
      std::printf("\nreturn jump functions:\n");
      for (Procedure *P : CG.procedures()) {
        for (unsigned I = 0; I != P->getNumFormals(); ++I)
          if (const JumpFunction *JF = RJFs->find(P, P->formals()[I]))
            std::printf("  R(%s.%s) = %s\n", P->getName().c_str(),
                        P->formals()[I]->getName().c_str(),
                        JF->str().c_str());
        for (Variable *G : MRI.modifiedGlobals(P))
          if (const JumpFunction *JF = RJFs->find(P, G))
            std::printf("  R(%s.global %s) = %s\n", P->getName().c_str(),
                        G->getName().c_str(), JF->str().c_str());
      }
    }
  }

  if (DumpIR) {
    if (Optimize)
      std::printf("\n; === IR before optimization ===\n%s"
                  "\n; === IR after optimization ===\n%s",
                  BeforeIR.c_str(), printModule(*M).c_str());
    else
      std::printf("\n%s", printModule(*M).c_str());
  }

  if (TraceOn) {
    std::string Text = TraceData.str();
    if (TraceFile.empty()) {
      std::fprintf(stderr, "%s", Text.c_str());
    } else {
      std::string Error;
      if (!writeStringToFile(TraceFile, Text, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 4;
      }
    }
  }

  PipelineStatus FinalStatus = Guard.status();
  if (!ReportFile.empty()) {
    AnalysisReport Report;
    Report.SourceName = SourceName;
    Report.M = M.get();
    Report.Opts = &Opts;
    Report.Single = SingleResult ? &*SingleResult : nullptr;
    Report.Complete = CompleteResult ? &*CompleteResult : nullptr;
    Report.Cloning = CloneResult ? &*CloneResult : nullptr;
    Report.Optimization = OptResult ? &*OptResult : nullptr;
    Report.TraceData = TraceOn ? &TraceData : nullptr;
    Report.Status = &FinalStatus;
    JsonValue Doc = buildAnalysisReport(Report);
    if (ScrubTimings)
      scrubReportTimings(Doc);
    std::string Error;
    if (!writeJsonFile(ReportFile, Doc, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 4;
    }
    if (ReportFile != "-")
      std::printf("report written to %s\n", ReportFile.c_str());
  }

  if (Run) {
    ExecutionResult Exec = interpret(*M);
    std::printf("\nexecution: %s, %llu steps\n",
                Exec.ok() ? "ok" : Exec.TrapMessage.c_str(),
                static_cast<unsigned long long>(Exec.Steps));
    for (ConstantValue V : Exec.Output)
      std::printf("output: %lld\n", static_cast<long long>(V));
  }
  if (FinalStatus.Degraded) {
    std::fprintf(stderr, "warning: %s\n", FinalStatus.Message.c_str());
    return 5;
  }
  return 0;
}

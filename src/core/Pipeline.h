//===- core/Pipeline.h - End-to-end analysis drivers ------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry points of the library. One runIPCP call executes the
/// four stages of the paper's analyzer (Section 4.1) on a scratch clone
/// of the module:
///
///  1. generation of return jump functions (bottom-up over the call
///     graph, using SSA-based value numbering and MOD information);
///  2. generation of forward jump functions (per call site, of the
///     configured class);
///  3. interprocedural propagation of the VAL sets over the call graph;
///  4. recording the results: CONSTANTS(p) per procedure, plus the
///     substitution metric — the number of source-level variable
///     references proven constant when the interprocedural constants are
///     substituted into each procedure and local (SCCP) propagation
///     re-runs over the seeded body. This is the Metzger-Stroud
///     effectiveness measure the paper reports in Tables 2 and 3.
///
/// runCompletePropagation (on a scratch copy, until no new dead code
/// appears: Table 3, "Complete Propagation") and optimizeModule (on the
/// module itself, until nothing changes, then copy propagation; see
/// docs/TRANSFORMS.md) share one analyze→substitute loop of runIPCP and
/// applyFacts. runIPCP with IntraproceduralOnly gives the Table 3
/// intraprocedural baseline.
///
/// All drivers are *total*: they honor the resource budgets in
/// IPCPOptions::Limits (or an externally supplied ResourceGuard) and,
/// when a budget trips, stop the offending stage, keep whatever sound
/// partial results exist, and report the trip in their Status instead of
/// looping or crashing.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_PIPELINE_H
#define IPCP_CORE_PIPELINE_H

#include "analysis/DeadCode.h"
#include "core/Options.h"
#include "core/Propagator.h"
#include "core/ValueContexts.h"
#include "support/Statistics.h"

#include <string>
#include <vector>

namespace ipcp {

/// Per-procedure analysis outcome (reported by name: the scratch clone
/// the analysis ran on is destroyed when the run finishes).
struct ProcedureResult {
  std::string Name;

  /// CONSTANTS(p): entry-constant (name, value) pairs, declaration-order
  /// stable.
  std::vector<std::pair<std::string, ConstantValue>> EntryConstants;

  /// Variable references proven constant in this procedure (the
  /// substituted-constant count).
  unsigned ConstantRefs = 0;

  /// Entry constants that are "known but irrelevant" (Metzger & Stroud,
  /// paper Section 4.1): members of CONSTANTS(p) never referenced inside
  /// p, so substituting them changes nothing. Reported separately
  /// because the substitution metric deliberately excludes them.
  unsigned IrrelevantConstants = 0;
};

/// Outcome of one analysis configuration on one program.
struct IPCPResult {
  std::vector<ProcedureResult> Procs;

  /// Sum of ConstantRefs — the number a Table 2/3 cell reports.
  unsigned TotalConstantRefs = 0;

  /// Sum of |CONSTANTS(p)|.
  unsigned TotalEntryConstants = 0;

  /// Substitution facts keyed by clone-stable instruction IDs; applicable
  /// to the original module with applyFacts.
  TransformFacts Facts;

  /// Phase timings (microseconds) and work counters.
  StatisticSet Stats;

  /// True when this run consulted a summary cache (Options::Cache was
  /// set and the configuration is cacheable). The cache_* counters in
  /// Stats and the report's "cache" object are emitted exactly when this
  /// is set. Note: replayed procedures contribute no entries to Facts —
  /// complete propagation therefore always runs cache-less.
  bool UsedCache = false;

  /// Whether the run completed or degraded under a resource budget. A
  /// degraded run's results are sound but partial: propagation trips
  /// discard interprocedural constants entirely (a cut-short iteration
  /// is too optimistic; the contexts engine instead degrades to its
  /// completed 1986 baseline), and record-stage trips leave later
  /// procedures unanalyzed.
  PipelineStatus Status;

  /// Precision/cost figures of the contexts engine (Enabled exactly when
  /// Options::Engine == Contexts ran propagation). Report.cpp emits this
  /// as the context_study block; see docs/CONTEXTS.md.
  ContextEngineStats ContextStudy;

  const ProcedureResult *findProc(const std::string &Name) const {
    for (const ProcedureResult &P : Procs)
      if (P.Name == Name)
        return &P;
    return nullptr;
  }
};

/// Runs one full analysis of \p M under \p Opts. \p M is not modified.
/// When \p Guard is null a run-local guard is created from Opts.Limits;
/// pass an external guard to share one deadline across several pipeline
/// calls (the complete-propagation rounds do this internally).
IPCPResult runIPCP(const Module &M, const IPCPOptions &Opts = {},
                   ResourceGuard *Guard = nullptr);

/// Result of the iterated analyze-substitute-eliminate experiment.
struct CompletePropagationResult {
  /// Analysis rounds executed (1 = no dead code was ever found).
  unsigned Rounds = 0;

  /// Variable references proven constant across all rounds (the sum of
  /// the rounds' substituted loads) — comparable to (and never less
  /// than) a single run's TotalConstantRefs.
  unsigned TotalConstantRefs = 0;

  /// Dead blocks removed over all rounds.
  unsigned BlocksRemoved = 0;

  /// Counters merged over every round, plus the cp_* totals (rounds,
  /// loads replaced, branches folded, blocks/instructions removed).
  StatisticSet Stats;

  /// The last round's full result.
  IPCPResult FinalRound;

  /// Degradation status across all rounds (first trip wins; mirrors the
  /// final round's Status when that round tripped).
  PipelineStatus Status;
};

/// Iterates runIPCP + applyFacts on a scratch copy of \p M until dead
/// code elimination finds nothing new (paper: one extra round sufficed).
/// All rounds share one ResourceGuard (from \p Guard or Opts.Limits), so
/// a deadline bounds the whole experiment, not each round.
CompletePropagationResult
runCompletePropagation(const Module &M, const IPCPOptions &Opts = {},
                       ResourceGuard *Guard = nullptr);

/// Which passes optimizeModule runs. Both default on; the driver's
/// `--optimize=<passes>` spec (comma-separated pass names) narrows this.
struct TransformPassConfig {
  /// Run iterated constant substitution + folding ("constants").
  bool ConstantSubstitution = true;

  /// Run store-to-load copy propagation ("copyprop").
  bool CopyPropagation = true;
};

/// Parses a comma-separated pass list ("constants", "copyprop", or
/// "constants,copyprop" in any order) into \p Config, which is reset so
/// only the named passes run. Returns false (and fills \p Error) on an
/// unknown or empty pass name.
bool parsePassSpec(const std::string &Spec, TransformPassConfig &Config,
                   std::string *Error = nullptr);

/// Wall time of one executed pass, for the report's optimization block.
struct PassTiming {
  std::string Pass;
  uint64_t Us = 0;
};

/// What optimizeModule did to the module.
struct OptimizationResult {
  /// Analysis+substitution rounds executed by the constants pass.
  unsigned Rounds = 0;

  /// Loads of proven-constant locations rewritten into literals.
  unsigned Substitutions = 0;

  /// Binary/Unary instructions over literals folded away.
  unsigned Folds = 0;

  /// Conditional branches with proven-constant conditions rewritten into
  /// unconditional branches.
  unsigned BranchesResolved = 0;

  /// Blocks deleted as unreachable after branch resolution.
  unsigned BlocksRemoved = 0;

  /// Total instructions deleted (substituted loads, folded expressions,
  /// dead chains, forwarded loads — everything).
  unsigned InstsRemoved = 0;

  /// Loads forwarded to an earlier stored value by the copyprop pass.
  unsigned CopiesPropagated = 0;

  /// Module instruction counts on entry and exit of the pipeline.
  unsigned InstructionsBefore = 0;
  unsigned InstructionsAfter = 0;

  /// Passes that ran, in order, with their wall times.
  std::vector<PassTiming> PassTimings;

  /// Counters merged over every analysis round plus the opt_* totals.
  StatisticSet Stats;

  /// Degradation status across all rounds (first trip wins). A degraded
  /// optimization is still sound: facts already applied stay applied,
  /// remaining rounds are skipped.
  PipelineStatus Status;

  bool changedAnything() const {
    return Substitutions || Folds || BranchesResolved || BlocksRemoved ||
           InstsRemoved || CopiesPropagated;
  }
};

/// Optimizes \p M in place under analysis configuration \p Opts: the
/// constants pass runs the analyze→substitute loop on \p M itself until
/// a round changes nothing, then the copyprop pass forwards stored values
/// (propagateCopies). The summary cache is never consulted (replayed
/// procedures carry no substitution facts — same restriction as
/// runCompletePropagation). When \p Guard is null a run-local guard is
/// created from Opts.Limits; pass an external guard to share one deadline
/// with surrounding work.
OptimizationResult optimizeModule(Module &M, const IPCPOptions &Opts = {},
                                  const TransformPassConfig &Config = {},
                                  ResourceGuard *Guard = nullptr);

} // namespace ipcp

#endif // IPCP_CORE_PIPELINE_H

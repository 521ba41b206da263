//===- perfbench/perfbench.cpp - The repository benchmark -----------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// One harness for the two benchmark workloads (README.md):
//
//   perfbench --workload large|service --seed N --seconds S
//             --trace 0|1 [--smoke] [--spans FILE]
//
// Every workload runs two phases over its own inputs:
//
//  * batch: closed loop, one thread. Three operations are interleaved:
//    analyze (source text -> report JSON), reanalyze (seeded one-procedure
//    edit, re-parse, re-lower, warm runIPCP through a populated
//    SummaryCache) and optimize (optimizeModule on a freshly lowered
//    module, then the original and optimized programs are interpreted);
//  * service: an in-process ShardedService (2 shards, 2 workers) fed open
//    loop by this thread while a reader thread collects the responses.
//    Four steps, each at 30% of a saturated throughput measured just
//    before it, give the latency; a stepped rate ladder gives the
//    capacity.
//
// The batch phase runs in slices between the service steps, so both
// phases sample the host over the whole run.
//
// The library sees only the generated inputs; the seed drives the edit
// choice, the request stream and the generated request modules. Every output is
// checked (normalized reports byte-identical to the reference run, the
// optimized program prints what the original prints, no service response
// carries an error); a run with any failed check exits non-zero without
// a result.
//
// With --trace 1 the harness records a span around every call into a
// layer's public functions, adds per-layer probes (the clone and the
// structural analyses runIPCP runs internally, a serial ServiceEngine
// replay of the service traffic, a parse/lower size sweep), writes the
// spans to --spans, and prints the per-layer metrics and a budget table.
// The last line of stdout is always one JSON object.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/SSAConstruction.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/ServiceEngine.h"
#include "core/ShardedService.h"
#include "core/SummaryCache.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/AstLower.h"
#include "support/Diagnostics.h"
#include "transform/Transform.h"
#include "workload/Generator.h"
#include "workload/Programs.h"
#include "workload/ServiceWorkload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

double msSince(uint64_t StartNs) { return double(nowNs() - StartNs) / 1e6; }

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile (Q in [0, 1]) of \p V; 0 for an empty sample.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::min(std::max<size_t>(Rank, 1), V.size()) - 1];
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / double(V.size());
}

/// splitmix64: the benchmark's own seeded stream (edit choice, request
/// mixes, generator seeds).
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return unsigned(next() % N); }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Off (the untraced run) it records nothing and
/// costs one branch per call site.
class Tracer {
public:
  struct Span {
    std::string Name;
    uint64_t Start = 0, End = 0;
    int64_t Parent = -1;
    uint64_t Op = 0;
  };

  bool On = false;

  int64_t begin(const char *Name) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.push_back({Name, nowNs(), 0, Current, CurrentOp});
    return int64_t(Spans.size() - 1);
  }
  void end(int64_t Id) {
    if (Id < 0)
      return;
    uint64_t T = nowNs();
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[size_t(Id)].End = T;
  }

  /// The enclosing span and operation id of spans begun on this thread.
  static thread_local int64_t Current;
  static thread_local uint64_t CurrentOp;

  std::vector<Span> Spans;

private:
  std::mutex Mu;
};

thread_local int64_t Tracer::Current = -1;
thread_local uint64_t Tracer::CurrentOp = 0;

Tracer TheTracer;
std::atomic<uint64_t> NextOpId{1};

/// A span around one scope; nested scopes on the same thread become its
/// children. \p NewOp starts a fresh operation id (an end-to-end op).
class SpanScope {
public:
  explicit SpanScope(const char *Name, bool NewOp = false) {
    if (!TheTracer.On)
      return;
    SavedParent = Tracer::Current;
    SavedOp = Tracer::CurrentOp;
    if (NewOp)
      Tracer::CurrentOp = NextOpId.fetch_add(1);
    Id = TheTracer.begin(Name);
    Tracer::Current = Id;
  }
  ~SpanScope() {
    if (Id < 0)
      return;
    TheTracer.end(Id);
    Tracer::Current = SavedParent;
    Tracer::CurrentOp = SavedOp;
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int64_t Id = -1;
  int64_t SavedParent = -1;
  uint64_t SavedOp = 0;
};

//===----------------------------------------------------------------------===//
// Workload definition
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string SpansPath;
};

/// The generator shape of the large module: well past the size where
/// parse and lower stop growing linearly (about 4k procedures).
GeneratorConfig largeConfig(uint64_t Seed, unsigned Procs) {
  GeneratorConfig C;
  C.Seed = Seed;
  C.NumProcs = Procs;
  C.NumGlobals = 6;
  C.StmtsPerProc = 4;
  return C;
}

/// Per-workload sizes and time shares, set for `service`; `large`
/// overrides some. Everything a run measures follows from this and the
/// seed.
struct Plan {
  /// Table 1 programs in the batch phase (0 = the generated module).
  unsigned SuitePrograms = 12;
  unsigned LargeProcs = 0;
  unsigned EditsPerProgram = 4;
  /// Set-up repetitions; setup_s is their median.
  unsigned SetupReps = 31;
  /// Share of --seconds spent in the batch phase; the rest is service.
  double BatchShare = 0.35;
  /// Target shares of batch time per operation kind.
  double AnalyzeShare = 0.5, ReanalyzeShare = 0.25, OptimizeShare = 0.25;

  /// Service phase: request mix and the p99 limit a capacity-ladder step
  /// must meet.
  enum class Mix { GeneratedCold, Sessions } Traffic = Mix::Sessions;
  unsigned MixPrograms = 64; ///< distinct generated modules (GeneratedCold)
  unsigned MixProcs = 6;     ///< procedures per generated module
  double LimitMs = 25;
  unsigned MaxLadderSteps = 6;
  /// Saturated throughput of the traffic on a 4-core host. It sizes the
  /// service steps, so that every run sends the same requests whatever
  /// the host's speed at the time (the rates follow the measurement).
  double NominalRps = 2900;
};

Plan planFor(const Args &A) {
  Plan P;
  if (A.Workload == "large") {
    P.SuitePrograms = 0;
    P.LargeProcs = A.Smoke ? 64 : 4096;
    P.EditsPerProgram = 2;
    P.SetupReps = 3;
    P.BatchShare = 0.75;
    P.AnalyzeShare = 0.3;
    P.ReanalyzeShare = 0.3;
    P.OptimizeShare = 0.4;
    P.Traffic = Plan::Mix::GeneratedCold;
    P.MixPrograms = A.Smoke ? 4 : 64;
    P.NominalRps = 2700;
  }
  if (A.Smoke) {
    P.SuitePrograms = std::min(P.SuitePrograms, 2u);
    P.SetupReps = std::min(P.SetupReps, 3u);
    P.MaxLadderSteps = 2;
  }
  return P;
}

/// A failed correctness check: counted, and the first few printed.
struct Failures {
  uint64_t Count = 0;
  void note(const std::string &What) {
    if (Count++ < 10)
      std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  }
};

/// Inserts `print <Literal>;` at the top of the \p Pick-th procedure (mod
/// the procedure count): a one-procedure edit that changes that body's
/// hash and nothing any caller consumes.
std::string editSource(const std::string &Source, unsigned Pick,
                       unsigned Literal) {
  std::vector<size_t> Headers;
  for (size_t Pos = 0; (Pos = Source.find("proc ", Pos)) != std::string::npos;
       ++Pos)
    if (Pos == 0 || Source[Pos - 1] == '\n')
      Headers.push_back(Pos);
  if (Headers.empty())
    return Source;
  size_t Brace = Source.find('{', Headers[Pick % Headers.size()]);
  if (Brace == std::string::npos)
    return Source;
  std::string Out = Source;
  Out.insert(Brace + 1, "\n  print " + std::to_string(Literal) + ";");
  return Out;
}

ExecutionOptions interpOptions() {
  ExecutionOptions EO;
  EO.RecordEntrySnapshots = false;
  return EO;
}

/// One program of the batch phase, with the references its operations
/// are checked against.
struct BatchProgram {
  std::string Name;
  std::string Source;
  Program Ast;
  std::vector<std::string> Edits;

  std::string RefReport; ///< normalized cold report
  unsigned RefRefs = 0;
  SummaryCache BaseCache; ///< warm after one run on Source
  ExecutionResult RefRun; ///< interpretation of the original
  /// Normalized cold report per edit, filled on the edit's first use.
  std::vector<std::optional<std::string>> EditRefs;
  /// Substitutions and interpreted steps of the first optimize run
  /// (later runs must agree).
  std::optional<unsigned> RefSubstitutions;
  uint64_t OptimizedSteps = 0;
};

/// The service phase's request lines, made block by block on demand so
/// that no step replays a line: a step always runs a prefix of the log,
/// and a block's traffic does not depend on when it is made.
struct RequestLog {
  std::vector<std::string> Lines;
  /// Per line, the analyze items that carry a session (a batch line
  /// carries several): the requests that read or write a session cache.
  std::vector<unsigned> SessionItems;
  std::function<void(unsigned Block, RequestLog &)> AddBlock;
  unsigned Blocks = 0;

  void add(std::string Line, unsigned Sessioned) {
    Lines.push_back(std::move(Line));
    SessionItems.push_back(Sessioned);
  }
  /// Makes sure the log holds at least \p Count lines.
  void extendTo(size_t Count) {
    while (Lines.size() < Count)
      AddBlock(Blocks++, *this);
  }
  uint64_t sessionItemsIn(size_t Count) const {
    uint64_t N = 0;
    for (size_t I = 0; I != Count; ++I)
      N += SessionItems[I];
    return N;
  }
};

struct Inputs {
  std::vector<BatchProgram> Programs;
  RequestLog Requests; ///< service request lines
};

/// The normalized report of one run: what the correctness gate compares.
std::string normalizedReport(const std::string &Name, const Module &M,
                             const IPCPResult &R) {
  IPCPOptions Opts;
  AnalysisReport Rep;
  Rep.SourceName = Name;
  Rep.M = &M;
  Rep.Opts = &Opts;
  Rep.Single = &R;
  JsonValue Doc = buildAnalysisReport(Rep);
  normalizeReportForDiff(Doc);
  return Doc.dump();
}

/// Parses and lowers \p Source; null (and a noted failure) on a frontend
/// error, which no benchmark input should produce.
std::unique_ptr<Module> frontend(const std::string &Source,
                                 std::optional<Program> *AstOut,
                                 Failures &F) {
  DiagnosticsEngine Diags;
  std::optional<Program> Ast = parseAndCheck(Source, Diags);
  if (!Ast) {
    F.note("frontend rejected a generated input: " + Diags.str());
    return nullptr;
  }
  std::unique_ptr<Module> M = lowerProgram(*Ast);
  if (AstOut)
    *AstOut = std::move(Ast);
  return M;
}

bool addBatchProgram(Inputs &In, std::string Name, std::string Source,
                     unsigned Edits, Rng &R, Failures &F) {
  BatchProgram P;
  std::optional<Program> Ast;
  std::unique_ptr<Module> M = frontend(Source, &Ast, F);
  if (!M)
    return false;
  P.Name = std::move(Name);
  P.Source = std::move(Source);
  P.Ast = std::move(*Ast);
  P.RefRun = interpret(*M, interpOptions());
  IPCPOptions Opts;
  Opts.Cache = &P.BaseCache;
  IPCPResult Res = runIPCP(*M, Opts);
  P.RefRefs = Res.TotalConstantRefs;
  P.RefReport = normalizedReport(P.Name, *M, Res);
  for (unsigned I = 0; I != Edits; ++I)
    P.Edits.push_back(editSource(P.Source, R.below(1u << 16), R.below(1000)));
  P.EditRefs.resize(P.Edits.size());
  In.Programs.push_back(std::move(P));
  return true;
}

/// Generator seed of the large module. It is fixed: from one generated
/// module to the next, analysis cost varies by about 10% and optimize
/// cost by up to 25% (3 to 5 rounds), more than any bound could absorb,
/// so the workload seed varies only the edits and the service traffic.
constexpr uint64_t LargeModuleSeed = 1;

/// The large module: the first draw whose reference run finishes within
/// 2M interpreter steps without trapping. The generator's call DAG can
/// make run time exponential in depth, and a program that runs out of
/// fuel cannot be compared before and after optimization.
std::string largeSource(unsigned Procs) {
  Rng R(LargeModuleSeed);
  for (;;) {
    std::string Source = generateProgram(largeConfig(R.next(), Procs));
    DiagnosticsEngine Diags;
    std::optional<Program> Ast = parseAndCheck(Source, Diags);
    if (!Ast)
      continue;
    ExecutionOptions EO = interpOptions();
    EO.MaxSteps = 2'000'000;
    if (interpret(*lowerProgram(*Ast), EO).ok())
      return Source;
  }
}

const char *const JumpKinds[] = {"literal", "intra", "pass-through",
                                 "polynomial"};

/// The seed of block \p Block of a request log: the workload seed picks
/// the traffic, the block number makes each block's draw its own.
uint64_t blockSeed(uint64_t Seed, unsigned Block) {
  return Rng(Seed ^ (uint64_t(Block) << 32) ^ 0x5E41CEull).next() | 1;
}

/// Lines per block of the session-less request logs.
constexpr unsigned ColdBlockLines = 1000;

RequestLog serviceRequests(const Args &A, const Plan &P) {
  RequestLog Log;
  uint64_t Seed = A.Seed;
  switch (P.Traffic) {
  case Plan::Mix::GeneratedCold: {
    Rng R(Seed ^ 0x5E41CEull);
    std::vector<std::string> Sources;
    for (unsigned I = 0; I != P.MixPrograms; ++I)
      Sources.push_back(generateProgram(largeConfig(R.next(), P.MixProcs)));
    Log.AddBlock = [Seed, Sources](unsigned Block, RequestLog &L) {
      Rng R(blockSeed(Seed, Block));
      for (unsigned I = 0; I != ColdBlockLines; ++I) {
        unsigned Pick = R.below(unsigned(Sources.size()));
        JsonValue Req = JsonValue::object();
        Req.set("op", "analyze");
        Req.set("id", "g" + std::to_string(L.Lines.size()));
        Req.set("name", "gen" + std::to_string(Pick));
        Req.set("source", Sources[Pick]);
        Req.set("scrub_timings", true);
        L.add(Req.dump(), 0);
      }
    };
    break;
  }
  case Plan::Mix::Sessions:
    // Each block is one log of ipcp_loadgen's default traffic (1000
    // analyze requests over 8 sessions, 70% repeats of the previous
    // program and options, 10% folded into batches) under session names
    // of its own, so every block starts with cold sessions and the share
    // of cache writes stays the same however long a step runs. Repeats
    // that land in a session that has seen the pair read its cache;
    // first-seen (session, program, options) triples write it. After
    // every eighth analyze line comes an optimize of a seeded suite
    // program, which bypasses the cache.
    Log.AddBlock = [Seed](unsigned Block, RequestLog &L) {
      ServiceLogConfig C;
      C.Seed = blockSeed(Seed, Block);
      C.Requests = 1000;
      C.Session = "load" + std::to_string(Block);
      C.SessionCount = 8;
      C.RepeatChance = 70;
      C.BatchChance = 10;
      C.EndWithStats = false;
      C.EndWithShutdown = false;
      ServiceLogStream Stream(C);
      Rng R(C.Seed);
      const std::vector<SuiteProgram> &Suite = benchmarkSuite();
      std::string Line;
      for (unsigned N = 1; Stream.next(Line); ++N) {
        std::optional<JsonValue> Req = JsonValue::parse(Line);
        const JsonValue *Items = Req ? Req->find("requests") : nullptr;
        L.add(Line, Items ? unsigned(Items->size()) : 1);
        if (N % 8 == 0) {
          JsonValue Opt = JsonValue::object();
          Opt.set("op", "optimize");
          Opt.set("id", "o" + std::to_string(L.Lines.size()));
          Opt.set("suite", Suite[R.below(unsigned(Suite.size()))].Name);
          Opt.set("scrub_timings", true);
          L.add(Opt.dump(), 0);
        }
      }
    };
    break;
  }
  Log.extendTo(1);
  return Log;
}

/// Builds every input and reference of the workload.
Inputs setUp(const Args &A, const Plan &P, Failures &F) {
  Inputs In;
  Rng R(A.Seed);
  if (P.LargeProcs)
    addBatchProgram(In, "large", largeSource(P.LargeProcs),
                    P.EditsPerProgram, R, F);
  const std::vector<SuiteProgram> &Suite = benchmarkSuite();
  for (unsigned I = 0; I != P.SuitePrograms && I != Suite.size(); ++I)
    addBatchProgram(In, Suite[I].Name, Suite[I].Source, P.EditsPerProgram, R,
                    F);
  In.Requests = serviceRequests(A, P);
  return In;
}

//===----------------------------------------------------------------------===//
// Batch phase
//===----------------------------------------------------------------------===//

/// Per-layer accumulators of the traced run (sums; divided by counts at
/// the end).
struct LayerSums {
  std::map<std::string, double> Sum;
  std::map<std::string, double> Count;
  void add(const std::string &Name, double V) {
    Sum[Name] += V;
    Count[Name] += 1;
  }
  double meanOf(const std::string &Name) const {
    auto It = Sum.find(Name);
    return It == Sum.end() ? 0 : It->second / Count.at(Name);
  }
  double sumOf(const std::string &Name) const {
    auto It = Sum.find(Name);
    return It == Sum.end() ? 0 : It->second;
  }
};

/// The timed samples of one batch program, per operation kind.
struct ProgramSamples {
  std::vector<double> AnalyzeMs, ReanalyzeMs, OptimizeMs;
};
using SampleKind = std::vector<double> ProgramSamples::*;

struct BatchResults {
  std::vector<ProgramSamples> Samples; ///< indexed like Inputs::Programs
  uint64_t Attempted = 0;
  LayerSums Layers;

  /// Every sample of one kind, over all programs.
  std::vector<double> pooled(SampleKind Kind) const {
    std::vector<double> All;
    for (const ProgramSamples &S : Samples)
      All.insert(All.end(), (S.*Kind).begin(), (S.*Kind).end());
    return All;
  }
  /// The typical time of one operation: each program's median, averaged
  /// over the programs. Unlike the median of the pooled samples, it does
  /// not fall into the gap between one program's times and the next, where
  /// a few tail samples would decide it.
  double meanOfMedians(SampleKind Kind) const {
    std::vector<double> Medians;
    for (const ProgramSamples &S : Samples)
      Medians.push_back(median(S.*Kind));
    return mean(Medians);
  }
};

const char *const IPCPStageCounters[] = {
    "time_callgraph_us",  "time_modref_us",      "time_intraprocedural_us",
    "time_return_jf_us",  "time_forward_jf_us",  "time_propagation_us",
    "time_record_us"};

void analyzeOp(BatchProgram &P, ProgramSamples &Out, BatchResults &B,
               Failures &F, bool Traced) {
  // Everything the operation makes lives past the timed scope, so the
  // span and the sample cover the same work: neither the check below nor
  // the teardown is in them.
  std::optional<Program> Ast;
  std::unique_ptr<Module> M;
  IPCPResult Res;
  JsonValue Doc;
  std::string Report;
  double RunMs = 0;
  uint64_t T0 = nowNs();
  {
    SpanScope Op("op.analyze", /*NewOp=*/true);
    {
      SpanScope S("frontend.parse");
      DiagnosticsEngine Diags;
      Ast = parseAndCheck(P.Source, Diags);
    }
    if (!Ast) {
      F.note(P.Name + ": analyze: parse failed");
      return;
    }
    {
      SpanScope S("ir.lower");
      M = lowerProgram(*Ast);
    }
    {
      SpanScope S("core.ipcp");
      uint64_t R0 = nowNs();
      Res = runIPCP(*M);
      RunMs = msSince(R0);
    }
    {
      SpanScope S("report.build");
      IPCPOptions Opts;
      AnalysisReport Rep;
      Rep.SourceName = P.Name;
      Rep.M = M.get();
      Rep.Opts = &Opts;
      Rep.Single = &Res;
      Doc = buildAnalysisReport(Rep);
    }
    {
      SpanScope S("report.dump");
      Report = Doc.dump();
    }
    Out.AnalyzeMs.push_back(msSince(T0));
  }
  normalizeReportForDiff(Doc);
  if (Doc.dump() != P.RefReport)
    F.note(P.Name + ": analyze: normalized report differs from reference");
  if (Res.TotalConstantRefs != P.RefRefs)
    F.note(P.Name + ": analyze: constant refs differ from reference");
  if (!Traced)
    return;
  LayerSums &L = B.Layers;
  L.add("frontend.source_kb", double(P.Source.size()) / 1024.0);
  L.add("ir.insts", double(M->instructionCount()));
  L.add("report.bytes", double(Report.size()));
  double Attributed = 0;
  for (const char *C : IPCPStageCounters) {
    L.add(std::string("core.") + C, double(Res.Stats.get(C)));
    Attributed += double(Res.Stats.get(C)) / 1000.0;
  }
  L.add("core.time_total_us", double(Res.Stats.get("time_total_us")));
  L.add("core.ipcp_unattributed_ms", RunMs - Attributed);
  for (const char *C :
       {"prop_evaluations", "prop_visits", "sccp_runs", "unique_exprs"})
    L.add(std::string("core.") + C, double(Res.Stats.get(C)));
}

/// The structural analyses runIPCP runs on its scratch clone, called
/// directly so each gets its own span (traced run only).
void layerProbe(const BatchProgram &P) {
  SpanScope Op("op.layer_probe", /*NewOp=*/true);
  std::unique_ptr<Module> M = lowerProgram(P.Ast);
  std::unique_ptr<Module> Scratch;
  {
    SpanScope S("ir.clone");
    Scratch = M->clone();
  }
  std::optional<CallGraph> CG;
  {
    SpanScope S("analysis.callgraph");
    CG.emplace(*Scratch);
  }
  std::optional<ModRefInfo> MRI;
  {
    SpanScope S("analysis.modref");
    MRI.emplace(ModRefInfo::compute(*Scratch, *CG));
  }
  {
    SpanScope S("analysis.ssa");
    std::vector<SSAResult> SSA;
    for (const std::unique_ptr<Procedure> &Proc : Scratch->procedures())
      SSA.push_back(constructSSA(*Proc, *MRI));
  }
}

void reanalyzeOp(BatchProgram &P, unsigned EditIdx, ProgramSamples &Out,
                 BatchResults &B, Failures &F, bool Traced) {
  const std::string &Source = P.Edits[EditIdx];
  std::optional<std::string> &Ref = P.EditRefs[EditIdx];
  if (!Ref) {
    // First use of this edit: its cold report is the reference.
    std::unique_ptr<Module> M = frontend(Source, nullptr, F);
    if (!M)
      return;
    Ref = normalizedReport(P.Name, *M, runIPCP(*M));
  }
  SummaryCache Cache = P.BaseCache;
  IPCPOptions Opts;
  Opts.Cache = &Cache;
  // As in analyzeOp, the sample and the span end before any teardown.
  std::optional<Program> Ast;
  std::unique_ptr<Module> M;
  IPCPResult Res;
  uint64_t T0 = nowNs();
  {
    SpanScope Op("op.reanalyze", /*NewOp=*/true);
    {
      SpanScope S("frontend.parse");
      DiagnosticsEngine Diags;
      Ast = parseAndCheck(Source, Diags);
    }
    if (!Ast) {
      F.note(P.Name + ": reanalyze: parse of edit failed");
      return;
    }
    {
      SpanScope S("ir.lower");
      M = lowerProgram(*Ast);
    }
    {
      SpanScope S("core.ipcp_warm");
      Res = runIPCP(*M, Opts);
    }
    Out.ReanalyzeMs.push_back(msSince(T0));
  }
  if (!Res.UsedCache || Res.Stats.get("cache_hits") == 0)
    F.note(P.Name + ": reanalyze: the summary cache was not used");
  if (normalizedReport(P.Name, *M, Res) != *Ref)
    F.note(P.Name + ": reanalyze: warm report differs from cold reference");
  if (!Traced)
    return;
  LayerSums &L = B.Layers;
  double Hits = double(Res.Stats.get("cache_hits"));
  double Misses = double(Res.Stats.get("cache_misses"));
  L.add("cache.hits", Hits);
  L.add("cache.misses", Misses);
  L.add("cache.val_adopted", double(Res.Stats.get("cache_val_adopted")));
  L.add("cache.warm_evaluations", double(Res.Stats.get("prop_evaluations")));
}

void optimizeOp(BatchProgram &P, ProgramSamples &Out, BatchResults &B,
                Failures &F, bool Traced) {
  std::unique_ptr<Module> M = lowerProgram(P.Ast);
  OptimizationResult Opt;
  uint64_t T0 = nowNs();
  {
    SpanScope Op("op.optimize", /*NewOp=*/true);
    SpanScope S("transform.optimize");
    Opt = optimizeModule(*M);
  }
  Out.OptimizeMs.push_back(msSince(T0));
  ExecutionResult Run;
  {
    SpanScope S("interp.interpret", /*NewOp=*/true);
    Run = interpret(*M, interpOptions());
  }
  if (Run.TheStatus != P.RefRun.TheStatus || Run.Output != P.RefRun.Output)
    F.note(P.Name + ": optimize: optimized program's output differs");
  if (!P.RefSubstitutions) {
    P.RefSubstitutions = Opt.Substitutions;
    P.OptimizedSteps = Run.Steps;
  } else if (*P.RefSubstitutions != Opt.Substitutions ||
             P.OptimizedSteps != Run.Steps) {
    F.note(P.Name + ": optimize: result changed between runs");
  }
  if (!Traced)
    return;
  LayerSums &L = B.Layers;
  L.add("transform.rounds", double(Opt.Rounds));
  L.add("transform.substitutions", double(Opt.Substitutions));
  L.add("transform.insts_after_ratio",
        Opt.InstructionsBefore
            ? double(Opt.InstructionsAfter) / double(Opt.InstructionsBefore)
            : 1.0);
  L.add("interp.steps_before", double(P.RefRun.Steps));
  L.add("interp.steps_after", double(Run.Steps));
}

/// The batch phase. It runs in slices between the service steps, so that
/// its samples span the whole run: the host's speed drifts over tens of
/// seconds, and a phase timed in one stretch would sample one speed. Each
/// operation is of the kind furthest below its target share of the batch
/// time spent so far, cycling through programs and edits per kind.
class BatchRunner {
public:
  BatchRunner(Inputs &In, const Plan &P, double Seconds, unsigned Slices,
              Failures &F, bool Traced)
      : In(In), F(F), Traced(Traced),
        Share{P.AnalyzeShare, P.ReanalyzeShare, P.OptimizeShare},
        TotalMs(Seconds * 1000), SliceMs(TotalMs / Slices) {
    B.Samples.resize(In.Programs.size());
  }

  /// Runs until the batch has spent the time of one more slice. The first
  /// slice also runs every kind on every program once, so that each metric
  /// has a sample and every program has its optimize reference before the
  /// service phase starts.
  void slice() { runUntil(std::min(TotalMs, SliceMs * ++SlicesRun)); }

  /// Runs the rest of the batch time: the slices a service phase whose
  /// capacity ladder stopped early did not use.
  BatchResults finish() {
    runUntil(TotalMs);
    return std::move(B);
  }

private:
  void runUntil(double TargetMs) {
    size_t N = In.Programs.size();
    auto Covered = [&] {
      return Cursor[0] >= N && Cursor[1] >= N && Cursor[2] >= N;
    };
    for (;;) {
      double Total = Spent[0] + Spent[1] + Spent[2];
      if (Total >= TargetMs && Covered())
        return;
      unsigned K = 0;
      double Worst = 1e300;
      for (unsigned I = 0; I != 3; ++I) {
        double Deficit = Total > 0 ? Spent[I] / Total - Share[I] : -Share[I];
        if (Cursor[I] < N && Total >= TargetMs)
          Deficit = -2;
        if (Deficit < Worst) {
          Worst = Deficit;
          K = I;
        }
      }
      unsigned Pick = Cursor[K]++;
      BatchProgram &Prog = In.Programs[Pick % N];
      ProgramSamples &Out = B.Samples[Pick % N];
      uint64_t T0 = nowNs();
      ++B.Attempted;
      if (K == 0) {
        analyzeOp(Prog, Out, B, F, Traced);
        if (Traced)
          layerProbe(Prog);
      } else if (K == 1) {
        reanalyzeOp(Prog, (Pick / N) % Prog.Edits.size(), Out, B, F, Traced);
      } else {
        optimizeOp(Prog, Out, B, F, Traced);
      }
      Spent[K] += msSince(T0);
    }
  }

  Inputs &In;
  Failures &F;
  bool Traced;
  const double Share[3];
  const double TotalMs, SliceMs;
  unsigned SlicesRun = 0;
  double Spent[3] = {0, 0, 0};
  unsigned Cursor[3] = {0, 0, 0};
  BatchResults B;
};

//===----------------------------------------------------------------------===//
// Service phase
//===----------------------------------------------------------------------===//

/// Peak resident set of this process image. getrusage's ru_maxrss is not
/// it: Linux carries the high-water mark across execve, so a harness
/// started from a larger parent (python3 run.py) would report the
/// parent's peak. VmHWM belongs to the current address space.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

struct StepResult {
  std::vector<double> LatMs;   ///< scheduled send -> response popped
  std::vector<double> LateMs;  ///< generator lateness per request
  uint64_t Busy = 0;
  uint64_t Errors = 0;
  /// From the stats barrier: analyze items served (optimize requests and
  /// batch items included) and those a session cache served warm.
  uint64_t Items = 0;
  uint64_t WarmHits = 0;
  /// Analyze items that carry a session (from the request log).
  uint64_t SessionItems = 0;
  uint64_t QueuePeak = 0;
  /// Median over consecutive windows of Window requests of each
  /// window's p99: a VM stall that hits one window does not decide it.
  double P99 = 0;
  bool Passed = false;

  /// Shares of the analyze items: served warm from a session cache,
  /// written to one (session items that were not warm), and bypassing
  /// the session caches (optimize and session-less requests).
  double share(uint64_t N) const { return Items ? double(N) / double(Items) : 0; }
  double warmShare() const { return share(WarmHits); }
  double writeShare() const { return share(SessionItems - WarmHits); }
  double bypassShare() const { return share(Items - SessionItems); }
};

ShardedService::Config serviceConfig() {
  ShardedService::Config C;
  C.Shards = 2;
  C.Jobs = 2;
  C.Engine.SuiteResolver = [](const std::string &Name, std::string &Out) {
    const SuiteProgram *P = findSuiteProgram(Name);
    if (P)
      Out = P->Source;
    return P != nullptr;
  };
  return C;
}

enum Outcome : char { Ok, Busy, Error };

/// Classifies one response line. Envelopes are compact JSON with the
/// body's members after the envelope's own: an ok analysis reads
/// {..., "status":"ok","report":{..}}, an error body puts "error" right
/// after "status", and a batch is {..., "status":"ok","responses":[..]}
/// whose items each carry their own analysis body. Reports themselves
/// have no "status" member.
Outcome classify(const std::string &Line) {
  static const std::string Status = "\"status\":";
  static const std::string OkReport = "\"status\":\"ok\",\"report\":{";
  static const std::string OkBatch = "\"status\":\"ok\",\"responses\":[";
  static const std::string BusyBody = "\"status\":\"busy\"";
  size_t At = Line.find(Status);
  if (At == std::string::npos)
    return Error;
  if (Line.compare(At, OkReport.size(), OkReport) == 0)
    return Ok;
  if (Line.compare(At, BusyBody.size(), BusyBody) == 0)
    return Busy;
  if (Line.compare(At, OkBatch.size(), OkBatch) != 0)
    return Error;
  unsigned ItemsSeen = 0;
  for (At = Line.find(Status, At + 1); At != std::string::npos;
       At = Line.find(Status, At + 1), ++ItemsSeen)
    if (Line.compare(At, OkReport.size(), OkReport) != 0)
      return Error;
  return ItemsSeen ? Ok : Error;
}

/// Sends the first \p Count request lines open loop at \p Rate through a
/// fresh service (so every step does identical work), then a stats
/// barrier for the counters and queue gauges. Latency runs from each
/// request's scheduled send time; p99 is taken per window of \p Window
/// requests. Every error response is a failed check; a busy response is
/// one too when \p BusyFails, and otherwise only fails the step.
StepResult runStep(RequestLog &Log, unsigned Count, double Rate,
                   double LimitMs, size_t Window, bool BusyFails,
                   Failures &F) {
  Log.extendTo(Count);
  const std::vector<std::string> &Lines = Log.Lines;
  StepResult R;
  R.SessionItems = Log.sessionItemsIn(Count);
  ShardedService Svc(serviceConfig());
  std::unique_ptr<ShardedService::Stream> St = Svc.openStream();
  std::vector<uint64_t> Scheduled(Count + 1, 0);
  // The reader keeps only the arrival time and the outcome of each
  // response (so memory does not grow with the step), and the last line:
  // the stats barrier's response.
  std::vector<uint64_t> PoppedAt;
  std::vector<Outcome> Outcomes;
  PoppedAt.reserve(Count + 1);
  Outcomes.reserve(Count + 1);
  std::string Last;

  std::thread Reader([&] {
    SpanScope S("service.reader", /*NewOp=*/true);
    while (St->popResponse(Last)) {
      PoppedAt.push_back(nowNs());
      Outcomes.push_back(classify(Last));
    }
  });

  uint64_t T0 = nowNs() + 1'000'000;
  {
    SpanScope S("service.generator", /*NewOp=*/true);
    for (unsigned I = 0; I != Count; ++I) {
      uint64_t Due = T0 + uint64_t(double(I) * 1e9 / Rate);
      // Spin rather than sleep: a sleeping generator wakes late on a
      // busy host, and its lateness would show up as service latency.
      // Yielding hands the CPU to a worker or the reader if one is
      // runnable on it.
      while (nowNs() < Due)
        std::this_thread::yield();
      Scheduled[I] = Due;
      R.LateMs.push_back(msSince(Due));
      SpanScope Submit("service.submit");
      Svc.submitLine(*St, Lines[I]);
    }
    Svc.submitLine(*St, R"({"op":"stats","id":"stats"})");
    Svc.finishStream(*St);
  }
  Reader.join();

  if (Outcomes.size() != size_t(Count) + 1) {
    F.note("service: expected one response per request");
    return R;
  }
  for (unsigned I = 0; I != Count; ++I) {
    R.LatMs.push_back(double(PoppedAt[I] - Scheduled[I]) / 1e6);
    if (Outcomes[I] == Busy) {
      ++R.Busy;
      if (BusyFails)
        F.note("service: response " + std::to_string(I) +
               " is busy in the latency step");
    } else if (Outcomes[I] == Error) {
      ++R.Errors;
      F.note("service: response " + std::to_string(I) +
             " is not an ok report");
    }
  }
  if (std::optional<JsonValue> Stats = JsonValue::parse(Last)) {
    const JsonValue *Body = Stats->find("stats");
    if (const JsonValue *N = Body ? Body->find("analyze_requests") : nullptr)
      R.Items = uint64_t(N->asInt());
    if (const JsonValue *W = Body ? Body->find("warm_hits") : nullptr)
      R.WarmHits = uint64_t(W->asInt());
    if (const JsonValue *Shards = Body ? Body->find("shards") : nullptr)
      for (size_t I = 0; I != Shards->size(); ++I)
        if (const JsonValue *Peak = Shards->at(I).find("queue_peak"))
          R.QueuePeak = std::max(R.QueuePeak, uint64_t(Peak->asInt()));
  }
  std::vector<double> WindowP99;
  for (size_t I = 0; I < R.LatMs.size(); I += Window)
    WindowP99.push_back(quantile(
        std::vector<double>(R.LatMs.begin() + I,
                            R.LatMs.begin() +
                                std::min(I + Window, R.LatMs.size())),
        0.99));
  R.P99 = median(WindowP99);
  // A step meets the limit when its p99 does, nothing was refused, and
  // the backlog did not grow: the last quarter's mean latency is within
  // the limit too.
  std::vector<double> Tail(R.LatMs.end() - R.LatMs.size() / 4, R.LatMs.end());
  R.Passed = R.Busy == 0 && R.Errors == 0 && R.P99 <= LimitMs &&
             mean(Tail) <= LimitMs;
  return R;
}

/// The latency steps pooled: samples concatenated, counts summed, the
/// queue peak the largest, and p99 the median of the steps' p99s.
StepResult pool(const std::vector<StepResult> &Steps) {
  StepResult All;
  std::vector<double> P99s;
  for (const StepResult &R : Steps) {
    All.LatMs.insert(All.LatMs.end(), R.LatMs.begin(), R.LatMs.end());
    All.LateMs.insert(All.LateMs.end(), R.LateMs.begin(), R.LateMs.end());
    All.Busy += R.Busy;
    All.Errors += R.Errors;
    All.Items += R.Items;
    All.WarmHits += R.WarmHits;
    All.SessionItems += R.SessionItems;
    All.QueuePeak = std::max(All.QueuePeak, R.QueuePeak);
    P99s.push_back(R.P99);
  }
  All.P99 = median(P99s);
  return All;
}

struct ServiceResults {
  StepResult Ref;        ///< the latency steps, pooled
  double P50 = 0;        ///< median of the latency steps' p50s
  unsigned RefLines = 0; ///< request lines per latency step
  double SaturatedRps = 0;
  double RefRate = 0;
  double CapacityRps = 0;
  unsigned LadderSteps = 0;
  unsigned StepRequests = 0;
  uint64_t Attempted = 0;
  uint64_t LadderBusy = 0;
  double PeakRssMb = 0; ///< through the saturation measurement
};

/// Rungs of the capacity ladder: 10 * 1.05^k requests/s.
double rung(int K) { return 10.0 * std::pow(1.05, K); }

/// Saturated throughput: requests per second with the service kept busy
/// by a closed loop of at most \p Window outstanding requests.
double saturatedRps(RequestLog &Log, unsigned Count, unsigned Window) {
  Log.extendTo(Count);
  ShardedService Svc(serviceConfig());
  std::unique_ptr<ShardedService::Stream> St = Svc.openStream();
  std::atomic<unsigned> Done{0};
  uint64_t Last = 0;
  std::thread Reader([&] {
    std::string Line;
    while (St->popResponse(Line)) {
      Last = nowNs();
      ++Done;
    }
  });
  uint64_t T0 = nowNs();
  for (unsigned I = 0; I != Count; ++I) {
    while (I >= Done.load() + Window)
      std::this_thread::yield();
    Svc.submitLine(*St, Log.Lines[I]);
  }
  Svc.finishStream(*St);
  Reader.join();
  return double(Count) / (double(Last - T0) / 1e9);
}

/// Latency steps of the service phase, each after a saturation
/// measurement of its own.
constexpr unsigned LatencySteps = 4;

/// The most steps runService runs, each preceded by a BetweenSteps call.
unsigned maxServiceSteps(const Plan &P) {
  return 2 * LatencySteps + P.MaxLadderSteps;
}

/// The service phase, sized to take \p Seconds at the workload's nominal
/// throughput. About half is the latency steps, each at 30% of the
/// saturated throughput measured just before it, so that each sits at the
/// same load whatever the host's speed at the time: at a fixed rate, a
/// host slowed by a busy neighbour pushes the load toward saturation and
/// the latency up several-fold. The rest runs the capacity ladder, which
/// starts at 90% of the median saturated throughput. \p BetweenSteps runs
/// before every step.
ServiceResults runService(Inputs &In, const Plan &P, double Seconds,
                          bool Smoke, Failures &F,
                          const std::function<void()> &BetweenSteps) {
  ServiceResults S;
  // A window holds enough requests for a p99 with ten samples beyond it.
  size_t Window = Smoke ? 20 : 1000;
  S.RefLines =
      Smoke ? 40
            : unsigned(Window *
                       std::max(1.0, std::floor(0.3 * P.NominalRps * Seconds *
                                                0.5 / LatencySteps / Window)));
  // The latency is measured in several short steps spread over the run,
  // each at 30% of a saturated throughput measured just before it, and
  // svc_p50_ms is the median of their p50s: a slow spell of the host that
  // meets one step does not decide it. A single saturation measurement
  // moves by 10-20%, which at 30% load moves the latency by a few percent.
  std::vector<double> Saturated, Rates, P50s;
  std::vector<StepResult> Steps;
  for (unsigned Rep = 0; Rep != LatencySteps; ++Rep) {
    BetweenSteps();
    Saturated.push_back(saturatedRps(In.Requests, Smoke ? 20 : 1000, 32));
    // Peak memory is taken after the first saturation measurement, by
    // when the batch has run every operation on every program. Later
    // services start threads that reuse the malloc arenas of exited ones
    // in an order that depends on scheduling, which moves the process's
    // peak by about 2 MB from one run to the next.
    if (Rep == 0)
      S.PeakRssMb = peakRssMb();
    Rates.push_back(0.3 * Saturated.back());
    BetweenSteps();
    Steps.push_back(runStep(In.Requests, S.RefLines, Rates.back(), P.LimitMs,
                            Window, /*BusyFails=*/true, F));
    P50s.push_back(median(Steps.back().LatMs));
    S.Attempted += S.RefLines;
  }
  S.SaturatedRps = median(Saturated);
  S.RefRate = median(Rates);
  S.Ref = pool(Steps);
  S.P50 = median(P50s);

  S.StepRequests =
      Smoke ? 30
            : unsigned(std::clamp(P.NominalRps * Seconds * 0.45 /
                                      double(P.MaxLadderSteps - 1),
                                  1000.0, 6000.0));
  // Coarse steps (three rungs) until the capacity is bracketed, then
  // bisect down to adjacent rungs.
  int K = int(std::floor(std::log(0.9 * S.SaturatedRps / 10.0) /
                         std::log(1.05)));
  std::optional<int> Best, Worst;
  for (unsigned Step = 0; Step != P.MaxLadderSteps; ++Step) {
    BetweenSteps();
    StepResult R = runStep(In.Requests, S.StepRequests, rung(K), P.LimitMs,
                           Window, /*BusyFails=*/false, F);
    ++S.LadderSteps;
    S.Attempted += S.StepRequests;
    S.LadderBusy += R.Busy;
    if (R.Passed)
      Best = std::max(Best.value_or(K), K);
    else
      Worst = std::min(Worst.value_or(K), K);
    if (Best && Worst) {
      if (*Worst - *Best <= 1)
        break;
      K = (*Best + *Worst) / 2;
    } else {
      K += Best ? 3 : -3;
    }
  }
  S.CapacityRps = Best ? rung(*Best) : 0;
  return S;
}

/// Serial ServiceEngine replay of the reference step's traffic: the
/// engine time per request line with no queueing (traced run only).
std::vector<double> engineReplay(RequestLog &Log, size_t Count) {
  Log.extendTo(Count);
  ShardedService::Config C = serviceConfig();
  ServiceEngine Engine(C.Engine);
  std::vector<double> Ms;
  for (size_t I = 0; I != Count; ++I) {
    ServiceRequest Req;
    std::string Code, Error;
    if (!Engine.parseRequestLine(Log.Lines[I], Req, &Code, &Error))
      continue;
    SpanScope Op("service.engine_analyze", /*NewOp=*/true);
    uint64_t T0 = nowNs();
    if (Req.Op == ServiceRequest::Kind::AnalyzeBatch)
      Engine.analyzeBatch(Req);
    else
      Engine.analyze(Req);
    Ms.push_back(msSince(T0));
  }
  return Ms;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string metricsJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                        const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Ms[I].Value);
    Out += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return Out + "}}";
}

/// Per span name over the whole run: total and self time (the span minus
/// its direct children) and the number of spans.
struct SpanTotals {
  double Ms = 0, SelfMs = 0;
  uint64_t Count = 0;
};

std::map<std::string, SpanTotals> spanTotals() {
  std::vector<double> ChildMs(TheTracer.Spans.size(), 0);
  for (const Tracer::Span &S : TheTracer.Spans)
    if (S.Parent >= 0)
      ChildMs[size_t(S.Parent)] += double(S.End - S.Start) / 1e6;
  std::map<std::string, SpanTotals> T;
  for (size_t I = 0; I != TheTracer.Spans.size(); ++I) {
    const Tracer::Span &S = TheTracer.Spans[I];
    double Ms = double(S.End - S.Start) / 1e6;
    SpanTotals &E = T[S.Name];
    E.Ms += Ms;
    E.SelfMs += std::max(0.0, Ms - ChildMs[I]);
    ++E.Count;
  }
  return T;
}

/// Direct children of the spans named \p Parent: total ms per child name.
std::map<std::string, double> childTotals(const std::string &Parent) {
  std::map<std::string, double> T;
  for (const Tracer::Span &S : TheTracer.Spans)
    if (S.Parent >= 0 && TheTracer.Spans[size_t(S.Parent)].Name == Parent)
      T[S.Name] += double(S.End - S.Start) / 1e6;
  return T;
}

void writeSpans(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 Path.c_str());
    return;
  }
  uint64_t Base = TheTracer.Spans.empty() ? 0 : TheTracer.Spans[0].Start;
  Out << "[\n";
  for (size_t I = 0; I != TheTracer.Spans.size(); ++I) {
    const Tracer::Span &S = TheTracer.Spans[I];
    Out << (I ? ",\n" : "") << "{\"id\": " << I << ", \"name\": \"" << S.Name
        << "\", \"start_us\": " << (S.Start - Base) / 1000
        << ", \"end_us\": " << (S.End - Base) / 1000
        << ", \"parent\": " << S.Parent << ", \"op\": " << S.Op << "}";
  }
  Out << "\n]\n";
}

void printBudget(const std::string &Workload,
                 const std::map<std::string, SpanTotals> &T) {
  std::printf("# budget (%s): each layer's share of its end-to-end "
              "operation, base = mean ms per operation\n",
              Workload.c_str());
  for (const char *Op : {"op.analyze", "op.reanalyze", "op.optimize"}) {
    auto It = T.find(Op);
    if (It == T.end() || !It->second.Count)
      continue;
    double Base = It->second.Ms;
    std::printf("#   %-14s base %.3f ms x %llu:", Op + 3,
                Base / double(It->second.Count),
                (unsigned long long)It->second.Count);
    for (const auto &[Child, Ms] : childTotals(Op))
      std::printf(" %s %.1f%%", Child.c_str(), 100 * Ms / Base);
    std::printf(" self %.1f%%\n", 100 * It->second.SelfMs / Base);
  }
}

/// The traced run's per-layer metrics: runs the probes the untraced run
/// does not pay for (serial engine replay, parse/lower size sweep), writes
/// the spans, and prints the budget table.
std::vector<Metric> layerMetrics(const Args &A, Inputs &In,
                                 const BatchResults &B,
                                 const ServiceResults &S) {
  std::vector<double> EngineMs =
      engineReplay(In.Requests, S.RefLines);
  std::map<std::string, std::vector<double>> Sweep;
  unsigned Big = A.Smoke ? 64 : 4096;
  for (unsigned Procs : {Big / 2, Big}) {
    std::string Source = generateProgram(largeConfig(LargeModuleSeed, Procs));
    std::string Size = Procs == Big ? "big" : "small";
    for (int Rep = 0; Rep != 3; ++Rep) {
      DiagnosticsEngine Diags;
      uint64_t T0 = nowNs();
      std::optional<Program> Ast = parseAndCheck(Source, Diags);
      Sweep["parse_" + Size].push_back(msSince(T0));
      T0 = nowNs();
      std::unique_ptr<Module> M = lowerProgram(*Ast);
      Sweep["lower_" + Size].push_back(msSince(T0));
    }
  }
  if (!A.SpansPath.empty())
    writeSpans(A.SpansPath);

  std::map<std::string, SpanTotals> T = spanTotals();
  auto MeanMs = [&](const std::string &Name) {
    auto It = T.find(Name);
    return It == T.end() ? 0.0 : It->second.Ms / double(It->second.Count);
  };
  auto Share = [](double Part, double Whole) {
    return Whole > 0 ? Part / Whole : 0.0;
  };
  const LayerSums &L = B.Layers;
  double IpcpMs = MeanMs("core.ipcp");
  double CloneMs = MeanMs("ir.clone");
  double UnattributedMs = L.meanOf("core.ipcp_unattributed_ms");
  double OptMs = MeanMs("transform.optimize");
  double Rounds = L.meanOf("transform.rounds");
  double Hits = L.sumOf("cache.hits"), Misses = L.sumOf("cache.misses");
  double EngineP50 = median(EngineMs);
  double SvcP50 = S.P50;

  std::vector<Metric> Out = {
      {"frontend.parse_ms", MeanMs("frontend.parse"), "ms"},
      {"frontend.source_kb", L.meanOf("frontend.source_kb"), "KB"},
      {"ir.lower_ms", MeanMs("ir.lower"), "ms"},
      {"ir.insts", L.meanOf("ir.insts"), "count"},
      {"ir.clone_ms", CloneMs, "ms"},
      {"analysis.callgraph_ms", MeanMs("analysis.callgraph"), "ms"},
      {"analysis.modref_ms", MeanMs("analysis.modref"), "ms"},
      {"analysis.ssa_ms", MeanMs("analysis.ssa"), "ms"},
      {"core.ipcp_ms", IpcpMs, "ms"},
      {"core.ipcp_unattributed_ms", UnattributedMs, "ms"},
      {"core.clone_share", Share(CloneMs, IpcpMs), "ratio"},
  };
  for (const char *C :
       {"time_intraprocedural_us", "time_return_jf_us", "time_forward_jf_us",
        "time_propagation_us", "time_record_us", "time_total_us"})
    Out.push_back(
        {std::string("core.") + C, L.meanOf(std::string("core.") + C), "us"});
  for (const char *C :
       {"prop_evaluations", "prop_visits", "sccp_runs", "unique_exprs"})
    Out.push_back({std::string("core.") + C,
                   L.meanOf(std::string("core.") + C), "count"});
  std::vector<Metric> Rest = {
      {"cache.hits", L.meanOf("cache.hits"), "count"},
      {"cache.misses", L.meanOf("cache.misses"), "count"},
      {"cache.hit_ratio", Share(Hits, Hits + Misses), "ratio"},
      {"cache.val_adopted", L.meanOf("cache.val_adopted"), "count"},
      {"cache.warm_evaluations", L.meanOf("cache.warm_evaluations"), "count"},
      {"report.build_ms", MeanMs("report.build"), "ms"},
      {"report.dump_ms", MeanMs("report.dump"), "ms"},
      {"report.bytes", L.meanOf("report.bytes"), "bytes"},
      {"transform.optimize_ms", OptMs, "ms"},
      {"transform.rounds", Rounds, "count"},
      {"transform.ms_per_round", Share(OptMs, Rounds), "ms"},
      {"transform.substitutions", L.meanOf("transform.substitutions"),
       "count"},
      {"transform.insts_after_ratio", L.meanOf("transform.insts_after_ratio"),
       "ratio"},
      {"interp.steps_before", L.meanOf("interp.steps_before"), "count"},
      {"interp.steps_after", L.meanOf("interp.steps_after"), "count"},
      {"service.engine_ms", EngineP50, "ms"},
      {"service.wait_ms", SvcP50 - EngineP50, "ms"},
      {"service.busy", double(S.Ref.Busy + S.LadderBusy), "count"},
      {"service.warm_hits", double(S.Ref.WarmHits), "count"},
      {"service.warm_share", S.Ref.warmShare(), "ratio"},
      {"service.write_share", S.Ref.writeShare(), "ratio"},
      {"service.bypass_share", S.Ref.bypassShare(), "ratio"},
      {"service.queue_peak", double(S.Ref.QueuePeak), "count"},
      {"service.gen_late_ms", quantile(S.Ref.LateMs, 0.99), "ms"},
      {"service.p99_ms", S.Ref.P99, "ms"},
      {"sweep.procs_small", double(Big / 2), "count"},
      {"sweep.procs_big", double(Big), "count"},
      {"sweep.parse_ms_small", median(Sweep["parse_small"]), "ms"},
      {"sweep.parse_ms_big", median(Sweep["parse_big"]), "ms"},
      {"sweep.lower_ms_small", median(Sweep["lower_small"]), "ms"},
      {"sweep.lower_ms_big", median(Sweep["lower_big"]), "ms"},
  };
  Out.insert(Out.end(), Rest.begin(), Rest.end());

  printBudget(A.Workload, T);
  std::printf("#   service        base %.3f ms p50 at %.0f/s: engine %.1f%% "
              "(serial replay p50 %.3f ms) wait %.1f%%\n",
              SvcP50, S.RefRate, 100 * Share(EngineP50, SvcP50), EngineP50,
              100 * Share(SvcP50 - EngineP50, SvcP50));
  std::printf("# runIPCP (cold) base %.3f ms:", IpcpMs);
  for (const char *C : IPCPStageCounters)
    std::printf(" %s %.1f%%", C + 5,
                100 * Share(L.meanOf(std::string("core.") + C) / 1000.0,
                            IpcpMs));
  std::printf(" unattributed %.1f%%\n", 100 * Share(UnattributedMs, IpcpMs));
  std::printf("# clone check: ir.clone_ms %.3f = %.1f%% of cold runIPCP "
              "(%.3f ms); unattributed %.3f ms = %.1f%%\n",
              CloneMs, 100 * Share(CloneMs, IpcpMs), IpcpMs, UnattributedMs,
              100 * Share(UnattributedMs, IpcpMs));
  std::printf("# self time per span (ms total / self / count):");
  for (const auto &[Name, Tot] : T)
    std::printf(" %s %.1f/%.1f/%llu", Name.c_str(), Tot.Ms, Tot.SelfMs,
                (unsigned long long)Tot.Count);
  std::printf("\n");
  for (const Metric &M : Out)
    std::printf("# layer %-28s %.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", Flag.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (Flag == "--workload")
      A.Workload = Value();
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = Value() != "0";
    else if (Flag == "--spans")
      A.SpansPath = Value();
    else if (Flag == "--smoke")
      A.Smoke = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", Flag.c_str());
      return 2;
    }
  }
  if (A.Workload != "large" && A.Workload != "service") {
    std::fprintf(stderr, "perfbench: --workload must be large or service\n");
    return 2;
  }
  if (!(A.Seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  Plan P = planFor(A);

  // Set-up is repeated so its median is a steady figure. The first
  // repetition's inputs are used; the others are spread over the run,
  // between the service steps that follow the peak-memory reading, so
  // that setup_s samples the host's speed over the whole run like every
  // other timing, rather than at its start.
  Failures F;
  std::vector<double> SetupS;
  auto SetUpTimed = [&]() {
    Failures RepFailures;
    uint64_t T0 = nowNs();
    Inputs Made = setUp(A, P, RepFailures);
    SetupS.push_back(msSince(T0) / 1000.0);
    F.Count += RepFailures.Count;
    return Made;
  };
  Inputs In = SetUpTimed();
  if (In.Programs.empty()) {
    std::fprintf(stderr, "perfbench: no batch program could be set up\n");
    return 1;
  }
  const unsigned Steps = maxServiceSteps(P);
  unsigned StepsSeen = 0;
  auto SetUpUntil = [&](unsigned Reps) {
    TheTracer.On = false;
    while (SetupS.size() < std::min(Reps, P.SetupReps))
      SetUpTimed();
    TheTracer.On = A.Trace;
  };

  TheTracer.On = A.Trace;
  // One batch slice before each service step, and the rest at the end.
  BatchRunner Batch(In, P, A.Seconds * P.BatchShare, Steps + 1, F, A.Trace);
  ServiceResults S = runService(
      In, P, A.Seconds * (1 - P.BatchShare), A.Smoke, F, [&] {
        if (StepsSeen++ > 0)
          SetUpUntil(1 + (P.SetupReps - 1) * (StepsSeen - 1) / (Steps - 1));
        Batch.slice();
      });
  SetUpUntil(P.SetupReps);
  BatchResults B = Batch.finish();
  if (F.Count) {
    // A failed check voids the run: no result line, and a non-zero exit.
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed a check\n",
                 (unsigned long long)F.Count,
                 (unsigned long long)(B.Attempted + S.Attempted));
    return 1;
  }

  uint64_t RefRefs = 0, StepsBefore = 0, StepsAfter = 0;
  for (const BatchProgram &Prog : In.Programs) {
    RefRefs += Prog.RefRefs;
    StepsBefore += Prog.RefRun.Steps;
    StepsAfter += Prog.OptimizedSteps;
  }
  uint64_t Attempted = B.Attempted + S.Attempted;
  std::vector<Metric> E2E = {
      {"setup_s", median(SetupS), "s"},
      {"analyze_p50_ms", B.meanOfMedians(&ProgramSamples::AnalyzeMs), "ms"},
      {"analyze_p99_ms", quantile(B.pooled(&ProgramSamples::AnalyzeMs), 0.99),
       "ms"},
      {"reanalyze_p50_ms", B.meanOfMedians(&ProgramSamples::ReanalyzeMs),
       "ms"},
      {"optimize_p50_ms", B.meanOfMedians(&ProgramSamples::OptimizeMs), "ms"},
      {"constant_refs", double(RefRefs), "count"},
      {"steps_ratio",
       StepsBefore ? double(StepsAfter) / double(StepsBefore) : 1.0,
       "ratio"},
      {"peak_rss_mb", S.PeakRssMb, "MB"},
      {"ok_frac", double(Attempted - std::min(F.Count, Attempted)) /
                      double(Attempted),
       "ratio"},
      {"svc_p50_ms", S.P50, "ms"},
      {"svc_capacity_rps", S.CapacityRps, "1/s"},
  };

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace));
  std::printf("# samples: analyze %zu, reanalyze %zu, optimize %zu, service "
              "%zu at %.0f/s; saturated %.0f/s, ladder %u steps of %u "
              "(limit p99 %.0f ms); setup median of %zu %.3f s\n",
              B.pooled(&ProgramSamples::AnalyzeMs).size(),
              B.pooled(&ProgramSamples::ReanalyzeMs).size(),
              B.pooled(&ProgramSamples::OptimizeMs).size(),
              S.Ref.LatMs.size(), S.RefRate, S.SaturatedRps, S.LadderSteps,
              S.StepRequests, P.LimitMs, SetupS.size(), median(SetupS));
  std::printf("# service mix (latency step): %llu analyze items in %zu lines, "
              "warm %.3f, write %.3f, bypass %.3f\n",
              (unsigned long long)S.Ref.Items, S.Ref.LatMs.size(),
              S.Ref.warmShare(), S.Ref.writeShare(), S.Ref.bypassShare());
  for (const Metric &M : E2E)
    std::printf("# %s%-18s %.4f %s\n", A.Trace ? "traced " : "",
                M.Name.c_str(), M.Value, M.Unit.c_str());
  // Not an end-to-end metric: on a shared VM host stalls of several ms
  // decide it, and it does not repeat from run to run.
  std::printf("# %ssvc_p99 (unbounded) %.4f ms\n", A.Trace ? "traced " : "",
              S.Ref.P99);

  std::vector<Metric> Out =
      A.Trace ? layerMetrics(A, In, B, S) : std::move(E2E);
  std::printf("%s\n",
              metricsJson(F.Count == 0, Attempted, F.Count, Out).c_str());
  return 0;
}

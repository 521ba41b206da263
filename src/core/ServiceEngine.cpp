//===- core/ServiceEngine.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ServiceEngine.h"

#include "core/Pipeline.h"
#include "core/Report.h"
#include "frontend/Parser.h"
#include "ir/AstLower.h"
#include "support/ContentStore.h"
#include "support/FaultInjection.h"
#include "support/StableHash.h"

#include <algorithm>
#include <condition_variable>
#include <stdexcept>

using namespace ipcp;

//===----------------------------------------------------------------------===//
// Request codec
//===----------------------------------------------------------------------===//

namespace {

bool fail(std::string *ErrorCode, std::string *Error, const char *Code,
          std::string Message) {
  if (ErrorCode)
    *ErrorCode = Code;
  if (Error)
    *Error = std::move(Message);
  return false;
}

/// Reads an optional boolean member; type mismatch is a request error.
bool readBool(const JsonValue &Obj, const char *Key, bool &Out,
              std::string *Error) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isBool()) {
    *Error = std::string("'") + Key + "' must be a boolean";
    return false;
  }
  Out = V->asBool();
  return true;
}

/// Reads an optional string member.
bool readString(const JsonValue &Obj, const char *Key, std::string &Out,
                std::string *Error) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isString()) {
    *Error = std::string("'") + Key + "' must be a string";
    return false;
  }
  Out = V->asString();
  return true;
}

/// Reads an optional non-negative integer member.
bool readUint(const JsonValue &Obj, const char *Key, uint64_t &Out,
              bool &Present, std::string *Error) {
  Present = false;
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isInt() || V->asInt() < 0) {
    *Error = std::string("'") + Key + "' must be a non-negative integer";
    return false;
  }
  Out = uint64_t(V->asInt());
  Present = true;
  return true;
}

/// Parses the "options" object (keys mirror the report's "options"
/// member; see docs/SERVICE.md). Unknown keys are rejected so a typo
/// cannot silently analyze under defaults.
bool parseOptionsObject(const JsonValue &Obj, IPCPOptions &Opts,
                        std::string *Error) {
  static const char *const Known[] = {
      "forward_jf", "return_jf",     "mod_information", "intraprocedural_only",
      "gated_ssa",  "binding_graph", "max_expr_nodes",  "engine",
      "max_contexts"};
  for (const auto &[Key, Val] : Obj.members()) {
    if (std::find_if(std::begin(Known), std::end(Known), [&](const char *K) {
          return Key == K;
        }) == std::end(Known)) {
      *Error = "unknown options key '" + Key + "'";
      return false;
    }
  }
  std::string Kind;
  if (!readString(Obj, "forward_jf", Kind, Error))
    return false;
  if (!Kind.empty()) {
    if (Kind == "literal")
      Opts.ForwardKind = JumpFunctionKind::Literal;
    else if (Kind == "intra")
      Opts.ForwardKind = JumpFunctionKind::IntraproceduralConstant;
    else if (Kind == "passthrough" || Kind == "pass-through")
      Opts.ForwardKind = JumpFunctionKind::PassThrough;
    else if (Kind == "polynomial")
      Opts.ForwardKind = JumpFunctionKind::Polynomial;
    else {
      *Error = "unknown jump function class '" + Kind + "'";
      return false;
    }
  }
  if (!readBool(Obj, "return_jf", Opts.UseReturnJumpFunctions, Error) ||
      !readBool(Obj, "mod_information", Opts.UseModInformation, Error) ||
      !readBool(Obj, "intraprocedural_only", Opts.IntraproceduralOnly,
                Error) ||
      !readBool(Obj, "gated_ssa", Opts.UseGatedSSA, Error) ||
      !readBool(Obj, "binding_graph", Opts.UseBindingGraphPropagator, Error))
    return false;
  std::string Engine;
  if (!readString(Obj, "engine", Engine, Error))
    return false;
  if (!Engine.empty()) {
    if (Engine == "jump")
      Opts.Engine = PropagationEngine::Jump;
    else if (Engine == "contexts")
      Opts.Engine = PropagationEngine::Contexts;
    else {
      *Error = "unknown propagation engine '" + Engine + "'";
      return false;
    }
  }
  uint64_t MaxExpr = 0;
  bool Present = false;
  if (!readUint(Obj, "max_expr_nodes", MaxExpr, Present, Error))
    return false;
  if (Present) {
    if (MaxExpr == 0 || MaxExpr > 1u << 20) {
      *Error = "'max_expr_nodes' must be in [1, 1048576]";
      return false;
    }
    Opts.MaxExprNodes = unsigned(MaxExpr);
  }
  uint64_t MaxCtx = 0;
  if (!readUint(Obj, "max_contexts", MaxCtx, Present, Error))
    return false;
  if (Present) {
    if (MaxCtx == 0 || MaxCtx > 1u << 20) {
      *Error = "'max_contexts' must be in [1, 1048576]";
      return false;
    }
    Opts.MaxContexts = unsigned(MaxCtx);
  }
  return true;
}

/// Effective value of one budget: the request overrides the server
/// default, but a server-configured (non-zero) budget is a ceiling the
/// request cannot raise or disable.
uint64_t mergeLimit(uint64_t Server, bool Requested, uint64_t Request) {
  if (!Requested)
    return Server;
  if (Server != 0 && (Request == 0 || Request > Server))
    return Server;
  return Request;
}

/// Parses the "limits" object against the server defaults (keys are the
/// driver's --limit-* flags with underscores; see docs/SERVICE.md).
bool parseLimitsObject(const JsonValue &Obj, const ResourceLimits &Defaults,
                       ResourceLimits &Out, std::string *Error) {
  static const char *const Known[] = {"parse_depth", "tokens",     "ast_nodes",
                                      "ir_insts",    "prop_evals", "deadline_ms"};
  for (const auto &[Key, Val] : Obj.members()) {
    if (std::find_if(std::begin(Known), std::end(Known), [&](const char *K) {
          return Key == K;
        }) == std::end(Known)) {
      *Error = "unknown limits key '" + Key + "'";
      return false;
    }
  }
  Out = Defaults;
  uint64_t V = 0;
  bool Present = false;
  if (!readUint(Obj, "parse_depth", V, Present, Error))
    return false;
  if (Present) {
    if (V == 0 || V > 1u << 20) {
      *Error = "'parse_depth' must be in [1, 1048576]";
      return false;
    }
    // Parse depth is always finite, so "stricter wins" is a plain min.
    Out.MaxParseDepth = unsigned(std::min<uint64_t>(V, Defaults.MaxParseDepth));
  }
  if (!readUint(Obj, "tokens", V, Present, Error))
    return false;
  Out.MaxTokens = mergeLimit(Defaults.MaxTokens, Present, V);
  if (!readUint(Obj, "ast_nodes", V, Present, Error))
    return false;
  Out.MaxAstNodes = mergeLimit(Defaults.MaxAstNodes, Present, V);
  if (!readUint(Obj, "ir_insts", V, Present, Error))
    return false;
  Out.MaxIRInstructions = mergeLimit(Defaults.MaxIRInstructions, Present, V);
  if (!readUint(Obj, "prop_evals", V, Present, Error))
    return false;
  Out.MaxPropagationEvals = mergeLimit(Defaults.MaxPropagationEvals, Present, V);
  if (!readUint(Obj, "deadline_ms", V, Present, Error))
    return false;
  Out.DeadlineMs = mergeLimit(Defaults.DeadlineMs, Present, V);
  return true;
}

} // namespace

ServiceEngine::ServiceEngine(Config C) : Conf(std::move(C)) {
  // A cache directory without an injected store means this engine owns a
  // private content-addressed tier; the sharded service instead passes
  // one shared store to every shard.
  if (!Conf.Store && !Conf.CacheDir.empty()) {
    ContentStore::Options StoreOpts;
    StoreOpts.Durable = Conf.DurableStore;
    Conf.Store = std::make_shared<ContentStore>(Conf.CacheDir, StoreOpts);
  }
}

ServiceEngine::~ServiceEngine() { shutdownFlush(); }

/// Parses the analyze-specific fields of \p Obj into \p Req.
static bool parseAnalyzeFields(const JsonValue &Obj,
                               const ServiceEngine::Config &Conf,
                               ServiceRequest &Req, std::string *Error) {
  if (!readString(Obj, "source", Req.Source, Error) ||
      !readString(Obj, "suite", Req.Suite, Error) ||
      !readString(Obj, "name", Req.Name, Error) ||
      !readString(Obj, "session", Req.Session, Error) ||
      !readBool(Obj, "complete", Req.Complete, Error) ||
      !readBool(Obj, "scrub_timings", Req.ScrubTimings, Error))
    return false;
  bool HasSource = Obj.find("source") != nullptr;
  bool HasSuite = Obj.find("suite") != nullptr;
  if (HasSource == HasSuite) {
    *Error = std::string(Req.Optimize ? "an optimize" : "an analyze") +
             " request needs exactly one of 'source' or 'suite'";
    return false;
  }
  if (HasSuite && Req.Suite.empty()) {
    *Error = "'suite' must name a suite program";
    return false;
  }
  if (Req.Name.empty())
    Req.Name = HasSuite ? Req.Suite : "<request>";

  Req.Opts = IPCPOptions();
  Req.Opts.Limits = Conf.DefaultLimits;
  if (const JsonValue *Options = Obj.find("options")) {
    if (!Options->isObject()) {
      *Error = "'options' must be an object";
      return false;
    }
    if (!parseOptionsObject(*Options, Req.Opts, Error))
      return false;
  }
  if (const JsonValue *Limits = Obj.find("limits")) {
    if (!Limits->isObject()) {
      *Error = "'limits' must be an object";
      return false;
    }
    if (!parseLimitsObject(*Limits, Conf.DefaultLimits, Req.Opts.Limits,
                           Error))
      return false;
  }
  if (const JsonValue *Passes = Obj.find("passes")) {
    if (!Passes->isString()) {
      *Error = "'passes' must be a string";
      return false;
    }
    if (!parsePassSpec(Passes->asString(), Req.Passes, Error))
      return false;
  }
  return true;
}

/// Request keys valid for each operation; anything else is rejected.
/// Optimize shares Kind::Analyze but has its own key set: no 'session'
/// or 'complete' (optimization mutates the module, so neither the
/// session cache nor the complete-propagation mode composes with it),
/// plus the pass selector 'passes'.
static bool checkKnownKeys(const JsonValue &Obj, const ServiceRequest &Req,
                           std::string *Error) {
  static const char *const AnalyzeKeys[] = {
      "op",      "id",       "source", "suite",         "name",
      "session", "complete", "limits", "scrub_timings", "options"};
  static const char *const OptimizeKeys[] = {
      "op",     "id",            "source",  "suite", "name",
      "limits", "scrub_timings", "options", "passes"};
  static const char *const BatchKeys[] = {"op", "id", "requests"};
  static const char *const ControlKeys[] = {"op", "id"};
  ServiceRequest::Kind Op = Req.Op;
  const char *const *Begin = ControlKeys, *const *End = std::end(ControlKeys);
  if (Op == ServiceRequest::Kind::Analyze && Req.Optimize) {
    Begin = OptimizeKeys;
    End = std::end(OptimizeKeys);
  } else if (Op == ServiceRequest::Kind::Analyze) {
    Begin = AnalyzeKeys;
    End = std::end(AnalyzeKeys);
  } else if (Op == ServiceRequest::Kind::AnalyzeBatch) {
    Begin = BatchKeys;
    End = std::end(BatchKeys);
  }
  for (const auto &[Key, Val] : Obj.members()) {
    if (std::find_if(Begin, End,
                     [&](const char *K) { return Key == K; }) == End) {
      *Error = "unknown request key '" + Key + "'";
      return false;
    }
  }
  return true;
}

bool ServiceEngine::parseRequestLine(const std::string &Line,
                                     ServiceRequest &Req,
                                     std::string *ErrorCode,
                                     std::string *Error) const {
  std::string ParseError;
  std::optional<JsonValue> Doc = JsonValue::parse(Line, &ParseError);
  if (!Doc)
    return fail(ErrorCode, Error, "bad-json", ParseError);
  if (!Doc->isObject())
    return fail(ErrorCode, Error, "bad-request", "request must be an object");

  Req = ServiceRequest();
  if (const JsonValue *Id = Doc->find("id")) {
    Req.Id = *Id;
    Req.HasId = true;
  }
  const JsonValue *Op = Doc->find("op");
  if (!Op || !Op->isString())
    return fail(ErrorCode, Error, "bad-request",
                "request needs a string 'op'");
  const std::string &Name = Op->asString();
  if (Name == "analyze")
    Req.Op = ServiceRequest::Kind::Analyze;
  else if (Name == "optimize") {
    Req.Op = ServiceRequest::Kind::Analyze;
    Req.Optimize = true;
  } else if (Name == "analyze-batch")
    Req.Op = ServiceRequest::Kind::AnalyzeBatch;
  else if (Name == "stats")
    Req.Op = ServiceRequest::Kind::Stats;
  else if (Name == "flush-cache")
    Req.Op = ServiceRequest::Kind::FlushCache;
  else if (Name == "shutdown")
    Req.Op = ServiceRequest::Kind::Shutdown;
  else
    return fail(ErrorCode, Error, "bad-request",
                "unknown op '" + Name + "'");

  std::string FieldError;
  if (!checkKnownKeys(*Doc, Req, &FieldError))
    return fail(ErrorCode, Error, "bad-request", FieldError);

  if (Req.Op == ServiceRequest::Kind::Analyze) {
    if (!parseAnalyzeFields(*Doc, Conf, Req, &FieldError))
      return fail(ErrorCode, Error, "bad-request", FieldError);
    return true;
  }
  if (Req.Op == ServiceRequest::Kind::AnalyzeBatch) {
    const JsonValue *Items = Doc->find("requests");
    if (!Items || !Items->isArray())
      return fail(ErrorCode, Error, "bad-request",
                  "'analyze-batch' needs a 'requests' array");
    if (Items->size() == 0)
      return fail(ErrorCode, Error, "bad-request",
                  "'requests' must not be empty");
    for (size_t I = 0; I != Items->size(); ++I) {
      const JsonValue &Item = Items->at(I);
      if (!Item.isObject())
        return fail(ErrorCode, Error, "bad-request",
                    "batch item " + std::to_string(I) +
                        " must be an object");
      if (const JsonValue *ItemOp = Item.find("op"))
        if (!ItemOp->isString() || ItemOp->asString() != "analyze")
          return fail(ErrorCode, Error, "bad-request",
                      "batch item " + std::to_string(I) +
                          " may only be an analyze request");
      ServiceRequest Sub;
      Sub.Op = ServiceRequest::Kind::Analyze;
      if (const JsonValue *Id = Item.find("id")) {
        Sub.Id = *Id;
        Sub.HasId = true;
      }
      if (!checkKnownKeys(Item, Sub, &FieldError) ||
          !parseAnalyzeFields(Item, Conf, Sub, &FieldError))
        return fail(ErrorCode, Error, "bad-request",
                    "batch item " + std::to_string(I) + ": " + FieldError);
      Req.Batch.push_back(std::move(Sub));
    }
    return true;
  }
  return true; // stats / flush-cache / shutdown carry no other fields
}

//===----------------------------------------------------------------------===//
// Sessions: resident caches with LRU eviction and a write-behind tier
//===----------------------------------------------------------------------===//

struct ServiceEngine::SessionState {
  // Always memory-only: the write-behind tier is the engine's
  // ContentStore, not the SummaryCache's own file path.
  SummaryCache Cache;
  std::mutex Lock; ///< serializes analyses sharing this session
  unsigned Bucket = 0; ///< fixed eviction domain, bucketFor(key)
  uint64_t LastUse = 0;
  bool Dirty = false;         ///< committed entries not yet persisted
  bool TriedDiskLoad = false; ///< write-behind tier consulted once
  std::string SourceName;
  IPCPOptions SaveOpts; ///< options of the last run, for save()
  bool HasSaveOpts = false;

  /// Ticket turnstile: turns are issued (NextTicket) in request arrival
  /// order and served (NowServing) strictly in that order, so the warm/
  /// cold sequence of a session is independent of pool scheduling.
  /// Atomics so the eviction scan can read them without taking Lock.
  std::atomic<uint64_t> NextTicket{0};
  std::atomic<uint64_t> NowServing{0};
  std::condition_variable TurnReady;
};

namespace {

/// Consumes one session turn on scope exit. Destroyed while the session
/// lock is still held (declared after the unique_lock), so the serving
/// counter advances before the lock releases.
struct TurnFinisher {
  std::shared_ptr<ServiceEngine::SessionState> S;
  ~TurnFinisher();
};

TurnFinisher::~TurnFinisher() {
  if (!S)
    return;
  S->NowServing.fetch_add(1);
  S->TurnReady.notify_all();
}

} // namespace

std::string ServiceEngine::sessionKeyFor(const ServiceRequest &Req) {
  // Distinct options must never share a cache: summaries are only valid
  // under the configuration that produced them, so the fingerprint is
  // part of the resident key (exactly as it is part of the store's
  // logical names).
  if (Req.Op != ServiceRequest::Kind::Analyze || Req.Session.empty() ||
      Req.Complete || Req.Optimize)
    return std::string();
  return Req.Session + '\x1f' + Req.Name + '\x1f' +
         SummaryCache::optionsFingerprint(Req.Opts);
}

unsigned ServiceEngine::bucketFor(const std::string &SessionKey) {
  return unsigned(stableHashBytes(SessionKey) % CacheBuckets);
}

/// The content store's logical name for a session's summaries: source
/// name + options fingerprint, with no session component — sessions
/// analyzing the same program under the same options share one entry,
/// and any shard resolves any other shard's persisted work.
static std::string storeLogicalName(const std::string &SourceName,
                                    const IPCPOptions &Opts) {
  return SourceName + '\n' + SummaryCache::optionsFingerprint(Opts);
}

ServiceEngine::SessionTurn
ServiceEngine::acquireSession(const ServiceRequest &Req) {
  std::string Key = sessionKeyFor(Req);
  SessionTurn Turn;
  bool Fresh = false;
  std::vector<std::shared_ptr<SessionState>> Evicted;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    std::shared_ptr<SessionState> &Slot = Sessions[Key];
    if (!Slot) {
      Slot = std::make_shared<SessionState>();
      Slot->Bucket = bucketFor(Key);
      Fresh = true;
    }
    Slot->LastUse = ++UseCounter;
    Turn.S = Slot;
    Turn.Ticket = Turn.S->NextTicket.fetch_add(1);
    evictOverflowSessions(Turn.S->Bucket, Evicted);
  }
  // Persist evicted sessions outside the map lock: saving can do disk
  // I/O and must wait for every turn the session has already been
  // issued. Draining (rather than skipping busy victims) keeps the
  // eviction point a function of the request stream, not of whether the
  // pool happened to finish the victim's work yet.
  for (const std::shared_ptr<SessionState> &E : Evicted) {
    std::unique_lock<std::mutex> Lock(E->Lock);
    E->TurnReady.wait(Lock, [&] {
      return E->NextTicket.load() == E->NowServing.load();
    });
    ++StatEvictions;
    persistSession(*E);
  }
  // Consult the write-behind tier here, on the ordering thread, after
  // this acquire's evictions persisted: the store is read at a stream-
  // determined point, so whether a fresh session starts warm never
  // depends on when the pool schedules its first analysis.
  if (Fresh && Conf.Store) {
    Turn.S->TriedDiskLoad = true;
    std::string Bytes;
    if (Conf.Store->get(storeLogicalName(Req.Name, Req.Opts), Bytes) &&
        Turn.S->Cache.loadFromString(Bytes, Req.Opts))
      ++StatDiskLoads;
  }
  return Turn;
}

void ServiceEngine::evictOverflowSessions(
    unsigned Bucket, std::vector<std::shared_ptr<SessionState>> &Out) {
  // Caller holds SessionsMutex. Eviction is scoped to one fixed hash
  // bucket and is strict LRU within it: LastUse orders acquires, which
  // follow the request stream, so the set of evictions after any stream
  // prefix is the same for every shard count and jobs setting. The
  // just-acquired session has the highest LastUse and is never the
  // victim while another resident shares its bucket; busy victims are
  // drained by the caller, not skipped.
  unsigned Cap = Conf.MaxSessions ? Conf.MaxSessions : 1;
  for (;;) {
    size_t Resident = 0;
    auto Victim = Sessions.end();
    for (auto It = Sessions.begin(); It != Sessions.end(); ++It) {
      if (It->second->Bucket != Bucket)
        continue;
      ++Resident;
      if (Victim == Sessions.end() ||
          It->second->LastUse < Victim->second->LastUse)
        Victim = It;
    }
    if (Resident <= Cap)
      return;
    Out.push_back(Victim->second);
    Sessions.erase(Victim);
  }
}

unsigned ServiceEngine::persistSession(SessionState &S) {
  // Caller holds S.Lock. The serialized cache goes into the content
  // store under its bytes' own key; identical caches persisted by other
  // sessions (or other shards) dedupe to one object.
  if (!Conf.Store || !S.Dirty || !S.HasSaveOpts)
    return 0;
  std::string Error;
  if (!Conf.Store
           ->putNamed(storeLogicalName(S.SourceName, S.SaveOpts),
                      S.Cache.serialize(S.SaveOpts), &Error)
           .empty())
    ++StatWriteBehindSaves;
  else
    ++StatWriteBehindFailures;
  S.Dirty = false;
  return 1;
}

size_t ServiceEngine::residentSessions() const {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  return Sessions.size();
}

//===----------------------------------------------------------------------===//
// Request execution
//===----------------------------------------------------------------------===//

JsonValue ServiceEngine::analyze(const ServiceRequest &Req) {
  return analyze(Req, reserveTurn(Req));
}

ServiceEngine::SessionTurn
ServiceEngine::reserveTurn(const ServiceRequest &Req) {
  // Session caching follows the driver's --cache-dir rule: single-run
  // analyses only (complete propagation and the transform pipeline both
  // re-analyze a mutated module).
  if (Req.Op != ServiceRequest::Kind::Analyze || Req.Session.empty() ||
      Req.Complete || Req.Optimize)
    return SessionTurn();
  return acquireSession(Req);
}

JsonValue ServiceEngine::analyze(const ServiceRequest &Req, SessionTurn Turn) {
  ++StatAnalyses;
  if (Req.Optimize)
    ++StatOptimizes;

  // Enter the session turn before doing anything observable: the warm/
  // cold order of a session is its ticket order, and even an erroring
  // request must consume its turn or the session wedges. TurnDone is
  // declared after SessionLock so it runs first on every return path,
  // advancing the turnstile while the lock is still held.
  std::shared_ptr<SessionState> Session = Turn.S;
  std::unique_lock<std::mutex> SessionLock;
  TurnFinisher TurnDone{Session};
  if (Session) {
    SessionLock = std::unique_lock<std::mutex>(Session->Lock);
    Session->TurnReady.wait(SessionLock, [&] {
      return Session->NowServing.load() == Turn.Ticket;
    });
  }

  // The failure boundary: whatever the pipeline throws becomes a
  // structured, retryable "internal" error response. Nothing below this
  // point marks the session dirty before its run committed, so an
  // aborted run is never persisted — the staged (uncommitted) entries
  // are discarded by the next run's beginRun, and the last committed
  // state remains valid. The turnstile and lock unwind normally, so the
  // session keeps serving.
  try {
    std::string Msg;
    if (faultInjector().shouldFail("service.analyze", &Msg))
      throw std::runtime_error(Msg);
    return analyzeLocked(Req, Session.get());
  } catch (const std::exception &E) {
    ++StatErrors;
    ++StatInternalErrors;
    JsonValue Body = JsonValue::object();
    Body.set("status", "error");
    Body.set("error", serviceErrorObject("internal", E.what()));
    return Body;
  } catch (...) {
    ++StatErrors;
    ++StatInternalErrors;
    JsonValue Body = JsonValue::object();
    Body.set("status", "error");
    Body.set("error", serviceErrorObject("internal", "unhandled exception"));
    return Body;
  }
}

JsonValue ServiceEngine::analyzeLocked(const ServiceRequest &Req,
                                       SessionState *Session) {
  IPCPOptions Opts = Req.Opts;
  bool Scrub = Req.ScrubTimings || Conf.ScrubTimings;
  JsonValue Body = JsonValue::object();

  std::string SourceText = Req.Source;
  if (!Req.Suite.empty() &&
      (!Conf.SuiteResolver || !Conf.SuiteResolver(Req.Suite, SourceText))) {
    ++StatErrors;
    Body.set("status", "error");
    Body.set("error", serviceErrorObject(
                          "unknown-suite",
                          "no suite program named '" + Req.Suite + "'"));
    return Body;
  }

  // From here on the request follows exactly the driver's code path
  // (examples/ipcp_driver.cpp), so the embedded report is byte-identical
  // to `ipcp_driver --report-json` for the same program and options.
  ResourceGuard Guard(Opts.Limits);
  DiagnosticsEngine Diags;
  std::optional<Program> Ast = parseAndCheck(SourceText, Diags, true, &Guard);
  if (!Ast) {
    if (!Guard.tripped()) {
      ++StatErrors;
      Body.set("status", "error");
      Body.set("error", serviceErrorObject("source-error", Diags.str()));
      return Body;
    }
    // A frontend budget trip degrades the request (driver exit code 5):
    // the response still carries a schema-valid, result-free report.
    PipelineStatus Status = Guard.status();
    AnalysisReport Report;
    Report.SourceName = Req.Name;
    Report.Opts = &Opts;
    Report.Status = &Status;
    JsonValue Doc = buildAnalysisReport(Report);
    if (Scrub)
      scrubReportTimings(Doc);
    ++StatDegraded;
    Body.set("status", "degraded");
    Body.set("report", std::move(Doc));
    return Body;
  }

  std::unique_ptr<Module> M = lowerProgram(*Ast);
  Guard.checkIRInstructions(M->instructionCount(), "lowering");
  Guard.checkDeadline("lowering");

  // Optimize requests run the transform pipeline first, then analyze the
  // optimized module — the same order as `ipcp_driver --optimize`, so
  // the embedded report (result + optimization blocks) stays
  // byte-identical to the driver's. Session is always null here
  // (reserveTurn refuses optimize requests).
  std::optional<OptimizationResult> OptResult;
  if (Req.Optimize)
    OptResult = optimizeModule(*M, Opts, Req.Passes, &Guard);

  // The write-behind tier was already consulted in acquireSession, on
  // the ordering thread — doing it here would read the store at a
  // scheduling-dependent moment and break byte determinism.
  if (Session)
    Opts.Cache = &Session->Cache;

  std::optional<CompletePropagationResult> CompleteResult;
  std::optional<IPCPResult> SingleResult;
  if (Req.Complete)
    CompleteResult = runCompletePropagation(*M, Opts, &Guard);
  else
    SingleResult = runIPCP(*M, Opts, &Guard);

  if (Session) {
    if (Session->Cache.committed()) {
      Session->Dirty = true;
      Session->SourceName = Req.Name;
      Session->SaveOpts = Opts;
      Session->SaveOpts.Cache = nullptr;
      Session->HasSaveOpts = true;
    }
    if (SingleResult && SingleResult->UsedCache) {
      StatCacheHits += SingleResult->Stats.get("cache_hits");
      StatCacheMisses += SingleResult->Stats.get("cache_misses");
      if (SingleResult->Stats.get("cache_hits") > 0)
        ++StatCacheWarmHits;
    }
  }

  PipelineStatus FinalStatus = Guard.status();
  AnalysisReport Report;
  Report.SourceName = Req.Name;
  Report.M = M.get();
  Report.Opts = &Opts;
  Report.Single = SingleResult ? &*SingleResult : nullptr;
  Report.Complete = CompleteResult ? &*CompleteResult : nullptr;
  Report.Optimization = OptResult ? &*OptResult : nullptr;
  Report.Status = &FinalStatus;
  JsonValue Doc = buildAnalysisReport(Report);
  if (Scrub)
    scrubReportTimings(Doc);

  if (FinalStatus.Degraded)
    ++StatDegraded;
  Body.set("status", FinalStatus.Degraded ? "degraded" : "ok");
  Body.set("report", std::move(Doc));
  return Body;
}

JsonValue ServiceEngine::analyzeBatchItem(const ServiceRequest &Item,
                                          size_t Index) {
  return analyzeBatchItem(Item, Index, reserveTurn(Item));
}

JsonValue ServiceEngine::analyzeBatchItem(const ServiceRequest &Item,
                                          size_t Index, SessionTurn Turn) {
  JsonValue Inner = analyze(Item, std::move(Turn));
  JsonValue Out = JsonValue::object();
  Out.set("index", uint64_t(Index));
  if (Item.HasId)
    Out.set("id", Item.Id);
  for (auto &[Key, Val] : Inner.members())
    Out.set(Key, std::move(Val));
  return Out;
}

JsonValue ServiceEngine::analyzeBatch(const ServiceRequest &Req) {
  noteBatch();
  JsonValue Responses = JsonValue::array();
  for (size_t I = 0; I != Req.Batch.size(); ++I)
    Responses.push(analyzeBatchItem(Req.Batch[I], I));
  JsonValue Body = JsonValue::object();
  Body.set("status", "ok");
  Body.set("responses", std::move(Responses));
  return Body;
}

JsonValue ServiceEngine::statsBody() {
  JsonValue Stats = JsonValue::object();
  Stats.set("analyze_requests", StatAnalyses.load());
  Stats.set("optimize_requests", StatOptimizes.load());
  Stats.set("degraded", StatDegraded.load());
  Stats.set("errors", StatErrors.load());
  Stats.set("internal_errors", StatInternalErrors.load());
  Stats.set("batches", StatBatches.load());
  Stats.set("busy_rejections", StatBusy.load());
  Stats.set("sessions_resident", uint64_t(residentSessions()));
  Stats.set("session_evictions", StatEvictions.load());
  Stats.set("warm_hits", StatCacheWarmHits.load());
  Stats.set("cache_hits", StatCacheHits.load());
  Stats.set("cache_misses", StatCacheMisses.load());
  Stats.set("write_behind_saves", StatWriteBehindSaves.load());
  Stats.set("write_behind_failures", StatWriteBehindFailures.load());
  Stats.set("disk_loads", StatDiskLoads.load());
  JsonValue Body = JsonValue::object();
  Body.set("status", "ok");
  Body.set("stats", std::move(Stats));
  return Body;
}

ServiceEngine::CountersSnapshot ServiceEngine::snapshot() const {
  CountersSnapshot S;
  S.Analyses = StatAnalyses.load();
  S.Optimizes = StatOptimizes.load();
  S.Degraded = StatDegraded.load();
  S.Errors = StatErrors.load();
  S.InternalErrors = StatInternalErrors.load();
  S.Batches = StatBatches.load();
  S.Busy = StatBusy.load();
  S.WarmHits = StatCacheWarmHits.load();
  S.CacheHits = StatCacheHits.load();
  S.CacheMisses = StatCacheMisses.load();
  S.Evictions = StatEvictions.load();
  S.WriteBehindSaves = StatWriteBehindSaves.load();
  S.WriteBehindFailures = StatWriteBehindFailures.load();
  S.DiskLoads = StatDiskLoads.load();
  S.Resident = residentSessions();
  return S;
}

JsonValue ServiceEngine::flushCacheBody() {
  std::unordered_map<std::string, std::shared_ptr<SessionState>> Dropped;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Dropped.swap(Sessions);
  }
  unsigned Persisted = 0;
  for (const auto &[Key, S] : Dropped) {
    std::lock_guard<std::mutex> Lock(S->Lock);
    Persisted += persistSession(*S);
  }
  JsonValue Body = JsonValue::object();
  Body.set("status", "ok");
  Body.set("sessions_flushed", uint64_t(Dropped.size()));
  Body.set("persisted", uint64_t(Persisted));
  return Body;
}

unsigned ServiceEngine::shutdownFlush() {
  std::unordered_map<std::string, std::shared_ptr<SessionState>> Dropped;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Dropped.swap(Sessions);
  }
  unsigned Persisted = 0;
  for (const auto &[Key, S] : Dropped) {
    std::lock_guard<std::mutex> Lock(S->Lock);
    Persisted += persistSession(*S);
  }
  return Persisted;
}

//===- core/Pipeline.cpp --------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/SCCP.h"
#include "core/BindingGraph.h"
#include "core/SummaryCache.h"
#include "core/ValueNumbering.h"
#include "support/Casting.h"
#include "support/StableHash.h"
#include "support/Trace.h"
#include "transform/Transform.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <unordered_set>

using namespace ipcp;

namespace {

/// Builds the SCCP CallOut hook that evaluates return jump functions with
/// the current lattice values of the call's actuals and of the globals at
/// the call point — the paper's substitution-time evaluation.
std::function<LatticeValue(const CallOutInst *,
                           const std::function<LatticeValue(const Value *)> &)>
makeCallOutHook(const ReturnJumpFunctions *RJFs, const SSAResult *SSA) {
  if (!RJFs)
    return nullptr;
  return [RJFs, SSA](const CallOutInst *Out,
                     const std::function<LatticeValue(const Value *)> &Get)
             -> LatticeValue {
    const CallInst *Call = Out->getCall();
    const Procedure *Callee = Call->getCallee();
    Variable *Var = Out->getVariable();

    // Unique modification source, as in SymbolicLifter::liftCallOut.
    const JumpFunction *RJF = nullptr;
    unsigned Sources = 0;
    for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
      if (Call->getActual(I).ByRefLoc != Var)
        continue;
      if (const JumpFunction *JF =
              RJFs->find(Callee, Callee->formals()[I])) {
        RJF = JF;
        ++Sources;
      }
    }
    if (Var->isGlobal())
      if (const JumpFunction *JF = RJFs->find(Callee, Var)) {
        RJF = JF;
        ++Sources;
      }
    if (Sources != 1 || !RJF || RJF->isBottom())
      return LatticeValue::bottom();

    auto CallIn = SSA->CallInValues.find(const_cast<CallInst *>(Call));
    LatticeEnv Env;
    for (Variable *Support : RJF->support()) {
      LatticeValue V = LatticeValue::bottom();
      if (Support->isFormal() && Support->getParent() == Callee) {
        unsigned Index = Support->getFormalIndex();
        if (Index < Call->getNumActuals())
          V = Get(Call->getActualValue(Index));
      } else if (Support->isGlobal() && CallIn != SSA->CallInValues.end()) {
        auto It = CallIn->second.find(Support);
        if (It != CallIn->second.end())
          V = Get(It->second);
      }
      Env[Support] = V;
    }
    return RJF->evaluate(Env);
  };
}

} // namespace

namespace {

/// Copies the guard's latched outcome into \p Result and emits the
/// degradation counters (guard_limit_trips / guard_deadline_trips).
void recordGuardOutcome(IPCPResult &Result, const ResourceGuard &Guard) {
  Result.Status = Guard.status();
  if (Guard.tripped()) {
    Result.Stats.add("guard_limit_trips");
    if (Guard.deadlineTripped())
      Result.Stats.add("guard_deadline_trips");
  }
}

/// Drives the summary-cache variant of stages 1-4 (docs/INCREMENTAL.md).
/// Phase A replaces the cold SSA + return-JF + forward-JF stages with a
/// single bottom-up SCC sweep that either restores a component's
/// summaries from validated cache entries or rebuilds them from scratch;
/// the resulting jump-function tables are indistinguishable from a cold
/// build. buildPlan() then derives the propagation adoption closure, and
/// replay()/finish() handle the record stage and restocking the cache.
class IncrementalEngine {
public:
  IncrementalEngine(SummaryCache &Cache, const CallGraph &CG,
                    const ModRefInfo &MRI, SymExprContext &Ctx,
                    const IPCPOptions &Opts, StatisticSet &Stats,
                    ResourceGuard &Guard, SSAMap &SSA,
                    ReturnJumpFunctions *RJFs, ForwardJumpFunctions &FJFs)
      : Cache(Cache), CG(CG), MRI(MRI), Ctx(Ctx), Opts(Opts), Stats(Stats),
        Guard(Guard), SSA(SSA), RJFs(RJFs), FJFs(FJFs) {
    Cache.beginRun();
  }

  /// SSA on demand: cache hits skip SSA construction entirely, but the
  /// record stage still needs it for non-replayed procedures.
  const SSAResult &ensureSSA(Procedure *P) {
    auto It = SSA.find(P);
    if (It != SSA.end())
      return It->second;
    traceEvent("ssa.proc", P->getName());
    return SSA.emplace(P, constructSSA(*P, MRI)).first->second;
  }

  /// The bottom-up sweep. Body hashes come first (on the pristine,
  /// pre-SSA clone — constructSSA mutates bodies); then each SCC either
  /// adopts its cached summaries wholesale or rebuilds its members in the
  /// exact cold order, so dirty lifts only ever consult final callee
  /// tables.
  void phaseA() {
    Timer PhaseTimer;
    uint64_t Hits = 0, Misses = 0, Invalidations = 0;

    for (Procedure *P : CG.procedures())
      BodyHex.emplace(P, stableHashHex(hashProcedureBody(*P)));
    for (Procedure *P : CG.procedures()) {
      std::vector<std::pair<std::string, std::string>> Callers;
      for (Procedure *Q : CG.callers(P))
        Callers.push_back({Q->getName(), BodyHex.at(Q)});
      std::sort(Callers.begin(), Callers.end());
      StableHasher H;
      H.u32(uint32_t(Callers.size()));
      for (const auto &[Name, Hex] : Callers) {
        H.str(Name);
        H.str(Hex);
      }
      CallersHex.emplace(P, stableHashHex(H.result()));
    }

    const std::vector<std::vector<Procedure *>> &SCCs = CG.sccsBottomUp();
    SCCKeyHex.resize(SCCs.size());
    HitSCC.assign(SCCs.size(), 0);
    for (size_t C = 0; C != SCCs.size(); ++C) {
      if (!Guard.tripped())
        Guard.checkDeadline("analysis");
      if (Guard.tripped())
        break;
      const std::vector<Procedure *> &Members = SCCs[C];
      SCCKeyHex[C] = sccKey(Members, C);
      bool Hit = tryAdoptSummaries(Members, C);
      HitSCC[C] = Hit ? 1 : 0;
      for (Procedure *P : Members) {
        if (Hit) {
          ++Hits;
          continue;
        }
        ++Misses;
        if (Cache.find(P->getName()))
          ++Invalidations;
      }
      if (!Hit)
        buildDirty(Members);
      // Content hashes only exist for finalized components, which is all
      // later (caller) components ever look at.
      for (Procedure *P : Members)
        ContentHex.emplace(P, contentHash(P));
    }

    Stats.add("time_intraprocedural_us",
              uint64_t(PhaseTimer.seconds() * 1e6));
    Stats.add("time_return_jf_us", uint64_t(0));
    if (RJFs) {
      Stats.add("rjf_known", RJFs->knownCount());
      Stats.add("rjf_entries", RJFs->entryCount());
    }
    Stats.add("cache_hits", Hits);
    Stats.add("cache_misses", Misses);
    Stats.add("cache_invalidations", Invalidations);
    Stats.add("cache_val_adopted", uint64_t(0));
    Stats.add("cache_record_reused", uint64_t(0));
    Stats.add("cache_load_failures", uint64_t(Cache.loadFailed() ? 1 : 0));
  }

  /// The adoption closure for propagation (see Propagator.h). Walks
  /// components caller-first (descending index) so each component can
  /// require that every external caller component was itself adopted.
  const IncrementalPropagationPlan *buildPlan() {
    if (Opts.Schedule != PropagationSchedule::SCC || Guard.tripped())
      return nullptr;
    const std::vector<std::vector<Procedure *>> &SCCs = CG.sccsBottomUp();
    Plan.AdoptSCC.assign(SCCs.size(), 0);
    uint64_t Adopted = 0;
    for (size_t C = SCCs.size(); C-- != 0;) {
      if (!HitSCC[C])
        continue;
      bool Ok = true;
      std::vector<std::pair<Procedure *,
                            std::vector<std::pair<Variable *, LatticeValue>>>>
          Vals;
      for (Procedure *P : SCCs[C]) {
        const CacheEntry *E = Cache.find(P->getName());
        if (!E || !E->HasVal || E->CallersHash != CallersHex.at(P)) {
          Ok = false;
          break;
        }
        for (Procedure *Q : CG.callers(P))
          if (CG.sccIndex(Q) != C && !Plan.AdoptSCC[CG.sccIndex(Q)]) {
            Ok = false;
            break;
          }
        if (!Ok)
          break;
        std::vector<std::pair<Variable *, LatticeValue>> V;
        if (!parseVal(*E, P, V)) {
          Ok = false;
          break;
        }
        Vals.push_back({P, std::move(V)});
      }
      if (!Ok)
        continue;
      Plan.AdoptSCC[C] = 1;
      Adopted += SCCs[C].size();
      for (auto &[P, V] : Vals) {
        Plan.CachedVal.emplace(P, std::move(V));
        const CacheEntry *E = Cache.find(P->getName());
        if (E->HasRecord)
          ReplaySet.insert(P);
      }
    }
    Stats.add("cache_val_adopted", Adopted);
    return &Plan;
  }

  /// Replays the record stage for an adopted procedure from its cached
  /// counts. The entry constants are recomputed from the (identical)
  /// fixpoint; substitution facts are deliberately not replayed — see
  /// IPCPResult::UsedCache. Returns false when \p P must run the real
  /// record stage.
  bool replay(Procedure *P, const ConstantsMap &CM, IPCPResult &Result) {
    if (!ReplaySet.count(P))
      return false;
    const CacheEntry *E = Cache.find(P->getName());
    traceEvent("record.proc", P->getName());
    Result.Stats.add("sccp_runs");
    Result.Stats.add("sccp_constant_values", E->SCCPConstantValues);
    Result.Stats.add("sccp_executable_blocks", E->SCCPExecutableBlocks);
    Result.Stats.add("cache_record_reused");

    ProcedureResult PR;
    PR.Name = P->getName();
    for (const auto &[Var, Value] : CM.constantsOf(P))
      PR.EntryConstants.push_back({Var->getName(), Value});
    PR.ConstantRefs = unsigned(E->ConstantRefs);
    PR.IrrelevantConstants = unsigned(E->IrrelevantConstants);
    Result.TotalEntryConstants += PR.EntryConstants.size();
    Result.TotalConstantRefs += PR.ConstantRefs;
    noteRecord(P, E->ConstantRefs, E->IrrelevantConstants,
               E->SCCPConstantValues, E->SCCPExecutableBlocks);
    Result.Procs.push_back(std::move(PR));
    return true;
  }

  /// Remembers one procedure's record-stage counts for staging.
  void noteRecord(Procedure *P, uint64_t Refs, uint64_t Irrelevant,
                  uint64_t SCCPValues, uint64_t SCCPBlocks) {
    Records[P] = {Refs, Irrelevant, SCCPValues, SCCPBlocks};
  }

  /// Stages this run's entries and commits them iff the run finished
  /// un-degraded — a tripped budget must never poison the store.
  void finish(const ConstantsMap &CM, bool Commit) {
    if (!Commit) {
      Cache.finishRun(false);
      return;
    }
    for (Procedure *P : CG.procedures()) {
      CacheEntry E;
      E.Name = P->getName();
      E.BodyHash = BodyHex.at(P);
      E.SCCKey = SCCKeyHex[CG.sccIndex(P)];
      E.CallersHash = CallersHex.at(P);
      E.ModFormals = modFormalsOf(P);
      E.ModGlobals = globalNames(MRI.modifiedGlobals(P));
      E.ExtGlobals = globalNames(MRI.extendedGlobals(P));
      E.ReturnJFs = rjfPairsOf(P);
      for (CallInst *Site : CG.callSitesIn(P)) {
        const CallSiteJumpFunctions &JFs = FJFs.at(Site);
        CacheEntry::SiteJFs S;
        S.Callee = Site->getCallee()->getName();
        for (const JumpFunction &JF : JFs.Formals)
          S.Formals.push_back(SummaryCache::exprString(JF.expr()));
        for (const auto &[G, JF] : JFs.Globals)
          S.Globals.push_back(
              {SummaryCache::varRef(G), SummaryCache::exprString(JF.expr())});
        E.ForwardJFs.push_back(std::move(S));
      }
      E.HasVal = true;
      const ConstantsMap::Row &Row = CM.row(P);
      for (size_t I = 0, N = Row.Vars.size(); I != N; ++I) {
        LatticeValue LV = Row.Vals[I];
        if (LV.isTop())
          continue;
        E.Val.push_back({SummaryCache::varRef(Row.Vars[I]),
                         LV.isConstant()
                             ? "c:" + std::to_string(LV.getConstant())
                             : std::string("bot")});
      }
      std::sort(E.Val.begin(), E.Val.end());
      auto RC = Records.find(P);
      if (RC != Records.end()) {
        E.HasRecord = true;
        E.ConstantRefs = RC->second.Refs;
        E.IrrelevantConstants = RC->second.Irrelevant;
        E.SCCPConstantValues = RC->second.SCCPValues;
        E.SCCPExecutableBlocks = RC->second.SCCPBlocks;
      }
      Cache.stage(std::move(E));
    }
    Cache.finishRun(true);
  }

private:
  struct RecordCounts {
    uint64_t Refs = 0;
    uint64_t Irrelevant = 0;
    uint64_t SCCPValues = 0;
    uint64_t SCCPBlocks = 0;
  };

  std::vector<unsigned> modFormalsOf(Procedure *P) const {
    std::vector<unsigned> Out;
    for (unsigned I = 0, N = unsigned(P->formals().size()); I != N; ++I)
      if (MRI.formalMayBeModified(P, I))
        Out.push_back(I);
    return Out;
  }

  static std::vector<std::string> globalNames(const VariableSet &Set) {
    std::vector<std::string> Out;
    for (Variable *G : Set)
      Out.push_back(G->getName());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  std::vector<std::pair<std::string, std::string>>
  rjfPairsOf(Procedure *P) const {
    std::vector<std::pair<std::string, std::string>> Out;
    if (!RJFs)
      return Out;
    if (const auto *Entries = RJFs->entriesOf(P))
      for (const auto &[Var, JF] : *Entries)
        Out.push_back(
            {SummaryCache::varRef(Var), SummaryCache::exprString(JF.expr())});
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// What callers consume of \p P: the MOD summary and the return jump
  /// functions — deliberately *not* the body hash, so an edit that leaves
  /// them unchanged stops invalidating at the direct callers (early
  /// cutoff).
  std::string contentHash(Procedure *P) const {
    StableHasher H;
    H.u8(0x4d); // 'M'
    std::vector<unsigned> Mod = modFormalsOf(P);
    H.u32(uint32_t(Mod.size()));
    for (unsigned I : Mod)
      H.u32(I);
    for (const std::vector<std::string> &Names :
         {globalNames(MRI.modifiedGlobals(P)),
          globalNames(MRI.extendedGlobals(P))}) {
      H.u32(uint32_t(Names.size()));
      for (const std::string &Name : Names)
        H.str(Name);
    }
    H.u8(0x52); // 'R'
    std::vector<std::pair<std::string, std::string>> RJF = rjfPairsOf(P);
    H.u32(uint32_t(RJF.size()));
    for (const auto &[Ref, Expr] : RJF) {
      H.str(Ref);
      H.str(Expr);
    }
    return stableHashHex(H.result());
  }

  /// SCCKey: the member bodies plus the *content* of every external
  /// direct callee (all finalized — bottom-up order).
  std::string sccKey(const std::vector<Procedure *> &Members, size_t C) {
    std::vector<std::pair<std::string, std::string>> Bodies;
    for (Procedure *P : Members)
      Bodies.push_back({P->getName(), BodyHex.at(P)});
    std::sort(Bodies.begin(), Bodies.end());
    std::vector<std::pair<std::string, std::string>> External;
    for (Procedure *P : Members)
      for (Procedure *Q : CG.callees(P))
        if (CG.sccIndex(Q) != C)
          External.push_back({Q->getName(), ContentHex.at(Q)});
    std::sort(External.begin(), External.end());
    External.erase(std::unique(External.begin(), External.end()),
                   External.end());
    StableHasher H;
    H.u8(0x53); // 'S'
    H.u32(uint32_t(Bodies.size()));
    for (const auto &[Name, Hex] : Bodies) {
      H.str(Name);
      H.str(Hex);
    }
    H.u8(0x45); // 'E'
    H.u32(uint32_t(External.size()));
    for (const auto &[Name, Hex] : External) {
      H.str(Name);
      H.str(Hex);
    }
    return stableHashHex(H.result());
  }

  /// Validates and deserializes every member's entry, committing into the
  /// live tables only when the whole component succeeds (all-or-nothing:
  /// a partially restored component could leave a lift consulting a
  /// half-built table).
  bool tryAdoptSummaries(const std::vector<Procedure *> &Members, size_t C) {
    struct Restored {
      Procedure *P = nullptr;
      std::vector<std::pair<Variable *, JumpFunction>> RJFEntries;
      std::vector<CallSiteJumpFunctions> Sites;
    };
    std::vector<Restored> Pending;
    for (Procedure *P : Members) {
      const CacheEntry *E = Cache.find(P->getName());
      if (!E || E->BodyHash != BodyHex.at(P) || E->SCCKey != SCCKeyHex[C])
        return false;
      Restored R;
      R.P = P;
      if (!deserializeEntry(*E, P, R.RJFEntries, R.Sites))
        return false;
      Pending.push_back(std::move(R));
    }
    for (Restored &R : Pending) {
      if (RJFs)
        for (auto &[Var, JF] : R.RJFEntries)
          RJFs->insert(R.P, Var, std::move(JF));
      for (CallSiteJumpFunctions &S : R.Sites)
        FJFs.insert(std::move(S));
    }
    return true;
  }

  /// Resolves one entry against the current module, also cross-checking
  /// the cached MOD summary against the fresh ModRef results (they are
  /// implied by the keys, but a corrupted store must degrade, not
  /// mislead).
  bool deserializeEntry(
      const CacheEntry &E, Procedure *P,
      std::vector<std::pair<Variable *, JumpFunction>> &RJFEntries,
      std::vector<CallSiteJumpFunctions> &Sites) const {
    if (E.ModFormals != modFormalsOf(P) ||
        E.ModGlobals != globalNames(MRI.modifiedGlobals(P)) ||
        E.ExtGlobals != globalNames(MRI.extendedGlobals(P)))
      return false;

    if (RJFs) {
      // The entry set must be exactly the modifiable set the table would
      // have been seeded with.
      std::vector<std::string> Expected;
      for (unsigned I : E.ModFormals)
        Expected.push_back("F" + std::to_string(I));
      for (const std::string &Name : E.ModGlobals)
        Expected.push_back("G:" + Name);
      std::sort(Expected.begin(), Expected.end());
      std::vector<std::string> Got;
      for (const auto &[Ref, Text] : E.ReturnJFs)
        Got.push_back(Ref);
      std::sort(Got.begin(), Got.end());
      if (Got != Expected)
        return false;
      for (const auto &[Ref, Text] : E.ReturnJFs) {
        Variable *Var = SummaryCache::resolveVarRef(Ref, P);
        if (!Var)
          return false;
        bool Ok = false;
        const SymExpr *Expr = SummaryCache::parseExpr(Text, P, Ctx, &Ok);
        if (!Ok)
          return false;
        RJFEntries.push_back({Var, JumpFunction(Expr)});
      }
    } else if (!E.ReturnJFs.empty()) {
      return false;
    }

    const std::vector<CallInst *> &SiteList = CG.callSitesIn(P);
    if (E.ForwardJFs.size() != SiteList.size())
      return false;
    for (size_t I = 0; I != SiteList.size(); ++I) {
      CallInst *Site = SiteList[I];
      const CacheEntry::SiteJFs &SE = E.ForwardJFs[I];
      Procedure *Callee = Site->getCallee();
      if (!Callee || SE.Callee != Callee->getName())
        return false;
      if (SE.Formals.size() != size_t(Site->getNumActuals()))
        return false;
      CallSiteJumpFunctions JFs;
      JFs.Site = Site;
      JFs.Caller = P;
      for (const std::string &Text : SE.Formals) {
        bool Ok = false;
        const SymExpr *Expr = SummaryCache::parseExpr(Text, P, Ctx, &Ok);
        if (!Ok)
          return false;
        JFs.Formals.push_back(JumpFunction(Expr));
      }
      const VariableSet &Ext = MRI.extendedGlobals(Callee);
      if (SE.Globals.size() != Ext.size())
        return false;
      size_t GI = 0;
      for (Variable *G : Ext) {
        const auto &[Ref, Text] = SE.Globals[GI++];
        if (SummaryCache::resolveVarRef(Ref, P) != G)
          return false;
        bool Ok = false;
        const SymExpr *Expr = SummaryCache::parseExpr(Text, P, Ctx, &Ok);
        if (!Ok)
          return false;
        JFs.Globals.push_back({G, JumpFunction(Expr)});
      }
      Sites.push_back(std::move(JFs));
    }
    return true;
  }

  /// Cold rebuild of one component, in the exact cold-path order: SSA for
  /// every member, bottoms seeded for every member (so recursive lifts
  /// see "modified, unknown"), then lifts, then forward jump functions.
  void buildDirty(const std::vector<Procedure *> &Members) {
    for (Procedure *P : Members)
      ensureSSA(P);
    if (RJFs) {
      for (Procedure *P : Members)
        RJFs->seedBottoms(P, MRI);
      for (Procedure *P : Members)
        RJFs->liftProcedure(P, SSA.at(P), Ctx, Opts.UseGatedSSA);
    }
    for (Procedure *P : Members)
      FJFs.buildProcedure(P, CG, MRI, SSA.at(P), RJFs, Ctx, Opts.ForwardKind,
                          Opts.UseGatedSSA);
  }

  /// Decodes one cached VAL set; every entry must be one of the owner's
  /// extended formals with a well-formed value.
  bool parseVal(const CacheEntry &E, Procedure *P,
                std::vector<std::pair<Variable *, LatticeValue>> &Out) const {
    const VariableSet &Ext = MRI.extendedGlobals(P);
    for (const auto &[Ref, Text] : E.Val) {
      Variable *Var = SummaryCache::resolveVarRef(Ref, P);
      if (!Var || Var->isLocal())
        return false;
      if (Var->isGlobal() && !Ext.count(Var))
        return false;
      LatticeValue LV;
      if (Text == "bot") {
        LV = LatticeValue::bottom();
      } else if (Text.size() > 2 && Text[0] == 'c' && Text[1] == ':') {
        errno = 0;
        char *End = nullptr;
        long long V = std::strtoll(Text.c_str() + 2, &End, 10);
        if (errno != 0 || !End || *End != '\0')
          return false;
        LV = LatticeValue::constant(V);
      } else {
        return false;
      }
      Out.push_back({Var, LV});
    }
    return true;
  }

  SummaryCache &Cache;
  const CallGraph &CG;
  const ModRefInfo &MRI;
  SymExprContext &Ctx;
  const IPCPOptions &Opts;
  StatisticSet &Stats;
  ResourceGuard &Guard;
  SSAMap &SSA;
  ReturnJumpFunctions *RJFs;
  ForwardJumpFunctions &FJFs;

  std::unordered_map<Procedure *, std::string> BodyHex;
  std::unordered_map<Procedure *, std::string> CallersHex;
  std::unordered_map<Procedure *, std::string> ContentHex;
  std::vector<std::string> SCCKeyHex;
  std::vector<char> HitSCC;
  IncrementalPropagationPlan Plan;
  std::unordered_set<const Procedure *> ReplaySet;
  std::unordered_map<const Procedure *, RecordCounts> Records;
};

} // namespace

IPCPResult ipcp::runIPCP(const Module &M, const IPCPOptions &Opts,
                         ResourceGuard *Guard) {
  IPCPResult Result;
  Timer Total;
  ScopedTraceSpan RunSpan("ipcp");

  // A run without an external guard still budgets itself from the
  // options; a guard that already tripped (earlier stage, shared
  // deadline) short-circuits to an empty degraded result.
  ResourceGuard LocalGuard(Opts.Limits);
  if (!Guard)
    Guard = &LocalGuard;
  Guard->checkIRInstructions(M.instructionCount(), "analysis");
  Guard->checkDeadline("analysis");
  if (Guard->tripped()) {
    recordGuardOutcome(Result, *Guard);
    return Result;
  }

  // Stage 0: scratch clone + structural analyses.
  std::unique_ptr<Module> Scratch = M.clone();
  Timer CGTimer;
  CallGraph CG(*Scratch);
  Result.Stats.add("time_callgraph_us", uint64_t(CGTimer.seconds() * 1e6));
  Result.Stats.add("cg_procedures", CG.procedures().size());
  uint64_t CallSites = 0, RecursiveProcs = 0;
  for (Procedure *P : CG.procedures()) {
    CallSites += CG.callSitesIn(P).size();
    if (CG.isRecursive(P))
      ++RecursiveProcs;
  }
  Result.Stats.add("cg_call_sites", CallSites);
  Result.Stats.add("cg_sccs", CG.sccsBottomUp().size());
  Result.Stats.add("cg_recursive_procs", RecursiveProcs);

  Timer ModRefTimer;
  ModRefInfo MRI = Opts.UseModInformation ? ModRefInfo::compute(*Scratch, CG)
                                          : ModRefInfo::worstCase(*Scratch);
  Result.Stats.add("time_modref_us", uint64_t(ModRefTimer.seconds() * 1e6));

  // The cache only models the configurations the summary format covers;
  // others silently run the ordinary cold path (see Options.h).
  SummaryCache *Cache = Opts.Cache;
  if (Cache && (Opts.IntraproceduralOnly || Opts.UseBindingGraphPropagator ||
                Opts.Engine == PropagationEngine::Contexts))
    Cache = nullptr;
  Result.UsedCache = Cache != nullptr;

  SymExprContext Ctx(Opts.MaxExprNodes);
  SSAMap SSA;
  std::unique_ptr<ReturnJumpFunctions> RJFs;
  ForwardJumpFunctions FJFs;
  bool WantRJFs = Opts.UseReturnJumpFunctions && !Opts.IntraproceduralOnly;
  std::unique_ptr<IncrementalEngine> Inc;

  if (!Cache) {
    // Intraprocedural analysis: SSA per procedure. The paper observes
    // this dominates total analysis cost; bench_costs.cpp confirms.
    Timer IntraTimer;
    {
      ScopedTraceSpan SSASpan("ssa-construction");
      for (const std::unique_ptr<Procedure> &P : Scratch->procedures()) {
        traceEvent("ssa.proc", P->getName());
        SSA.emplace(P.get(), constructSSA(*P, MRI));
      }
    }
    Result.Stats.add("time_intraprocedural_us",
                     uint64_t(IntraTimer.seconds() * 1e6));

    // Stage 1: return jump functions (bottom-up).
    Timer RJFTimer;
    if (WantRJFs) {
      RJFs = std::make_unique<ReturnJumpFunctions>(
          ReturnJumpFunctions::build(CG, MRI, SSA, Ctx, Opts.UseGatedSSA));
      Result.Stats.add("rjf_known", RJFs->knownCount());
      Result.Stats.add("rjf_entries", RJFs->entryCount());
    }
    Result.Stats.add("time_return_jf_us", uint64_t(RJFTimer.seconds() * 1e6));
  } else {
    // Incremental mode: one bottom-up sweep restores or rebuilds each
    // component's summaries (stages 1 + 2 fused per component; whole
    // phase reported as time_intraprocedural_us, with zero JF timers so
    // warm and cold runs emit identical counter key sets).
    if (WantRJFs)
      RJFs = std::make_unique<ReturnJumpFunctions>();
    Inc = std::make_unique<IncrementalEngine>(*Cache, CG, MRI, Ctx, Opts,
                                              Result.Stats, *Guard, SSA,
                                              RJFs.get(), FJFs);
    Inc->phaseA();
  }

  // Stage 2 + 3: forward jump functions, then propagation.
  ConstantsMap CM;
  Guard->checkDeadline("analysis");
  if (!Opts.IntraproceduralOnly && !Guard->tripped()) {
    if (!Inc) {
      Timer FJFTimer;
      FJFs = ForwardJumpFunctions::build(CG, MRI, SSA, RJFs.get(), Ctx,
                                         Opts.ForwardKind, Opts.UseGatedSSA);
      Result.Stats.add("time_forward_jf_us",
                       uint64_t(FJFTimer.seconds() * 1e6));
    } else {
      Result.Stats.add("time_forward_jf_us", uint64_t(0));
    }
    ForwardJumpFunctions::Stats JS = FJFs.stats();
    Result.Stats.add("jf_bottom", JS.Bottom);
    Result.Stats.add("jf_constant", JS.Constant);
    Result.Stats.add("jf_passthrough", JS.PassThrough);
    Result.Stats.add("jf_polynomial", JS.Polynomial);

    Timer PropTimer;
    PropagatorStats PS;
    const IncrementalPropagationPlan *Plan = Inc ? Inc->buildPlan() : nullptr;
    if (Opts.Engine == PropagationEngine::Contexts)
      CM = propagateConstantsContexts(CG, MRI, FJFs, Opts, &PS, Guard,
                                      &Result.ContextStudy);
    else
      CM = Opts.UseBindingGraphPropagator
               ? propagateConstantsBindingGraph(CG, MRI, FJFs, Opts, &PS,
                                                Guard)
               : propagateConstants(CG, MRI, FJFs, Opts, &PS, Guard, Plan);
    Result.Stats.add("time_propagation_us",
                     uint64_t(PropTimer.seconds() * 1e6));
    Result.Stats.add("prop_visits", PS.ProcVisits);
    Result.Stats.add("prop_evaluations", PS.JumpFunctionEvaluations);
    Result.Stats.add("prop_lowerings", PS.Lowerings);
    Result.Stats.add("prop_revisits", PS.Revisits);
    Result.Stats.add("prop_val_entries", CM.totalEntries());
    Result.Stats.add("prop_val_constants", CM.totalConstants());
    if (Result.ContextStudy.Enabled) {
      const ContextEngineStats &CS = Result.ContextStudy;
      Result.Stats.add("ctx_contexts", CS.Contexts);
      Result.Stats.add("ctx_summary_contexts", CS.SummaryContexts);
      Result.Stats.add("ctx_evaluations", CS.Evaluations);
      Result.Stats.add("ctx_reused", CS.Reused);
      Result.Stats.add("ctx_merges", CS.Merges);
      Result.Stats.add("ctx_entry_bytes", CS.EntryBytes);
      Result.Stats.add("ctx_budget_trips", uint64_t(CS.BudgetTripped ? 1 : 0));
      Result.Stats.add("ctx_baseline_val_constants", CS.BaselineValConstants);
    }
  }

  // Stage 4: record the results — seed each procedure's SCCP with its
  // CONSTANTS set, count constant variable references, and emit
  // substitution facts for the original module.
  Timer RecordTimer;
  ScopedTraceSpan RecordSpan("record-results");
  for (const std::unique_ptr<Procedure> &P : Scratch->procedures()) {
    // A deadline interrupts recording between procedures (the tail of
    // Result.Procs is simply missing); other budget trips — propagation
    // evaluations — still let recording finish, yielding sound
    // intraprocedural-quality results for every procedure.
    if (!Guard->tripped())
      Guard->checkDeadline("record");
    if (Guard->deadlineTripped())
      break;
    if (Inc && Inc->replay(P.get(), CM, Result))
      continue;
    const SSAResult &ProcSSA = Inc ? Inc->ensureSSA(P.get()) : SSA.at(P.get());

    SCCPOptions SCCPOpts;
    for (const auto &[Var, Value] : CM.constantsOf(P.get()))
      SCCPOpts.EntrySeeds[Var] = LatticeValue::constant(Value);
    SCCPOpts.CallOutEval = makeCallOutHook(RJFs.get(), &ProcSSA);
    traceEvent("record.proc", P->getName());
    SCCPResult SCCP = runSCCP(*P, SCCPOpts);
    Result.Stats.add("sccp_runs");
    Result.Stats.add("sccp_constant_values", SCCP.constantValueCount());
    uint64_t ExecBlocks = 0;
    for (const std::unique_ptr<BasicBlock> &BB : P->blocks())
      if (SCCP.isExecutable(BB.get()))
        ++ExecBlocks;
    Result.Stats.add("sccp_executable_blocks", ExecBlocks);

    ProcedureResult PR;
    PR.Name = P->getName();
    for (const auto &[Var, Value] : CM.constantsOf(P.get())) {
      PR.EntryConstants.push_back({Var->getName(), Value});
      // "Known but irrelevant": the constant variable is never
      // referenced in this procedure's body.
      bool Referenced = false;
      for (const SSAResult::ReplacedLoad &Load : ProcSSA.Loads)
        if (Load.Var == Var) {
          Referenced = true;
          break;
        }
      if (!Referenced)
        ++PR.IrrelevantConstants;
    }
    Result.TotalEntryConstants += PR.EntryConstants.size();

    for (const SSAResult::ReplacedLoad &Load : ProcSSA.Loads) {
      if (!SCCP.isExecutable(Load.Block))
        continue;
      LatticeValue LV = SCCP.valueOf(Load.Replacement);
      if (!LV.isConstant())
        continue;
      ++PR.ConstantRefs;
      Result.Facts.ConstantLoads[Load.LoadId] = LV.getConstant();
    }
    Result.TotalConstantRefs += PR.ConstantRefs;

    for (const std::unique_ptr<BasicBlock> &BB : P->blocks()) {
      if (!SCCP.isExecutable(BB.get()))
        continue;
      const auto *CBr = dyn_cast_or_null<CondBranchInst>(BB->getTerminator());
      if (!CBr)
        continue;
      LatticeValue Cond = SCCP.valueOf(CBr->getCond());
      if (Cond.isConstant())
        Result.Facts.FoldedBranches[CBr->getId()] = Cond.getConstant() != 0;
    }

    if (Inc)
      Inc->noteRecord(P.get(), PR.ConstantRefs, PR.IrrelevantConstants,
                      SCCP.constantValueCount(), ExecBlocks);
    Result.Procs.push_back(std::move(PR));
  }
  if (Inc)
    Inc->finish(CM, !Guard->tripped());
  Result.Stats.add("time_record_us", uint64_t(RecordTimer.seconds() * 1e6));
  Result.Stats.add("time_total_us", uint64_t(Total.seconds() * 1e6));
  Result.Stats.add("constants_found", Result.TotalEntryConstants);
  Result.Stats.add("constant_refs", Result.TotalConstantRefs);
  for (const ProcedureResult &PR : Result.Procs)
    Result.Stats.add("constants_known_irrelevant", PR.IrrelevantConstants);
  Result.Stats.add("unique_exprs", Ctx.uniqueExprCount());
  recordGuardOutcome(Result, *Guard);

  return Result;
}

namespace {

/// Round cap of the analyze→substitute loop. The paper's experiment
/// converged after one extra round; the cap only guards adversarial
/// inputs.
constexpr unsigned MaxSubstitutionRounds = 8;

/// What the rounds of substituteToFixpoint did, summed.
struct SubstitutionRounds {
  unsigned Rounds = 0;
  TransformStats Totals;
  StatisticSet Stats; ///< Every round's analysis counters, merged.
  IPCPResult FinalRound;
  PipelineStatus Status; ///< Set when the shared guard tripped.
};

/// The one analyze→substitute loop: runIPCP over \p M, then applyFacts on
/// \p M itself. Stops at the first round that removes no block (when
/// \p StopOnNoDeadCode: the paper's Table 3 rule) or that changes nothing
/// (the optimizer's fixpoint), when \p Guard trips, or at the round cap.
/// All rounds share \p Guard, so a deadline bounds the whole loop.
SubstitutionRounds substituteToFixpoint(Module &M, const IPCPOptions &Opts,
                                        ResourceGuard &Guard,
                                        bool StopOnNoDeadCode) {
  SubstitutionRounds Result;

  // Replayed procedures contribute no substitution facts, so the rounds
  // must run cache-less (Pipeline.h).
  IPCPOptions RoundOpts = Opts;
  RoundOpts.Cache = nullptr;

  for (unsigned Round = 0; Round < MaxSubstitutionRounds; ++Round) {
    ScopedTraceSpan RoundSpan("round", std::to_string(Round + 1));
    IPCPResult RoundResult = runIPCP(M, RoundOpts, &Guard);
    ++Result.Rounds;
    Result.Stats.merge(RoundResult.Stats);

    // Facts from a degraded round are still sound (a cut-short
    // propagation discards its too-optimistic map entirely), so apply
    // whatever this round proved before stopping.
    TransformStats TS = applyFacts(M, RoundResult.Facts);
    Result.Totals.LoadsReplaced += TS.LoadsReplaced;
    Result.Totals.BranchesFolded += TS.BranchesFolded;
    Result.Totals.BlocksRemoved += TS.BlocksRemoved;
    Result.Totals.InstsRemoved += TS.InstsRemoved;
    Result.Totals.ExprsFolded += TS.ExprsFolded;
    Result.FinalRound = std::move(RoundResult);

    if (Guard.tripped()) {
      Result.Status = Guard.status();
      break;
    }
    // Paper: "In each case, only one pass of dead code elimination was
    // needed" — we loop until quiescence anyway.
    if (StopOnNoDeadCode ? !TS.foundDeadCode() : !TS.changedAnything())
      break;
  }
  return Result;
}

uint64_t elapsedUs(const Timer &T) { return uint64_t(T.seconds() * 1e6); }

} // namespace

CompletePropagationResult
ipcp::runCompletePropagation(const Module &M, const IPCPOptions &Opts,
                             ResourceGuard *Guard) {
  CompletePropagationResult Result;
  ScopedTraceSpan CompleteSpan("complete-propagation");
  std::unique_ptr<Module> Working = M.clone();

  ResourceGuard LocalGuard(Opts.Limits);
  SubstitutionRounds Rounds =
      substituteToFixpoint(*Working, Opts, Guard ? *Guard : LocalGuard,
                           /*StopOnNoDeadCode=*/true);

  // applyFacts replaces and erases every load a round names, so no load
  // is counted twice across rounds.
  Result.Rounds = Rounds.Rounds;
  Result.TotalConstantRefs = Rounds.Totals.LoadsReplaced;
  Result.BlocksRemoved = Rounds.Totals.BlocksRemoved;
  Result.Stats = std::move(Rounds.Stats);
  Result.Stats.add("cp_loads_replaced", Rounds.Totals.LoadsReplaced);
  Result.Stats.add("cp_branches_folded", Rounds.Totals.BranchesFolded);
  Result.Stats.add("cp_blocks_removed", Rounds.Totals.BlocksRemoved);
  Result.Stats.add("cp_insts_removed", Rounds.Totals.InstsRemoved);
  Result.Stats.add("cp_rounds", Rounds.Rounds);
  Result.FinalRound = std::move(Rounds.FinalRound);
  Result.Status = Rounds.Status;
  return Result;
}

bool ipcp::parsePassSpec(const std::string &Spec, TransformPassConfig &Config,
                         std::string *Error) {
  Config.ConstantSubstitution = false;
  Config.CopyPropagation = false;
  size_t Pos = 0;
  for (;;) {
    size_t Comma = Spec.find(',', Pos);
    std::string Name = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Name == "constants") {
      Config.ConstantSubstitution = true;
    } else if (Name == "copyprop") {
      Config.CopyPropagation = true;
    } else {
      if (Error)
        *Error = "unknown optimization pass '" + Name +
                 "' (expected constants, copyprop)";
      return false;
    }
    if (Comma == std::string::npos)
      return true;
    Pos = Comma + 1;
  }
}

OptimizationResult ipcp::optimizeModule(Module &M, const IPCPOptions &Opts,
                                        const TransformPassConfig &Config,
                                        ResourceGuard *Guard) {
  OptimizationResult Result;
  ScopedTraceSpan OptSpan("optimize");
  Timer Total;
  Result.InstructionsBefore = M.instructionCount();

  // One guard spans every pass and round, so a deadline bounds the whole
  // optimization rather than restarting per round.
  ResourceGuard LocalGuard(Opts.Limits);
  if (!Guard)
    Guard = &LocalGuard;

  if (Config.ConstantSubstitution) {
    ScopedTraceSpan PassSpan("constant-substitution");
    Timer PassTimer;
    SubstitutionRounds Rounds =
        substituteToFixpoint(M, Opts, *Guard, /*StopOnNoDeadCode=*/false);
    Result.Rounds = Rounds.Rounds;
    Result.Substitutions = Rounds.Totals.LoadsReplaced;
    Result.Folds = Rounds.Totals.ExprsFolded;
    Result.BranchesResolved = Rounds.Totals.BranchesFolded;
    Result.BlocksRemoved = Rounds.Totals.BlocksRemoved;
    Result.InstsRemoved =
        Rounds.Totals.LoadsReplaced + Rounds.Totals.InstsRemoved;
    Result.Stats = std::move(Rounds.Stats);
    Result.Status = Rounds.Status;
    Result.PassTimings.push_back({"constants", elapsedUs(PassTimer)});
  }

  if (Config.CopyPropagation && !Guard->tripped()) {
    ScopedTraceSpan PassSpan("copy-propagation");
    Timer PassTimer;
    CallGraph CG(M);
    ModRefInfo MRI = Opts.UseModInformation ? ModRefInfo::compute(M, CG)
                                            : ModRefInfo::worstCase(M);
    Result.CopiesPropagated = propagateCopies(M, MRI);

    // Forwarding strands the forwarded loads' pure operand chains when
    // the load was a value's only consumer; sweep them so the optimized
    // module is as tight as the report claims.
    unsigned Cleaned = 0;
    for (const std::unique_ptr<Procedure> &P : M.procedures())
      Cleaned += removeTriviallyDeadInstructions(*P);
    Result.InstsRemoved += Result.CopiesPropagated + Cleaned;
    Result.PassTimings.push_back({"copyprop", elapsedUs(PassTimer)});
  }

  Result.InstructionsAfter = M.instructionCount();
  Result.Stats.add("opt_rounds", Result.Rounds);
  Result.Stats.add("opt_substitutions", Result.Substitutions);
  Result.Stats.add("opt_folds", Result.Folds);
  Result.Stats.add("opt_branches_resolved", Result.BranchesResolved);
  Result.Stats.add("opt_blocks_removed", Result.BlocksRemoved);
  Result.Stats.add("opt_insts_removed", Result.InstsRemoved);
  Result.Stats.add("opt_copies_propagated", Result.CopiesPropagated);
  Result.Stats.add("time_optimize_us", elapsedUs(Total));
  return Result;
}

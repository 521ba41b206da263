//===- core/Cloning.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Cloning.h"

#include "core/ValueNumbering.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>

using namespace ipcp;

namespace {

/// One cloning decision: retarget these call sites (by clone-stable call
/// instruction ID) from the procedure at ProcIndex (its module index, the
/// same in the scratch and the real module) to a fresh copy.
struct CloneDecision {
  uint32_t ProcIndex;
  std::vector<uint64_t> SiteIds;
  std::string Signature; // for determinism / debugging
};

/// Renders the constant vector a call site would supply, or empty when
/// the site is not profitable (no constant that the merged VAL lost).
/// Top values (sites inside never-invoked procedures) are treated as
/// bottom: cloning for them wins nothing.
std::string signatureFor(const CallSiteJumpFunctions &JFs,
                         const ConstantsMap &CM, Procedure *Caller,
                         Procedure *Callee, bool &Profitable) {
  std::string Sig;
  Profitable = false;
  auto CallerLookup = [&](Variable *Var) {
    return CM.valueOf(Caller, Var);
  };
  auto Append = [&](Variable *Y, const JumpFunction &JF) {
    LatticeValue V = JF.evaluateVia(CallerLookup);
    if (!V.isConstant()) {
      Sig += "_,";
      return;
    }
    Sig += std::to_string(V.getConstant());
    Sig += ',';
    if (!CM.valueOf(Callee, Y).isConstant())
      Profitable = true;
  };
  for (unsigned I = 0, E = JFs.Formals.size(); I != E; ++I)
    Append(Callee->formals()[I], JFs.Formals[I]);
  for (const auto &[G, JF] : JFs.Globals)
    Append(G, JF);
  return Sig;
}

/// Plans one round of cloning decisions against a scratch analysis.
std::vector<CloneDecision> planRound(const Module &M,
                                     const CloningOptions &Opts) {
  std::vector<CloneDecision> Decisions;

  std::unique_ptr<Module> Scratch = M.clone();
  CallGraph CG(*Scratch);
  ModRefInfo MRI = Opts.Analysis.UseModInformation
                       ? ModRefInfo::compute(*Scratch, CG)
                       : ModRefInfo::worstCase(*Scratch);
  SSAMap SSA;
  for (const std::unique_ptr<Procedure> &P : Scratch->procedures())
    SSA.emplace(P.get(), constructSSA(*P, MRI));
  SymExprContext Ctx(Opts.Analysis.MaxExprNodes);
  std::unique_ptr<ReturnJumpFunctions> RJFs;
  if (Opts.Analysis.UseReturnJumpFunctions)
    RJFs = std::make_unique<ReturnJumpFunctions>(
        ReturnJumpFunctions::build(CG, MRI, SSA, Ctx));
  ForwardJumpFunctions FJFs = ForwardJumpFunctions::build(
      CG, MRI, SSA, RJFs.get(), Ctx, Opts.Analysis.ForwardKind);
  ConstantsMap CM = propagateConstants(CG, MRI, FJFs, Opts.Analysis);

  for (Procedure *Q : CG.procedures()) {
    if (Q->getName() == Opts.Analysis.EntryProcedure || CG.isRecursive(Q))
      continue;

    // Gather every call site targeting Q, grouped by constant signature.
    // std::map keeps group iteration deterministic.
    std::map<std::string, std::vector<uint64_t>> Groups;
    std::map<std::string, bool> GroupProfitable;
    unsigned TotalSites = 0;
    for (Procedure *Caller : CG.callers(Q)) {
      for (CallInst *Site : CG.callSitesIn(Caller)) {
        if (Site->getCallee() != Q)
          continue;
        ++TotalSites;
        bool Profitable = false;
        std::string Sig =
            signatureFor(FJFs.at(Site), CM, Caller, Q, Profitable);
        Groups[Sig].push_back(Site->getId());
        GroupProfitable[Sig] = GroupProfitable[Sig] || Profitable;
      }
    }
    if (Groups.size() < 2 || TotalSites < 2)
      continue;

    // Keep the original for the largest group; clone for the other
    // profitable groups, respecting the per-procedure cap.
    std::string Largest;
    size_t LargestSize = 0;
    for (const auto &[Sig, Sites] : Groups)
      if (Sites.size() > LargestSize) {
        Largest = Sig;
        LargestSize = Sites.size();
      }
    unsigned Budget = Opts.MaxClonesPerProcedure - 1;
    for (const auto &[Sig, Sites] : Groups) {
      if (Sig == Largest || !GroupProfitable[Sig] || Budget == 0)
        continue;
      Decisions.push_back({Q->getModuleIndex(), Sites, Sig});
      --Budget;
    }
  }
  return Decisions;
}

} // namespace

CloningResult ipcp::cloneForConstants(Module &M, const CloningOptions &Opts,
                                      ResourceGuard *Guard) {
  ScopedTraceSpan CloneSpan("cloning");
  CloningResult Result;
  ResourceGuard LocalGuard(Opts.Analysis.Limits);
  if (!Guard)
    Guard = &LocalGuard;
  Result.InstructionsBefore = M.instructionCount();
  // The before/after measurement runs must not consult (or restock) a
  // summary cache: the module mutates between them.
  CloningOptions MeasureOpts = Opts;
  MeasureOpts.Analysis.Cache = nullptr;
  const IPCPOptions &AnalysisOpts = MeasureOpts.Analysis;
  {
    IPCPResult Before = runIPCP(M, AnalysisOpts, Guard);
    Result.RefsBefore = Before.TotalConstantRefs;
    Result.ConstantsBefore = Before.TotalEntryConstants;
  }

  // The per-procedure budget counts every copy of one original across
  // all rounds; clones of clones share the original's budget.
  auto RootOf = [](const std::string &Name) {
    size_t Pos = Name.find(".clone");
    return Pos == std::string::npos ? Name : Name.substr(0, Pos);
  };
  std::unordered_map<std::string, unsigned> CopiesPerRoot;

  unsigned CloneCounter = 0;
  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    ScopedTraceSpan RoundSpan("cloning-round", std::to_string(Round + 1));
    // Budget gate: the deadline and the absolute IR-size budget both end
    // the experiment between rounds, leaving the module consistent.
    unsigned Instructions = M.instructionCount();
    if (Guard->tripped() || !Guard->checkDeadline("cloning") ||
        !Guard->checkIRInstructions(Instructions, "cloning"))
      break;
    if (Instructions > Result.InstructionsBefore * Opts.MaxGrowthFactor)
      break;
    std::vector<CloneDecision> Decisions = planRound(M, Opts);
    if (Decisions.empty())
      break;
    ++Result.RoundsRun;

    // Index the real module's call sites by ID once per round.
    std::unordered_map<uint64_t, CallInst *> SitesById;
    for (const std::unique_ptr<Procedure> &P : M.procedures())
      for (CallInst *Site : P->callSites())
        SitesById[Site->getId()] = Site;

    // Copies are appended, so the planned module indices stay valid for
    // the whole round.
    for (const CloneDecision &Decision : Decisions) {
      Procedure *Original = M.procedures()[Decision.ProcIndex].get();
      std::string Root = RootOf(Original->getName());
      if (CopiesPerRoot[Root] + 2 > Opts.MaxClonesPerProcedure)
        continue; // original + copies would exceed the cap
      unsigned OriginalInstructions = Original->instructionCount();
      if (Instructions + OriginalInstructions >
          Result.InstructionsBefore * Opts.MaxGrowthFactor)
        break;
      ++CopiesPerRoot[Root];
      Procedure *Copy = M.cloneProcedure(
          *Original,
          Original->getName() + ".clone" + std::to_string(++CloneCounter));
      Instructions += OriginalInstructions;
      ++Result.ClonesCreated;
      for (uint64_t SiteId : Decision.SiteIds) {
        auto It = SitesById.find(SiteId);
        if (It != SitesById.end())
          It->second->setCallee(Copy);
      }
    }
  }

  {
    IPCPResult After = runIPCP(M, AnalysisOpts, Guard);
    Result.RefsAfter = After.TotalConstantRefs;
    Result.ConstantsAfter = After.TotalEntryConstants;
  }
  Result.InstructionsAfter = M.instructionCount();
  Result.Status = Guard->status();
  return Result;
}

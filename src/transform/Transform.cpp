//===- transform/Transform.cpp --------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "transform/Transform.h"

#include "analysis/ModRef.h"
#include "ir/Module.h"
#include "support/Casting.h"

#include <unordered_map>
#include <vector>

using namespace ipcp;

unsigned ipcp::propagateCopies(Module &M, const ModRefInfo &MRI) {
  unsigned Forwarded = 0;
  for (const std::unique_ptr<Procedure> &P : M.procedures()) {
    const Procedure::InstStream &Stream = P->instStream();

    // Forwarded load -> replacement value. Every value placed in Avail is
    // itself fully resolved (never a load scheduled for deletion), so one
    // operand-rewrite sweep suffices — the same discipline applyFacts
    // uses for constant substitution.
    std::unordered_map<const Value *, Value *> LoadSubst;
    std::vector<LoadInst *> ForwardedLoads;

    for (const Procedure::InstStream::Span &Span : Stream.Spans) {
      // Scalar variable -> the value its most recent store in this block
      // wrote, still valid at the current point.
      std::unordered_map<Variable *, Value *> Avail;
      for (uint32_t I = Span.Begin; I != Span.End; ++I) {
        Instruction *Inst = Stream.Insts[I];
        switch (Inst->getKind()) {
        case ValueKind::Store: {
          auto *St = cast<StoreInst>(Inst);
          Value *V = St->getValueOperand();
          auto It = LoadSubst.find(V);
          Avail[St->getVariable()] = It == LoadSubst.end() ? V : It->second;
          break;
        }
        case ValueKind::Load: {
          auto *Ld = cast<LoadInst>(Inst);
          auto It = Avail.find(Ld->getVariable());
          if (It != Avail.end()) {
            LoadSubst[Ld] = It->second;
            ForwardedLoads.push_back(Ld);
          }
          break;
        }
        case ValueKind::Call:
          // The interprocedural ingredient: only the locations MOD
          // information proves the call may write are invalidated. With
          // worst-case MOD every call kills everything and the pass
          // degenerates to single-call-free regions (the Table 3
          // ablation, observable through opt_copies_propagated).
          for (Variable *V : MRI.callKills(cast<CallInst>(Inst)))
            Avail.erase(V);
          break;
        default:
          // ArrayLoad/ArrayStore touch arrays only, Read/Print touch no
          // scalar storage; none disturb forwarded scalar values.
          break;
        }
      }
    }

    if (LoadSubst.empty())
      continue;
    for (const std::unique_ptr<BasicBlock> &BB : P->blocks())
      for (const std::unique_ptr<Instruction> &Inst : BB->instructions())
        for (unsigned I = 0, E = Inst->getNumOperands(); I != E; ++I) {
          auto It = LoadSubst.find(Inst->getOperand(I));
          if (It != LoadSubst.end())
            Inst->setOperand(I, It->second);
        }
    for (LoadInst *Ld : ForwardedLoads) {
      Ld->getParent()->erase(Ld);
      ++Forwarded;
    }
  }
  return Forwarded;
}

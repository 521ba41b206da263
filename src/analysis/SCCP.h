//===- analysis/SCCP.h - Sparse conditional constant prop -------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wegman–Zadeck sparse conditional constant propagation over one
/// procedure in SSA form. This is the `gcp(y, s)` machinery of the paper:
/// intraprocedural constant propagation coupled with interprocedural MOD
/// information (already folded into the SSA form as CallOut definitions).
///
/// Two hooks make it serve every configuration of the study:
///  - \c EntrySeeds injects interprocedural constants for formals and
///    globals (the CONSTANTS(p) sets); a missing seed means bottom, and
///    an empty map yields the plain intraprocedural baseline of Table 3;
///  - \c CallOutEval resolves the value of a location after a call,
///    implemented by the core library through return jump functions; the
///    default declines (bottom), modeling the no-return-jump-function
///    configurations.
///
/// Branch conditions with constant values keep the untaken edge
/// non-executable, which is also how dead code is detected for the
/// "complete propagation" experiment.
///
/// The solver is data-oriented: lattice cells live in one flat vector
/// indexed by the procedure's flat instruction stream
/// (Instruction::getLocalIdx()), executable-block and executable-edge
/// flags are bitmaps over dense block positions, and def-use chains are a
/// CSR adjacency built in two passes. The result stays valid as long as
/// the procedure's stream does (no instruction/block mutation).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_SCCP_H
#define IPCP_ANALYSIS_SCCP_H

#include "analysis/Lattice.h"
#include "ir/Module.h"

#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

namespace ipcp {

/// Configuration for one SCCP run.
struct SCCPOptions {
  /// Lattice values of EntryValues; variables not present are bottom.
  std::unordered_map<Variable *, LatticeValue> EntrySeeds;

  /// Evaluates a CallOut given a getter for current lattice values of the
  /// underlying call's actuals. Null means every CallOut is bottom.
  std::function<LatticeValue(
      const CallOutInst *,
      const std::function<LatticeValue(const Value *)> &)>
      CallOutEval;
};

/// Fixpoint result of one SCCP run.
class SCCPResult {
public:
  /// Lattice value of \p V at fixpoint. Values in never-executed blocks
  /// report top. Instructions must belong to the analyzed procedure.
  LatticeValue valueOf(const Value *V) const;

  /// Whether any path from the entry can reach \p BB.
  bool isExecutable(const BasicBlock *BB) const {
    return ExecBlocks[BB->getDensePos()] != 0;
  }

  /// Whether the CFG edge \p From -> \p To can ever be taken.
  bool isExecutableEdge(const BasicBlock *From, const BasicBlock *To) const {
    const std::array<char, 2> &Slots = ExecEdges[From->getDensePos()];
    for (unsigned I = 0, E = From->getNumSuccessors(); I != E; ++I)
      if (Slots[I] && From->getSuccessor(I) == To)
        return true;
    return false;
  }

  /// Number of lattice cells that ended as constants (for statistics).
  unsigned constantValueCount() const;

private:
  friend SCCPResult runSCCP(const Procedure &P, const SCCPOptions &Options);

  std::vector<LatticeValue> InstValues;    ///< by Instruction::getLocalIdx()
  std::vector<char> ExecBlocks;            ///< by dense block pos
  std::vector<std::array<char, 2>> ExecEdges; ///< by (block pos, succ slot)
  std::unordered_map<Variable *, LatticeValue> EntrySeeds;
};

/// Runs SCCP on \p P (must be in SSA form).
SCCPResult runSCCP(const Procedure &P, const SCCPOptions &Options = {});

} // namespace ipcp

#endif // IPCP_ANALYSIS_SCCP_H

//===- ir/Procedure.h - One procedure's CFG and symbols ---------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Procedure owns its basic blocks, its formal and local variables, and
/// the per-variable EntryValue objects that jump functions range over.
/// Lowering guarantees a single entry block and a single exit block whose
/// only instruction is the Ret.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_PROCEDURE_H
#define IPCP_IR_PROCEDURE_H

#include "ir/BasicBlock.h"
#include "ir/Value.h"
#include "ir/Variable.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {

class Module;

/// One MiniFort procedure in IR form.
class Procedure {
public:
  Procedure(Module *Parent, std::string Name)
      : Parent(Parent), Name(std::move(Name)) {}

  Module *getModule() const { return Parent; }
  const std::string &getName() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }

  /// Dense position in the owning module's procedure list.
  uint32_t getModuleIndex() const { return ModuleIndex; }

  //===--------------------------------------------------------------------===
  // Blocks
  //===--------------------------------------------------------------------===

  /// Creates and appends a new block.
  BasicBlock *createBlock(std::string BlockName);

  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }

  BasicBlock *getEntryBlock() const {
    return Blocks.empty() ? nullptr : Blocks.front().get();
  }

  BasicBlock *getExitBlock() const { return ExitBlock; }
  void setExitBlock(BasicBlock *BB) { ExitBlock = BB; }

  /// Destroys \p BB (must have no predecessors left). Instructions inside
  /// are destroyed with it.
  void eraseBlock(BasicBlock *BB);

  /// Deletes blocks unreachable from the entry, fixing predecessor lists
  /// and phis. Returns the number of blocks removed.
  unsigned removeUnreachableBlocks();

  //===--------------------------------------------------------------------===
  // Variables
  //===--------------------------------------------------------------------===

  /// Appends a formal parameter (in positional order).
  Variable *addFormal(const std::string &VarName);

  /// Adds a scalar or array local.
  Variable *addLocal(const std::string &VarName, ConstantValue ArraySize = 0);

  const std::vector<Variable *> &formals() const { return Formals; }
  const std::vector<Variable *> &locals() const { return Locals; }

  /// Looks up a formal or local by name (globals live in the Module).
  Variable *findVariable(const std::string &VarName) const;

  /// The canonical "value of \p Var on entry" SSA object.
  EntryValue *getEntryValue(Variable *Var);

  //===--------------------------------------------------------------------===
  // Misc
  //===--------------------------------------------------------------------===

  unsigned getNumFormals() const { return Formals.size(); }

  /// Number of instructions across all blocks.
  unsigned instructionCount() const;

  /// Collects every CallInst in block order.
  std::vector<CallInst *> callSites() const;

  //===--------------------------------------------------------------------===
  // Flat instruction stream
  //===--------------------------------------------------------------------===

  /// The procedure's instructions laid out as one contiguous array in
  /// block order, with each block's instructions addressed as an index
  /// span. Rebuilt lazily after any CFG or instruction-list mutation;
  /// building it also assigns Instruction::getLocalIdx() and
  /// BasicBlock::getDensePos(), so analyses index dense side tables
  /// instead of pointer-keyed hash maps.
  struct InstStream {
    struct Span {
      uint32_t Begin = 0;
      uint32_t End = 0;
    };
    std::vector<Instruction *> Insts; ///< all instructions, block order
    std::vector<Span> Spans;          ///< per-block [Begin, End) into Insts

    size_t size() const { return Insts.size(); }
    size_t numBlocks() const { return Spans.size(); }
  };

  /// Materializes (or returns the cached) flat stream. Iteration over
  /// Insts visits every instruction exactly once in block order.
  const InstStream &instStream() const;

  /// Marks the cached stream stale; called by every block/instruction
  /// mutator. Dense indices remain readable but must not be trusted until
  /// instStream() runs again.
  void invalidateInstStream() { StreamValid = false; }

private:
  friend class Module; // clone support

  Module *Parent;
  std::string Name;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  BasicBlock *ExitBlock = nullptr;
  std::vector<Variable *> Formals;
  std::vector<Variable *> Locals;
  std::vector<std::unique_ptr<Variable>> OwnedVars;
  std::unordered_map<Variable *, std::unique_ptr<EntryValue>> EntryValues;
  unsigned NextBlockId = 0;
  uint32_t ModuleIndex = 0;
  mutable InstStream Stream;
  mutable bool StreamValid = false;
};

/// The structural hash of one procedure's lowered (pre-SSA) body: the
/// summary cache's content key, serialized into the support/StableHash.h
/// hasher by BodyHash.cpp. Covers the procedure name, formal count, every
/// instruction's opcode and operands (instruction results by dense
/// traversal-order number, variables by kind + formal index or name,
/// constants by value), binary and unary operator spellings, callee
/// names, by-reference binding and literal-actual flags at call sites,
/// and branch targets as block indices. Excludes instruction ids,
/// variable ids, source locations, and anything reachable only through
/// global state — see docs/INCREMENTAL.md for the byte-level format.
uint64_t hashProcedureBody(const Procedure &P);

} // namespace ipcp

#endif // IPCP_IR_PROCEDURE_H

//===- transform/Transform.h - Interprocedural copy propagation -*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR rewrite behind the optimizer's second pass ("copyprop"):
/// per-block store-to-load forwarding over the flat instStream(), killing
/// forwarded values across calls only for the locations in
/// ModRefInfo::callKills. The interprocedural MOD information is what
/// lets a value survive a call (the subsumption observation of "Copy
/// Propagation subsumes Constant Propagation", arXiv 2207.03894: with
/// precise kill sets, forwarding a stored value generalizes forwarding a
/// stored constant).
///
/// optimizeModule (core/Pipeline.h) runs it after its constant
/// substitution rounds; docs/TRANSFORMS.md has the contract.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_TRANSFORM_TRANSFORM_H
#define IPCP_TRANSFORM_TRANSFORM_H

namespace ipcp {

class Module;
class ModRefInfo;

/// The copyprop pass alone: forwards each load of a scalar variable to
/// the value most recently stored to it in the same block, when no
/// intervening call may modify the location (per \p MRI's kill sets —
/// \p MRI must be computed over \p M itself). Forwarded loads are
/// deleted. Returns the number of loads forwarded.
unsigned propagateCopies(Module &M, const ModRefInfo &MRI);

} // namespace ipcp

#endif // IPCP_TRANSFORM_TRANSFORM_H

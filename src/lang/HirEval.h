//===- lang/HirEval.h - HIR evaluator -----------------------------*- C++ -*-===//
///
/// \file
/// Concrete evaluation of HIR expressions and action bodies. A structural
/// mirror of the AST evaluator (lang/Eval.h): the same short-circuiting,
/// the same builtin semantics, and the same continuation-passing path
/// enumeration with the same branch order — so an action lowered from
/// HIR produces the same transition list, in the same order, as the v1
/// compile of the same source. Locals live in a flat slot vector instead
/// of a name map, and the pending builtins count the entries of the
/// gate context's Ω directly.
///
/// The one runner has two modes. The transition enumerator runs the full
/// body. The lowered gate runs it in gate mode, which computes only
/// CanFail: it stops at the first violated assert and drops every path
/// past which no assert can run (markAssertFacts), so a gate whose
/// asserts lead the body costs just those asserts.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_HIREVAL_H
#define ISQ_LANG_HIREVAL_H

#include "lang/Eval.h"
#include "lang/Hir.h"

namespace isq {
namespace asl {

/// The evaluation environment of one HIR slot space. Plain pointers plus
/// a value vector: environments are copied per control path, and
/// evaluation itself holds no shared mutable state, so compiled actions
/// stay safe to run from concurrent checker jobs.
struct HirEnv {
  std::vector<Value> Slots;
  /// Type table of the owning module (EmptyLit materialization).
  const hir::TypeTable *Types = nullptr;
  /// The pending asyncs Ω the gate observes, or nullptr outside gate
  /// evaluation (every pending count reads 0).
  const PaMultiset *Omega = nullptr;
};

/// How much of a body runHirBody computes.
enum class RunMode {
  /// Every control path: CanFail and every transition.
  Full,
  /// CanFail only; Transitions is left partial and must not be read.
  Gate,
};

/// Evaluates \p E under global store \p G and environment \p Env. The
/// environment is taken mutably for map-comprehension binders (written
/// and restored); it is otherwise unchanged on return.
Value evalHirExpr(const hir::Expr &E, const Store &G, HirEnv &Env);

/// Runs an action body from (\p G, \p Env), enumerating all control
/// paths. Same outcome contract as runBody; in RunMode::Gate only
/// CanFail is meaningful, and it equals the full run's.
BodyOutcome runHirBody(const std::vector<hir::StmtPtr> &Body,
                       const Store &G, const HirEnv &Env,
                       RunMode Mode = RunMode::Full);

/// Computes Stmt::AssertAtOrAfter for \p Stmts and every nested block.
/// Returns whether \p Stmts contains an assert. Gate mode prunes only
/// where these facts were computed.
bool markAssertFacts(std::vector<hir::StmtPtr> &Stmts);

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_HIREVAL_H

// The WJ static-analysis passes built on the dataflow engine (cfg.h /
// dataflow.h / interval.h):
//
//   * definite assignment — every read of a local is dominated by a store
//     (DeclStmt.init may be null since the IR grew uninitialized locals);
//     runs forward over the CFG. A backward liveness pass piggybacks to
//     warn about dead stores.
//   * interval/shape bounds analysis — abstract interpretation of method
//     bodies over integer intervals plus array length/alias facts,
//     interprocedural by context-sensitive inlining (memoized; rule 6
//     keeps the call graph acyclic). Classifies every ArrayGet/ArraySet
//     as proven-safe, proven-out-of-bounds (hard error), or unknown. The
//     translator consumes the per-node classification to elide bounds
//     guards (bounds mode 1 guards only unproven accesses).
//   * communication race check — structural walk using the effect
//     summaries (effects.h) to flag writes that can overlap a posted
//     nonblocking receive of the same buffer region.
//
// Two drivers: lintProgram() analyzes every method with unknown
// parameters ("wjc lint" — only *proven* defects are errors), and
// analyzeEntry() analyzes one jit() call with the concrete receiver
// graph, where field constants and exact array lengths make most
// accesses provable.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/layout.h"
#include "interp/value.h"
#include "ir/program.h"
#include "support/diagnostics.h"
#include "support/translate_options.h"

namespace wj::analysis {

enum class Safety {
    Safe,         ///< in bounds for every execution reaching the access
    Unknown,      ///< not provable either way — needs a runtime guard
    OutOfBounds,  ///< out of bounds whenever a reaching execution gets there
};

/// Loop-parallelization verdict for one counted For loop (see the
/// dependence prover in analysis.cpp). Parallel: iterations provably
/// independent for every aliasing. CondParallel: independent provided the
/// listed local array pairs refer to distinct wj_array objects — the
/// translator emits a pointer-inequality runtime guard and keeps a serial
/// fallback. ParallelReduce: independent except for `acc = acc op f(i)`
/// chains over recognized reduction operators; the translator outlines the
/// body with per-chunk partial accumulators and combines the partials in
/// fixed chunk-index order (deterministic at every WJ_THREADS). Serial: a
/// loop-carried dependence (or an effect that must stay on the rank's main
/// thread) was found or could not be excluded.
enum class ParVerdict { Parallel, CondParallel, ParallelReduce, Serial };

/// Recognized reduction operator over an accumulator local.
enum class RedOp {
    Add,  ///< acc = acc + f(i)   (either operand order)
    Mul,  ///< acc = acc * f(i)   (either operand order)
    Min,  ///< if (f(i) cmp acc) acc = f(i);  selecting the smaller value
    Max,  ///< same shape selecting the larger value
};

/// One accumulator of a reduction loop. The translator re-derives the
/// update expressions from the loop body; this record carries what it needs
/// to pick the identity element and to replay the source's exact combine
/// structure (operand order / comparison op), so single-update chunks stay
/// bitwise-faithful to the serial fold.
struct Reduction {
    std::string var;          ///< accumulator local, declared outside the loop
    Prim prim = Prim::F64;    ///< F32, F64, or I64
    RedOp op = RedOp::Add;
    bool accOnLeft = true;    ///< Add/Mul: acc is the left operand of the binop
                              ///< Min/Max: acc is the left operand of the compare
    BinOp cmp = BinOp::Lt;    ///< Min/Max only: the comparison as written
};

/// SIMD-legality verdict for one innermost counted loop (the `proveVectors`
/// pass). Vectorizable: every array reference is unit-stride (or loop-
/// invariant read), the body is lane-independent for every aliasing, and
/// the only cross-lane scalar dependences are recognized reduction
/// accumulators. CondVectorizable: lane-independent provided the listed
/// array pairs occupy disjoint memory ranges — the translator emits a
/// wjrt_ranges_disjoint runtime guard with the scalar loop as the else
/// branch. ScalarOnly: `reason` names the offending access or statement.
enum class VecVerdict { Vectorizable, CondVectorizable, ScalarOnly };

/// What the counted-loop prover established about one loop in one of its
/// two modes (parallel or SIMD), joined across call contexts: a refusal in
/// any context poisons the loop, a guarded proof weakens an unguarded one,
/// guard pairs and SoA classes union, and contexts that disagree about
/// whether the loop reduces poison it.
///
/// Every verdict that is not refused holds the counted-loop contract: the
/// loop is `for (v = init; v < bound; v = v + 1)` over an integral v, and
/// `bound` is effect-free, reads no array element and no name the body
/// assigns, so the translator evaluates it once, ahead of the loop.
/// Every member has an initializer, so a designated initializer may name
/// any subset of them.
template <class Verdict, Verdict Refused, Verdict Guarded>
struct LoopProof {
    Verdict verdict = Refused;
    std::string reason{};  ///< human-readable justification ("wjc lint" reports)
    /// The proven bound expression of the contract; null when refused.
    const Expr* bound = nullptr;
    /// Local-name pairs a guarded verdict checks at run time: pointer
    /// inequality (CondParallel), or disjoint data ranges (CondVectorizable)
    /// — wider, since restrict-qualified pointer hoisting needs every
    /// written array to be disjoint from every other array it may alias,
    /// colliding or not.
    std::vector<std::pair<std::string, std::string>> pairs{};
    /// Accumulators, in first-update order (ParallelReduce, or a
    /// Vectorizable loop whose lanes reduce).
    std::vector<Reduction> reductions{};
    /// SIMD only: true when every reduction op is exact under reassociation
    /// (min/max of any type; i64 +/* which wrap mod 2^64). The translator
    /// only emits `reduction(...)` clauses when exact — f32/f64 +/* stay on
    /// the bitwise chunk-serial path.
    bool exactReductions = true;
    /// SIMD only: element classes this verdict depends on being laid out SoA
    /// (the proveLayout pass): the loop reads/writes `C[]` elements through
    /// field paths, which is unit-stride only after the AoS→SoA split.
    /// Non-empty only when the verdict was issued under the soa option;
    /// without it the loop reports ScalarOnly with a "vectorizable under
    /// --soa" reason.
    std::vector<std::string> soaClasses{};

    bool refused() const { return verdict == Refused; }
    bool guarded() const { return verdict == Guarded; }
};

using LoopParallel = LoopProof<ParVerdict, ParVerdict::Serial, ParVerdict::CondParallel>;
using LoopVector = LoopProof<VecVerdict, VecVerdict::ScalarOnly, VecVerdict::CondVectorizable>;

/// True when evaluating `e` can call, allocate or run an intrinsic: what
/// must not be evaluated twice or moved out of its loop.
bool exprHasEffects(const Expr& e);

struct Result {
    std::vector<Violation> errors;    ///< uninit reads, proven OOB, halo races
    std::vector<Violation> warnings;  ///< dead stores, receives left in flight
    /// Per-access classification, keyed by the ArrayGetExpr / ArraySetStmt
    /// node address; accesses never reached by the analysis are absent
    /// (treated as Unknown by consumers). Joined across call contexts: an
    /// access is Safe only if it is safe in every analyzed context.
    std::map<const void*, Safety> accessSafety;
    int safeAccesses = 0;
    int unknownAccesses = 0;
    /// Parallelization verdicts keyed by the ForStmt node address, joined
    /// across call contexts (Serial in any context poisons the loop; the
    /// guard-pair sets union). Only outermost counted loops of candidate
    /// shape appear; absent loops are serial.
    std::map<const void*, LoopParallel> loopParallel;
    /// One line per candidate loop explaining its verdict ("wjc lint
    /// --parallel" report). Filled by both drivers.
    std::vector<std::string> parallelReport;
    /// SIMD verdicts keyed by the ForStmt node address, joined across call
    /// contexts (ScalarOnly poisons; overlap-pair sets union). Only
    /// innermost counted loops of candidate shape appear; absent loops are
    /// scalar.
    std::map<const void*, LoopVector> loopVector;
    /// One line per innermost loop explaining its SIMD verdict (the
    /// "wjc lint" vectorization table). Filled by both drivers.
    std::vector<std::string> vectorReport;
    /// AoS→SoA layout verdicts from the proveLayout pass, one entry per
    /// class used as an array element (see analysis/layout.h). The entry
    /// driver boxes classes whose arrays cross the jit() boundary; lint
    /// reports clean classes CondInline. The translator consumes Inline
    /// verdicts under the soa option.
    std::map<std::string, ClassLayout> layoutClasses;
    /// One line per element class explaining its layout verdict (the
    /// "wjc lint" layout table). Filled by both drivers.
    std::vector<std::string> layoutReport;

    bool clean() const { return errors.empty(); }
    /// Throws AnalysisError if any error-level finding was recorded.
    void require() const;
};

/// Definite assignment (+ dead-store warnings appended to `warnings` when
/// non-null) for one method body. Cheap enough for the interpreter to run
/// memoized on first invoke of each method.
std::vector<Violation> checkDefiniteAssignment(const Program& prog, const ClassDecl& cls,
                                               const Method& m,
                                               std::vector<Violation>* warnings = nullptr);

/// Whole-program lint: every pass over every concrete method, with unknown
/// receiver/arguments. Distinct array parameters are assumed non-aliasing
/// (documented lint assumption); only proven defects become errors.
/// `opts.soa` selects the data layout the SIMD verdicts assume.
Result lintProgram(const Program& prog,
                   const TranslateOptions& opts = TranslateOptions::fromEnv());

/// Analysis of one jit() entry: `method` invoked on the concrete composed
/// `receiver` with `args`, covering everything reachable. Field primitives
/// and array lengths from the receiver graph are treated as constants —
/// exactly the specialization contract the translator itself uses.
/// `opts.soa` selects the data layout the SIMD verdicts assume.
Result analyzeEntry(const Program& prog, const Value& receiver, const std::string& method,
                    const std::vector<Value>& args,
                    const TranslateOptions& opts = TranslateOptions::fromEnv());

} // namespace wj::analysis

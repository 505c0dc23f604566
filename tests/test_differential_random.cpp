// Property-based differential testing: generate random rule-compliant WJ
// programs and check that every execution config computes bit-identical
// results. This is the strongest evidence that the translation preserves
// semantics: any divergence in arithmetic, control flow, dispatch,
// inlining, marshalling, bounds-guard insertion, or parallel-for outlining
// shows up as a mismatch.
//
// The config matrix, per generated program:
//   interp            the tree-walking interpreter (the reference)
//   jit               plain translation (no guards, serial)
//   jit+bounds        bounds=2 ("all") — every array access guarded
//   jit+par@1         parallel codegen, pool width 1 (inline dispatch)
//   jit+par@4         the same translation fanned out over 4 pool threads
//   jit+simd          simd — `#pragma omp simd` on proven loops
//   jit+par+simd@4    both codegens composed, 4 pool threads
//   jit+soa           soa — the AoS→SoA layout split (a no-op here:
//                     random programs carry no class-element arrays, so
//                     this pins the restructured element-access codegen)
//   jit+par+simd+soa@4  all three codegens composed, 4 pool threads
// The non-simd rows must agree BITWISE (uint64 payload of the f64 result) on
// every argument. The simd configs are also expected bitwise (the emitter
// never reassociates floats: reduction clauses are limited to exact
// operators), but are checked to a 1-ulp ceiling so a compiler that
// contracts differently under -fopenmp-simd reads as a tolerance, not a
// failure; the failing seed is printed so a divergence replays exactly.
//
// The generator is deliberately conservative about C undefined behaviour:
// integer expressions stay in a small range (constants, bounded add/sub,
// remainder by non-zero constants), divisions use non-zero constant
// denominators, and unbounded growth only happens in doubles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include <string>
#include <vector>

#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/jit.h"
#include "runtime/threadpool.h"
#include "support/prng.h"

using namespace wj;
using namespace wj::dsl;

namespace {

class Gen {
public:
    explicit Gen(uint64_t seed) : rng_(seed) {}

    /// A random f64 expression of bounded depth over the declared locals.
    ExprPtr f64Expr(int depth) {
        if (depth <= 0 || rng_.nextBelow(4) == 0) {
            return f64Leaf();
        }
        switch (rng_.nextBelow(6)) {
        case 0: return add(f64Expr(depth - 1), f64Expr(depth - 1));
        case 1: return sub(f64Expr(depth - 1), f64Expr(depth - 1));
        case 2: return mul(f64Expr(depth - 1), f64Expr(depth - 1));
        case 3: // division by a constant bounded away from zero
            return divE(f64Expr(depth - 1), cd(1.0 + rng_.nextDouble() * 3.0));
        case 4: return neg(f64Expr(depth - 1));
        default: return cast(Type::f64(), i32Expr(depth - 1));
        }
    }

    /// A random *small* i32 expression (no overflow potential).
    ExprPtr i32Expr(int depth) {
        if (depth <= 0 || rng_.nextBelow(3) == 0) {
            return i32Leaf();
        }
        switch (rng_.nextBelow(3)) {
        case 0: return rem(add(i32Expr(depth - 1), i32Expr(depth - 1)),
                           ci(7 + static_cast<int32_t>(rng_.nextBelow(90))));
        case 1: return sub(i32Leaf(), i32Leaf());
        default: return rem(mul(i32Leaf(), i32Leaf()),
                            ci(11 + static_cast<int32_t>(rng_.nextBelow(80))));
        }
    }

    ExprPtr boolExpr(int depth) {
        switch (rng_.nextBelow(4)) {
        case 0: return lt(f64Expr(depth), f64Expr(depth));
        case 1: return ge(i32Expr(depth), i32Expr(depth));
        case 2: return land(boolShallow(), boolShallow());
        default: return lor(boolShallow(), boolShallow());
        }
    }

    /// A random statement block mutating the accumulator locals.
    Block stmts(int count, int depth) {
        Block b;
        for (int i = 0; i < count; ++i) {
            switch (rng_.nextBelow(5)) {
            case 0:
                b.push_back(assign("acc", f64Expr(depth)));
                break;
            case 1:
                b.push_back(assign("k", i32Expr(depth)));
                break;
            case 2: {
                Block thenB = stmts(1, depth - 1);
                Block elseB = stmts(1, depth - 1);
                b.push_back(ifs(boolExpr(depth - 1), std::move(thenB), std::move(elseB)));
                break;
            }
            case 3: {
                const std::string var = "L" + std::to_string(loopCount_++);
                Block body;
                body.push_back(assign("acc", add(lv("acc"), f64Expr(depth - 1))));
                b.push_back(forRange(var, ci(0),
                                     ci(1 + static_cast<int32_t>(rng_.nextBelow(6))),
                                     std::move(body)));
                break;
            }
            default:
                // Indices wrapped non-negatively: Java's % keeps the sign of
                // the dividend, and translated code has NO bounds checks.
                b.push_back(aset(lv("arr"),
                                 rem(add(rem(i32Expr(depth), ci(16)), ci(16)), ci(16)),
                                 cast(Type::f32(), f64Expr(depth - 1))));
                b.push_back(assign(
                    "acc", add(lv("acc"),
                               cast(Type::f64(),
                                    aget(lv("arr"),
                                         rem(add(rem(lv("k"), ci(16)), ci(16)), ci(16)))))));
                break;
            }
        }
        return b;
    }

private:
    ExprPtr f64Leaf() {
        switch (rng_.nextBelow(3)) {
        case 0: return cd(rng_.nextDouble() * 8.0 - 4.0);
        case 1: return lv("acc");
        default: return lv("x");
        }
    }

    ExprPtr i32Leaf() {
        switch (rng_.nextBelow(3)) {
        case 0: return ci(static_cast<int32_t>(rng_.nextBelow(19)) - 9);
        case 1: return lv("k");
        default: return lv("p");
        }
    }

    ExprPtr boolShallow() {
        return lt(i32Leaf(), i32Leaf());
    }

    SplitMix64 rng_;
    int loopCount_ = 0;
};

/// Builds one random program: double run(int p) with locals acc/x/k and a
/// 16-element float scratch array.
Program randomProgram(uint64_t seed) {
    Gen g(seed);
    ProgramBuilder pb;
    Block body;
    body.push_back(decl("acc", Type::f64(), cd(1.0)));
    body.push_back(decl("x", Type::f64(), cast(Type::f64(), lv("p"))));
    body.push_back(decl("k", Type::i32(), rem(lv("p"), ci(13))));
    body.push_back(decl("arr", Type::array(Type::f32()), newArr(Type::f32(), ci(16))));
    Block rest = g.stmts(8, 3);
    for (auto& s : rest) body.push_back(std::move(s));
    body.push_back(ret(lv("acc")));
    pb.cls("T").method("run", Type::f64()).param("p", Type::i32()).body(std::move(body));
    return pb.build();
}

uint64_t bitsOf(double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/// ULP distance between two doubles: bit patterns mapped onto a monotone
/// integer line (sign-magnitude -> biased), so adjacent representable
/// values differ by exactly 1. NaNs are equal only bitwise.
uint64_t ulpDistance(double a, double b) {
    if (std::isnan(a) || std::isnan(b)) return bitsOf(a) == bitsOf(b) ? 0 : ~0ull;
    uint64_t ua = bitsOf(a);
    uint64_t ub = bitsOf(b);
    ua = (ua >> 63) ? ~ua : (ua | 0x8000000000000000ull);
    ub = (ub >> 63) ? ~ub : (ub | 0x8000000000000000ull);
    return ua > ub ? ua - ub : ub - ua;
}

} // namespace

class RandomDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RandomDifferential, AllExecutionConfigsBitwiseAgree) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x9e3779b9u + 1;
    Program p = randomProgram(seed);
    Interp in(p);
    Value obj = in.instantiate("T", {});
    // Every config passes its options explicitly, so the ambient
    // environment cannot skew one (e.g. make "plain" = "bounds").
    auto jit = [&](const TranslateOptions& opts) {
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)}, opts);
    };
    auto& pool = runtime::ThreadPool::instance();

    JitCode plain = jit({});
    JitCode bounds = jit({.bounds = 2});
    // One translation serves both thread counts: the generated C is
    // independent of the pool width (chunking happens in wjrt_parallel_for).
    JitCode par = jit({.parallel = true});
    JitCode simd = jit({.simd = true});
    JitCode parSimd = jit({.parallel = true, .simd = true});
    // The soa configs exercise the restructured FieldGet/ArraySet paths in
    // the translator; random programs have no class-element arrays, so the
    // option must be a provable no-op on them.
    JitCode soa = jit({.soa = true});
    JitCode parSimdSoa = jit({.parallel = true, .simd = true, .soa = true});

    for (int arg : {0, 1, 7, -5, 123}) {
        const std::vector<Value> args{Value::ofI32(arg)};
        const double refD = in.call(obj, "run", args).asF64();
        const uint64_t ref = bitsOf(refD);

        struct Row {
            const char* config;
            double v;
            bool simdRow;
        };
        std::vector<Row> rows;
        rows.push_back({"jit", plain.invokeWith(args).asF64(), false});
        rows.push_back({"jit+bounds=all", bounds.invokeWith(args).asF64(), false});
        pool.setThreads(1);
        rows.push_back({"jit+parallel@1", par.invokeWith(args).asF64(), false});
        pool.setThreads(4);
        rows.push_back({"jit+parallel@4", par.invokeWith(args).asF64(), false});
        rows.push_back({"jit+simd", simd.invokeWith(args).asF64(), true});
        rows.push_back({"jit+parallel+simd@4", parSimd.invokeWith(args).asF64(), true});
        rows.push_back({"jit+soa", soa.invokeWith(args).asF64(), false});
        rows.push_back({"jit+parallel+simd+soa@4", parSimdSoa.invokeWith(args).asF64(), true});
        for (const Row& r : rows) {
            if (r.simdRow) {
                // Expected bitwise too, but tolerated to 1 ulp (see the
                // file header); exact-type payloads inside the f64 differ
                // by 0 or the ulpDistance is already nonzero.
                EXPECT_LE(ulpDistance(refD, r.v), 1u)
                    << "config=" << r.config << " diverged from the interpreter: seed="
                    << seed << " arg=" << arg << " (replay: RandomDifferential sweep index "
                    << GetParam() << ")";
            } else {
                EXPECT_EQ(ref, bitsOf(r.v))
                    << "config=" << r.config << " diverged from the interpreter: seed="
                    << seed << " arg=" << arg << " (replay: RandomDifferential sweep index "
                    << GetParam() << ")";
            }
        }
    }
}

// 200+ programs x 8 jit configs x 5 arguments, per the tracing-PR and
// layout-PR acceptance criteria (9 configurations counting the interpreter
// reference row).
// criteria. Each sweep index is its own ctest entry (gtest_discover_tests),
// so the three compiles per program run under per-test timeouts.
INSTANTIATE_TEST_SUITE_P(Sweep, RandomDifferential, ::testing::Range(0, 200));

// ------------------------------------------------- reduction-heavy family
//
// Programs whose loops are all recognized reductions (`acc = acc op f(i)`
// over +, *, min, max on f64/i64/f32 accumulators). Trip counts stay at or
// below 48 — within the fixed WJRT_REDUCE_MAX_CHUNKS grid every chunk is a
// single iteration, so the ordered combine IS the serial fold and the
// bitwise interp-vs-jit contract extends to the parallel configs.

namespace {

/// One random reduction program: double run(int p) folding four
/// accumulators (sum, product, i64 sum, f32 min) over seeded trip counts.
Program reductionProgram(uint64_t seed) {
    SplitMix64 rng(seed);
    const int32_t tSum = 1 + static_cast<int32_t>(rng.nextBelow(48));
    const int32_t tProd = 1 + static_cast<int32_t>(rng.nextBelow(48));
    const int32_t tLong = 1 + static_cast<int32_t>(rng.nextBelow(48));
    const int32_t tMin = 1 + static_cast<int32_t>(rng.nextBelow(48));
    const double w = 0.25 + rng.nextDouble();
    // Exactly representable factor near 1: product stays finite and the
    // mul-by-identity seeding cannot flush anything denormal.
    const double q = 1.0 + static_cast<double>(rng.nextBelow(16)) / 1024.0;
    const int32_t mMod = 3 + static_cast<int32_t>(rng.nextBelow(9));

    // arr[j] = f32(j * w + p), filled by a proven parallel-for; the min
    // reduction then scans it through the same index expression twice
    // (textually equal sides, the recognized guarded-update form).
    auto scan = [] { return aget(lv("arr"), rem(lv("i"), ci(16))); };

    Block body;
    body.push_back(decl("arr", Type::array(Type::f32()), newArr(Type::f32(), ci(16))));
    body.push_back(forRange(
        "j", ci(0), ci(16),
        blk(aset(lv("arr"), lv("j"),
                 cast(Type::f32(), add(mul(cast(Type::f64(), lv("j")), cd(w)),
                                       cast(Type::f64(), lv("p"))))))));
    body.push_back(decl("s", Type::f64(), cd(0.0)));
    body.push_back(forRange(
        "i", ci(0), ci(tSum),
        blk(assign("s", add(lv("s"),
                            mul(cast(Type::f64(), aget(lv("arr"), rem(lv("i"), ci(16)))),
                                cd(w)))))));
    body.push_back(decl("prod", Type::f64(), cd(1.0)));
    body.push_back(
        forRange("i", ci(0), ci(tProd), blk(assign("prod", mul(cd(q), lv("prod"))))));
    body.push_back(decl("m", Type::i64(), cast(Type::i64(), lv("p"))));
    body.push_back(forRange(
        "i", ci(0), ci(tLong),
        blk(assign("m", add(lv("m"), cast(Type::i64(), rem(lv("i"), ci(mMod))))))));
    body.push_back(decl("lo", Type::f32(), cf(1e30f)));
    body.push_back(forRange("i", ci(0), ci(tMin),
                            blk(ifs(lt(scan(), lv("lo")), blk(assign("lo", scan()))))));
    body.push_back(ret(add(add(lv("s"), lv("prod")),
                           add(cast(Type::f64(), lv("m")), cast(Type::f64(), lv("lo"))))));
    ProgramBuilder pb;
    pb.cls("R").method("run", Type::f64()).param("p", Type::i32()).body(std::move(body));
    return pb.build();
}

} // namespace

class ReductionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ReductionDifferential, ParallelReduceConfigsBitwiseAgree) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x51c64b6u + 3;
    Program p = reductionProgram(seed);
    Interp in(p);
    Value obj = in.instantiate("R", {});

    JitCode plain = WootinJ::jit(p, obj, "run", {Value::ofI32(0)}, TranslateOptions{});
    JitCode par = WootinJ::jit(p, obj, "run", {Value::ofI32(0)}, {.parallel = true});
    EXPECT_GE(par.reduceLoops(), 4) << "every accumulator loop must outline";
    JitCode parSimd =
        WootinJ::jit(p, obj, "run", {Value::ofI32(0)}, {.parallel = true, .simd = true});

    for (int arg : {0, 2, -7, 55}) {
        const std::vector<Value> args{Value::ofI32(arg)};
        const double refD = in.call(obj, "run", args).asF64();
        const uint64_t ref = bitsOf(refD);
        EXPECT_EQ(ref, bitsOf(plain.invokeWith(args).asF64()))
            << "jit diverged: seed=" << seed << " arg=" << arg;
        for (int t : {1, 4, 8}) {
            runtime::ThreadPool::instance().setThreads(t);
            EXPECT_EQ(ref, bitsOf(par.invokeWith(args).asF64()))
                << "jit+parallel@" << t << " diverged: seed=" << seed << " arg=" << arg;
            // simd composed on top: exact reduction clauses (i64 +, f32
            // min) stay bitwise; the 1-ulp ceiling covers the rest.
            EXPECT_LE(ulpDistance(refD, parSimd.invokeWith(args).asF64()), 1u)
                << "jit+parallel+simd@" << t << " diverged: seed=" << seed
                << " arg=" << arg;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ReduceSweep, ReductionDifferential, ::testing::Range(0, 24));

// The vectorization-legality prover (proveVectors, src/analysis/) and the
// simd codegen path it drives (TranslateOptions::simd): unit-stride/alias/effect audits on every
// innermost counted loop, `#pragma omp simd` emission with restrict-hoisted
// element pointers, byte-range overlap guards with a scalar fallback, and
// the determinism contract — simd output must stay bitwise-equal to
// the scalar translation (no float reassociation without an exact-operator
// reduction clause).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "cg/cg_lib.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "runtime/threadpool.h"
#include "stencil/stencil_lib.h"
#include "trace/metrics.h"

using namespace wj;
using namespace wj::dsl;

namespace {

bool bitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool vectorReportHas(const analysis::Result& r, const std::string& needle) {
    for (const auto& line : r.vectorReport) {
        if (line.find(needle) != std::string::npos) return true;
    }
    return false;
}

/// `double run(int n)` around the given body; entry context is T.run(192).
Program oneMethodProgram(Block body) {
    ProgramBuilder pb;
    pb.cls("T").method("run", Type::f64()).param("n", Type::i32()).body(std::move(body));
    return pb.build();
}

constexpr int kProbeN = 192;

analysis::Result analyzeRun(const Program& p) {
    Interp in(p);
    Value obj = in.instantiate("T", {});
    return analysis::analyzeEntry(p, obj, "run", {Value::ofI32(kProbeN)});
}

/// saxpy over two locally allocated arrays + an f64 checksum reduction:
/// the fill and update loops must prove Vectorizable, the sum stays on the
/// exact (serial) accumulator path.
Program saxpyProgram() {
    return oneMethodProgram(blk(
        decl("x", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        decl("y", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("x"), lv("i"),
                          cast(Type::f32(), mul(cast(Type::f64(), lv("i")), cd(0.25)))),
                     aset(lv("y"), lv("i"),
                          cast(Type::f32(), mul(cast(Type::f64(), lv("i")), cd(-0.5)))))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("y"), lv("i"),
                          add(aget(lv("y"), lv("i")), mul(cf(2.0f), aget(lv("x"), lv("i"))))))),
        decl("s", Type::f64(), cd(0.0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("s", add(lv("s"), cast(Type::f64(), aget(lv("y"), lv("i"))))))),
        ret(lv("s"))));
}

/// A `copy(dst, src)` helper called once with distinct arrays and once
/// aliased: the cross-context join must weaken the verdict to guarded.
Program aliasedCopyProgram() {
    ProgramBuilder pb;
    auto& c = pb.cls("T");
    c.method("shift", Type::voidTy())
        .param("dst", Type::array(Type::f32()))
        .param("src", Type::array(Type::f32()))
        .param("n", Type::i32())
        .body(blk(forRange("i", ci(0), lv("n"),
                           blk(aset(lv("dst"), lv("i"),
                                    mul(cf(0.5f), aget(lv("src"), lv("i"))))))));
    c.method("run", Type::f64())
        .param("n", Type::i32())
        .body(blk(
            decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
            decl("b", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
            forRange("i", ci(0), lv("n"),
                     blk(aset(lv("a"), lv("i"), cast(Type::f32(), lv("i"))))),
            exprS(call(self(), "shift", lv("b"), lv("a"), lv("n"))),  // disjoint payloads
            exprS(call(self(), "shift", lv("a"), lv("a"), lv("n"))),  // aliased payloads
            ret(add(cast(Type::f64(), aget(lv("a"), sub(lv("n"), ci(1)))),
                    cast(Type::f64(), aget(lv("b"), sub(lv("n"), ci(1))))))));
    return pb.build();
}

} // namespace

// ------------------------------------------------------------ vector prover

TEST(VectorProver, UnitStrideElementwiseProvesVectorizable) {
    auto res = analyzeRun(saxpyProgram());
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (i): vectorizable"))
        << "fill/update loops must prove";
    EXPECT_TRUE(vectorReportHas(res, "unit-stride accesses; no cross-lane dependence"));
}

TEST(VectorProver, StridedAccessStaysScalar) {
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), mul(ci(2), lv("n")))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("a"), mul(ci(2), lv("i")), cast(Type::f32(), lv("i"))))),
        ret(cast(Type::f64(), aget(lv("a"), ci(0)))))));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (i): scalar"));
    EXPECT_TRUE(vectorReportHas(res, "not unit-stride"));
    EXPECT_TRUE(vectorReportHas(res, "(stride 2)"));
}

TEST(VectorProver, ExpIntrinsicHasNoBitExactVectorVariant) {
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("a", Type::array(Type::f64()), newArr(Type::f64(), lv("n"))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("a"), lv("i"),
                          intr(Intrinsic::MathExpF64, cast(Type::f64(), lv("i")))))),
        ret(aget(lv("a"), ci(0))))));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (i): scalar"));
    EXPECT_TRUE(vectorReportHas(res, "no bit-exact vector variant"));
}

TEST(VectorProver, AliasedCallContextWeakensToGuarded) {
    Program p = aliasedCopyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    auto res = analysis::analyzeEntry(p, obj, "run", {Value::ofI32(kProbeN)});
    EXPECT_TRUE(vectorReportHas(res, "T.shift: for (i): vectorizable (guarded)"));
    EXPECT_TRUE(vectorReportHas(res, "'dst'/'src'"));
    EXPECT_TRUE(vectorReportHas(res, "runtime overlap guard"));
}

TEST(VectorProver, ReductionExactnessSplitsByOperatorAndType) {
    // i64 sum wraps mod 2^64 — associative, so the lanes may carry a simd
    // reduction clause; an f64 sum vectorizes elementwise but its
    // accumulator must stay on the bitwise chunk-serial path.
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("c", Type::i64(), cl(0)),
        decl("s", Type::f64(), cd(0.0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("c", add(lv("c"), cast(Type::i64(), lv("i")))))),
        forRange("j", ci(0), lv("n"),
                 blk(assign("s", add(lv("s"), cast(Type::f64(), lv("j")))))),
        ret(add(cast(Type::f64(), lv("c")), lv("s"))))));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (i): vectorizable"));
    EXPECT_TRUE(vectorReportHas(res, "exact under reassociation (simd reduction clause)"));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (j): vectorizable"));
    EXPECT_TRUE(vectorReportHas(res, "reassociation is inexact; accumulator stays chunk-serial"));
}

// ------------------------------------------------------------ simd codegen

TEST(SimdCodegen, EmitsPragmaAndRestrictOnlyUnderWjSimd) {
    Program p = saxpyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(kProbeN)};
    std::string scalarSrc;
    {
        Translation t = translate(p, obj, "run", args, {.simd = false});
        EXPECT_EQ(0, t.vectorLoops);
        EXPECT_EQ(std::string::npos, t.cSource.find("#pragma omp simd"));
        scalarSrc = t.cSource;
    }
    {
        Translation t = translate(p, obj, "run", args, {.simd = true});
        EXPECT_GE(t.vectorLoops, 2);  // fill + saxpy update
        EXPECT_NE(std::string::npos, t.cSource.find("#pragma omp simd"));
        EXPECT_NE(std::string::npos, t.cSource.find("restrict"));
        // The f64 sum may vectorize elementwise but must NOT take a lane
        // reduction clause (reassociation would change the bits).
        EXPECT_EQ(std::string::npos, t.cSource.find("reduction("));
        // The pool width is a pure runtime decision: the generated C (and
        // so the compilation cache key) must not depend on it.
        runtime::ThreadPool::instance().setThreads(8);
        Translation t8 = translate(p, obj, "run", args, {.simd = true});
        EXPECT_EQ(t.cSource, t8.cSource);
        EXPECT_NE(scalarSrc, t.cSource);
    }
}

TEST(SimdCodegen, ExactReductionCarriesClause) {
    Program p = oneMethodProgram(blk(
        decl("c", Type::i64(), cl(0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("c", add(lv("c"), cast(Type::i64(), lv("i")))))),
        ret(cast(Type::f64(), lv("c")))));
    Interp in(p);
    Value obj = in.instantiate("T", {});
    Translation t = translate(p, obj, "run", {Value::ofI32(kProbeN)}, {.simd = true});
    EXPECT_GE(t.vectorLoops, 1);
    EXPECT_NE(std::string::npos, t.cSource.find("reduction(+:v_c)"));

    // Composed with the parallel outliner, the clause rides the simd loop
    // inside the reduce chunk function, over the chunk's own accumulator.
    Translation pt =
        translate(p, obj, "run", {Value::ofI32(kProbeN)}, {.parallel = true, .simd = true});
    EXPECT_EQ(1, pt.reduceLoops);
    const size_t body = pt.cSource.find(
        "static void wj_rb0(int64_t wj_lo, int64_t wj_hi, void* wj_ctx, void* wj_part) {\n");
    ASSERT_NE(std::string::npos, body) << pt.cSource;
    const size_t end = pt.cSource.find("\n}\n", body);
    const size_t clause = pt.cSource.find("#pragma omp simd reduction(+:v_c)", body);
    EXPECT_NE(std::string::npos, clause);
    EXPECT_LT(clause, end) << pt.cSource;
}

TEST(SimdCodegen, GuardedLoopKeepsScalarFallback) {
    Program p = aliasedCopyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    Translation t = translate(p, obj, "run", {Value::ofI32(kProbeN)}, {.simd = true});
    EXPECT_NE(std::string::npos, t.cSource.find("wjrt_ranges_disjoint"));
    EXPECT_NE(std::string::npos, t.cSource.find("wjrt_simd_fallback"));
    EXPECT_NE(std::string::npos, t.cSource.find("#pragma omp simd"));
}

// --------------------------------------------------------------- end to end

TEST(SimdEndToEnd, BitwiseEqualToScalarAndInterp) {
    Program p = saxpyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(kProbeN)};
    const double ref = in.call(obj, "run", args).asF64();
    JitCode scalar = WootinJ::jit(p, obj, "run", args, {.simd = false});
    JitCode simd = WootinJ::jit(p, obj, "run", args, {.simd = true});
    const double a = scalar.invokeWith(args).asF64();
    const double b = simd.invokeWith(args).asF64();
    EXPECT_TRUE(bitEq(ref, a));
    EXPECT_TRUE(bitEq(a, b)) << "simd must not change a single bit";
}

TEST(SimdEndToEnd, AliasedCallTakesScalarFallbackAndStaysCorrect) {
    Program p = aliasedCopyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(kProbeN)};
    const double ref = in.call(obj, "run", args).asF64();
    auto& fallbacks = trace::Metrics::instance().counter("simd.guard.fallbacks");
    const int64_t before = fallbacks.value();
    JitCode code = WootinJ::jit(p, obj, "run", args, {.simd = true});
    const double got = code.invokeWith(args).asF64();
    EXPECT_TRUE(bitEq(ref, got));
    // shift(a, a) overlaps byte ranges -> the guard must have sent exactly
    // the aliased call down the scalar branch (shift(b, a) stays simd).
    EXPECT_EQ(before + 1, fallbacks.value());
}

TEST(SimdEndToEnd, ComposesWithParallelBitwiseAcrossThreadCounts) {
    Program p = saxpyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(4096)};
    const double serial =
        WootinJ::jit(p, obj, "run", args, TranslateOptions{}).invokeWith(args).asF64();
    JitCode both = WootinJ::jit(p, obj, "run", args, {.parallel = true, .simd = true});
    EXPECT_NE(std::string::npos, both.generatedC().find("#pragma omp simd"));
    EXPECT_NE(std::string::npos, both.generatedC().find("wjrt_parallel_for"));
    double first = 0;
    bool haveFirst = false;
    for (int t : {1, 2, 8}) {
        runtime::ThreadPool::instance().setThreads(t);
        const double v = both.invokeWith(args).asF64();
        if (!haveFirst) {
            haveFirst = true;
            first = v;
        }
        EXPECT_TRUE(bitEq(first, v)) << "threads=" << t;
    }
    // 4096 > WJRT_REDUCE_MAX_CHUNKS regroups the f64 sum, so compare the
    // simd+parallel result against serial with a tight tolerance only.
    EXPECT_NEAR(serial, first, std::abs(serial) * 1e-12);
}

// ---------------------------------------------------------------------------
// The acceptance bar: the paper's evaluation kernels and the CG library
// prove with ZERO annotations. Matmul's ikj inner loop is the guarded case
// (`cr[i*n+j] += av*br[k*n+j]` needs the br/cr range guard), the grid fill
// walks an array reached through `this.cur`, and the CG axpy/dot loops are
// the textbook unit-stride forms.

TEST(KernelVectorization, DiffusionGridLoopsProve) {
    Program prog = stencil::buildProgram();
    Interp in(prog);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    Value runner = stencil::makeCpuRunner(in, 8, 8, 8, coeffs, 7);
    auto res = analysis::analyzeEntry(prog, runner, "run", {Value::ofI32(1)});
    EXPECT_TRUE(vectorReportHas(res, "FloatGridDblB.fill: for (i): vectorizable"));
    EXPECT_TRUE(vectorReportHas(res, "FloatGridDblB.checksum: for (i): vectorizable"));
    // The 7-point sweep dispatches through StencilSolver.solve per cell —
    // the refusal must name that call, not a generic "unsupported".
    EXPECT_TRUE(vectorReportHas(res, "StencilCPU3DDblB.step: for (x): scalar"));
    EXPECT_TRUE(vectorReportHas(res, "calls 'get'"));
}

TEST(KernelVectorization, MatmulInnerLoopProvesWithBrCrGuard) {
    Program prog = matmul::buildProgram();
    Interp in(prog);
    Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
    auto res =
        analysis::analyzeEntry(prog, app, "run", {Value::ofI32(8), Value::ofI32(7)});
    EXPECT_TRUE(
        vectorReportHas(res, "OptimizedCalculator.multiplyAcc: for (j): vectorizable (guarded)"));
    EXPECT_TRUE(vectorReportHas(res, "'br'/'cr'"));
    EXPECT_TRUE(vectorReportHas(res, "SimpleMatrix.fillGlobal: for (j): vectorizable"));
}

TEST(KernelVectorization, CgAxpyAndDotLoopsProve) {
    Program prog = cg::buildProgram();
    Interp in(prog);
    Value solver = cg::makeCpuSolver(in);
    auto res = analysis::analyzeEntry(prog, solver, "run",
                                      {Value::ofI32(64), Value::ofI32(3), Value::ofI32(5)});
    EXPECT_TRUE(vectorReportHas(res, "LocalDot.dot: for (i): vectorizable"));
    int vectorizable = 0;
    for (const auto& line : res.vectorReport) {
        if (line.find("CGSolver.run") != std::string::npos &&
            line.find(": vectorizable") != std::string::npos) {
            ++vectorizable;
        }
    }
    EXPECT_GE(vectorizable, 3) << "CG axpy/update loops should prove";
}

TEST(KernelVectorization, KernelsStayBitwiseUnderSimd) {
    // diffusion: 8^3 grid, 3 steps; matmul: 8x8, seed 7 — checksums must be
    // bit-identical with and without simd (the determinism contract on
    // the real kernels, not just synthetic loops).
    {
        Program prog = stencil::buildProgram();
        Interp in(prog);
        const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
        Value runner = stencil::makeCpuRunner(in, 8, 8, 8, coeffs, 7);
        const std::vector<Value> args = {Value::ofI32(3)};
        JitCode scalar = WootinJ::jit(prog, runner, "run", args, TranslateOptions{});
        const double ref = scalar.invokeWith(args).asF64();
        JitCode vec = WootinJ::jit(prog, runner, "run", args, {.simd = true});
        EXPECT_NE(std::string::npos, vec.generatedC().find("#pragma omp simd"));
        EXPECT_TRUE(bitEq(ref, vec.invokeWith(args).asF64()));
    }
    {
        Program prog = matmul::buildProgram();
        Interp in(prog);
        Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
        const std::vector<Value> args = {Value::ofI32(8), Value::ofI32(7)};
        JitCode scalar = WootinJ::jit(prog, app, "run", args, TranslateOptions{});
        const double ref = scalar.invokeWith(args).asF64();
        JitCode vec = WootinJ::jit(prog, app, "run", args, {.simd = true});
        EXPECT_NE(std::string::npos, vec.generatedC().find("wjrt_ranges_disjoint"));
        EXPECT_TRUE(bitEq(ref, vec.invokeWith(args).asF64()));
    }
}

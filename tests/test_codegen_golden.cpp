// Golden-snapshot tests for the translator's C output on the two paper
// kernels (Section 4.1 diffusion, Section 4.2 matmul). The generated C IS
// the product the paper evaluates — a silent change to devirtualization,
// object inlining, guard emission, or runtime-call lowering shifts every
// measurement, so these tests pin the exact bytes. One more snapshot pins
// the prover reports behind those translations (ProverReports).
//
// The snapshots live in tests/golden/*.golden (checked in). On mismatch the
// test prints the first diverging line with context. To refresh after an
// INTENTIONAL codegen change, run tests/update_goldens.sh (or set
// WJ_UPDATE_GOLDEN=1 around this binary) and review the diff like any other
// source change.
//
// translate() is called directly — no external compiler, no dlopen — so
// these tests are fast and hermetic. Each test passes its TranslateOptions
// explicitly because they legitimately change the output (that is the point
// of the guarded/parallel/simd/soa variants below); the environment plays
// no part except in the TranslateOptionsEnv tests of its parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/codegen.h"
#include "matmul/matmul_lib.h"
#include "stencil/stencil_lib.h"
#include "support/env.h"

using namespace wj;
using namespace wj::dsl;

namespace {

// WJ_GOLDEN_DIR is a compile definition pointing at tests/golden in the
// SOURCE tree, so update mode rewrites the checked-in files directly.
std::string goldenPath(const std::string& name) {
    return std::string(WJ_GOLDEN_DIR) + "/" + name;
}

bool updateMode() { return envFlag("WJ_UPDATE_GOLDEN", false); }

bool slurp(const std::string& path, std::string& out) {
    std::ifstream f(path, std::ios::binary);
    if (!f) return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return true;
}

/// Line number (1-based) and text of the first line where a and b differ.
struct FirstDiff {
    int line = 0;
    std::string expected, actual;
};

FirstDiff firstDiff(const std::string& expected, const std::string& actual) {
    std::istringstream ea(expected), aa(actual);
    std::string el, al;
    FirstDiff d;
    for (int line = 1;; ++line) {
        const bool he = static_cast<bool>(std::getline(ea, el));
        const bool ha = static_cast<bool>(std::getline(aa, al));
        if (!he && !ha) break;
        if (el != al || he != ha) {
            d.line = line;
            d.expected = he ? el : "<end of file>";
            d.actual = ha ? al : "<end of file>";
            break;
        }
    }
    return d;
}

void checkGolden(const std::string& name, const std::string& actual) {
    const std::string path = goldenPath(name);
    if (updateMode()) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f.good()) << "cannot write " << path;
        f << actual;
        std::fprintf(stderr, "[golden] updated %s (%zu bytes)\n", path.c_str(), actual.size());
        return;
    }
    std::string expected;
    ASSERT_TRUE(slurp(path, expected))
        << "missing golden file " << path
        << " — run tests/update_goldens.sh to create it, then check it in";
    if (expected == actual) return;
    const FirstDiff d = firstDiff(expected, actual);
    FAIL() << "generated C diverged from " << path << " at line " << d.line << "\n"
           << "  golden: " << d.expected << "\n"
           << "  actual: " << d.actual << "\n"
           << "If the codegen change is intentional, refresh with tests/update_goldens.sh "
           << "and review the golden diff.";
}

/// One golden jit() entry: `run` on a concrete receiver graph with fixed
/// arguments, the starting point of both translate() and analyzeEntry().
struct Entry {
    const Program& prog;
    Value receiver;
    std::vector<Value> args;
};

Entry diffusionEntry() {
    static Program prog = stencil::buildProgram();
    Interp in(prog);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    return {prog, stencil::makeCpuRunner(in, 8, 8, 8, coeffs, 7), {Value::ofI32(1)}};
}

Entry matmulEntry() {
    static Program prog = matmul::buildProgram();
    Interp in(prog);
    return {prog, matmul::makeCpuApp(in, matmul::Calc::Optimized),
            {Value::ofI32(8), Value::ofI32(7)}};
}

/// The cell-chain workload over Cell[] buffers (see stencil_lib): the
/// canonical subject of the proveLayout AoS→SoA split.
Entry cellsEntry() {
    static Program prog = stencil::buildProgram();
    Interp in(prog);
    return {prog, stencil::makeCellRunner(in, 64, 0.25f, 0.5f, 11), {Value::ofI32(2)}};
}

/// Array fill + dot product — the CG reduction kernel in miniature. Under
/// the parallel option the fill outlines through wjrt_parallel_for and the
/// dot through wjrt_parallel_reduce (chunk fn + identity seeding + ordered
/// combine), which is exactly what its snapshot pins.
Entry dotEntry() {
    static Program prog = [] {
        ProgramBuilder pb;
        pb.cls("Dot")
            .method("run", Type::f64())
            .param("n", Type::i32())
            .body(blk(
                decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
                forRange("i", ci(0), lv("n"),
                         blk(aset(lv("a"), lv("i"),
                                  cast(Type::f32(),
                                       mul(cast(Type::f64(), lv("i")), cd(0.125)))))),
                decl("s", Type::f64(), cd(0.0)),
                forRange("i", ci(0), lv("n"),
                         blk(assign("s",
                                    add(lv("s"),
                                        mul(cast(Type::f64(), aget(lv("a"), lv("i"))),
                                            cast(Type::f64(), aget(lv("a"), lv("i")))))))),
                ret(lv("s"))));
        return pb.build();
    }();
    Interp in(prog);
    return {prog, in.instantiate("Dot", {}), {Value::ofI32(100)}};
}

Translation translateEntry(const Entry& e, const TranslateOptions& opts) {
    return translate(e.prog, e.receiver, "run", e.args, opts);
}

Translation translateDiffusion(const TranslateOptions& opts = {}) {
    return translateEntry(diffusionEntry(), opts);
}
Translation translateMatmul(const TranslateOptions& opts = {}) {
    return translateEntry(matmulEntry(), opts);
}
Translation translateCells(const TranslateOptions& opts = {}) {
    return translateEntry(cellsEntry(), opts);
}
Translation translateDot(const TranslateOptions& opts = {}) {
    return translateEntry(dotEntry(), opts);
}

/// The prover's parallel, simd and layout tables for one entry, one line
/// each with the prefix `wjc lint` prints.
std::string proverReports(const Entry& e, const TranslateOptions& opts) {
    const analysis::Result r = analysis::analyzeEntry(e.prog, e.receiver, "run", e.args, opts);
    std::string out;
    for (const auto& line : r.parallelReport) out += "parallel: " + line + "\n";
    for (const auto& line : r.vectorReport) out += "simd: " + line + "\n";
    for (const auto& line : r.layoutReport) out += "layout: " + line + "\n";
    return out;
}

} // namespace

TEST(CodegenGolden, Diffusion3DCpu) {
    checkGolden("diffusion3d_cpu.c.golden", translateDiffusion().cSource);
}

TEST(CodegenGolden, MatmulCpu) {
    checkGolden("matmul_cpu.c.golden", translateMatmul().cSource);
}

// The bounds=2 ("all") variant pins guard emission (wj_chk on every access).
TEST(CodegenGolden, Diffusion3DCpuBoundsAll) {
    checkGolden("diffusion3d_cpu_bounds.c.golden", translateDiffusion({.bounds = 2}).cSource);
}

// The parallel variant pins parallel-for outlining and the guarded
// dispatch (wjrt_parallel_for + wjrt_guard_fallback serial else-branch).
TEST(CodegenGolden, MatmulCpuParallel) {
    checkGolden("matmul_cpu_parallel.c.golden", translateMatmul({.parallel = true}).cSource);
}

// The parallel dot-product variant pins the ParallelReduce outlining:
// per-chunk partial record, exact-identity seeding, fixed chunk grid, and
// the ordered combine loop.
TEST(CodegenGolden, DotProductParallelReduce) {
    checkGolden("cg_dot_parallel.c.golden", translateDot({.parallel = true}).cSource);
}

// The simd variants pin the vectorized emission: `#pragma omp simd`
// on every proveVectors-cleared loop, restrict-qualified element-pointer
// hoists, wjrt_ranges_disjoint guards with the scalar else-branch, and —
// for the dot product — the ABSENCE of a reduction clause on the inexact
// f64 accumulator.
TEST(CodegenGolden, Diffusion3DCpuSimd) {
    checkGolden("diffusion3d_cpu_simd.c.golden", translateDiffusion({.simd = true}).cSource);
}

TEST(CodegenGolden, MatmulCpuSimd) {
    checkGolden("matmul_cpu_simd.c.golden", translateMatmul({.simd = true}).cSource);
}

TEST(CodegenGolden, DotProductSimd) {
    checkGolden("cg_dot_simd.c.golden", translateDot({.simd = true}).cSource);
}

// The soa variants pin the AoS→SoA storage split on the cell chain:
// wjrt_alloc_soa allocation, per-field region arithmetic, the per-field
// scatter on element stores, and the SIMD composition (restrict-hoisted
// per-field lane pointers under `#pragma omp simd`).
TEST(CodegenGolden, CellsStencilSoa) {
    checkGolden("cells_stencil_soa.c.golden",
                translateCells({.simd = true, .soa = true}).cSource);
}

// The parallel+simd variants pin the two codegens composed, as the
// benchmark runs them: the simd chunk loop inside wj_pfb, the range guard
// inside the chunk and the pointer guard outside it (matmul), the reduce
// chunk without a clause on the inexact f64 sum (dot), and SoA lane
// pointers hoisted in an outlined chunk (cells).
TEST(CodegenGolden, MatmulCpuParallelSimd) {
    checkGolden("matmul_cpu_parallel_simd.c.golden",
                translateMatmul({.parallel = true, .simd = true}).cSource);
}

TEST(CodegenGolden, DotProductParallelSimd) {
    checkGolden("cg_dot_parallel_simd.c.golden",
                translateDot({.parallel = true, .simd = true}).cSource);
}

TEST(CodegenGolden, CellsStencilParallelSimdSoa) {
    checkGolden("cells_stencil_parallel_simd_soa.c.golden",
                translateCells({.parallel = true, .simd = true, .soa = true}).cSource);
}

// The prover's report text on the four entries, under the options of the
// parallel+simd snapshots: pins the verdict join across call contexts and
// the report order, which the substring checks elsewhere do not.
TEST(CodegenGolden, ProverReports) {
    const TranslateOptions ps{.parallel = true, .simd = true};
    const TranslateOptions pss{.parallel = true, .simd = true, .soa = true};
    checkGolden("prover_reports.txt.golden",
                "== diffusion\n" + proverReports(diffusionEntry(), ps) + "== matmul\n" +
                    proverReports(matmulEntry(), ps) + "== dot\n" +
                    proverReports(dotEntry(), ps) + "== cells\n" +
                    proverReports(cellsEntry(), pss));
}

// A prim-only unit under soa must be byte-identical to the translation
// without it: the layout pass only rewrites class-element arrays.
TEST(CodegenGolden, DotProductSoaIsANoOpOnPrimArrays) {
    checkGolden("cg_dot_simd.c.golden", translateDot({.simd = true, .soa = true}).cSource);
}

// Determinism prerequisite: two translations of the same unit in one
// process must be byte-identical, otherwise golden comparison is noise.
TEST(CodegenGolden, TranslationIsDeterministic) {
    EXPECT_EQ(translateDiffusion().cSource, translateDiffusion().cSource);
    EXPECT_EQ(translateMatmul().cSource, translateMatmul().cSource);
    const TranslateOptions simd{.simd = true};
    EXPECT_EQ(translateDiffusion(simd).cSource, translateDiffusion(simd).cSource);
    EXPECT_EQ(translateMatmul(simd).cSource, translateMatmul(simd).cSource);
    EXPECT_EQ(translateDot(simd).cSource, translateDot(simd).cSource);
    const TranslateOptions soa{.simd = true, .soa = true};
    EXPECT_EQ(translateCells(soa).cSource, translateCells(soa).cSource);
}

// ------------------------------------------------ environment defaults

namespace {

/// Sets (or, for nullptr, unsets) every translation switch to `value` and
/// returns what the default-options translate() makes of matmul and the
/// cell chain: the environment is only a default, read at the call.
std::string translateUnderEnv(const char* value) {
    for (const char* name : {"WJ_BOUNDS", "WJ_PARALLEL", "WJ_SIMD", "WJ_SOA"}) {
        if (value) setenv(name, value, 1);
        else unsetenv(name);
    }
    static Program mm = matmul::buildProgram();
    static Program st = stencil::buildProgram();
    Interp mi(mm), si(st);
    Value app = matmul::makeCpuApp(mi, matmul::Calc::Optimized);
    Value cells = stencil::makeCellRunner(si, 64, 0.25f, 0.5f, 11);
    return translate(mm, app, "run", {Value::ofI32(8), Value::ofI32(7)}).cSource +
           translate(st, cells, "run", {Value::ofI32(2)}).cSource;
}

} // namespace

// The switches share the grammar of WJ_CACHE and WJ_JIT_FALLBACK: "0",
// "off", "false" and "no" all mean off, so each must translate exactly like
// an unset environment. "1" must not, or the comparison proves nothing.
TEST(TranslateOptionsEnv, OffWordsTranslateLikeUnset) {
    const std::string unset = translateUnderEnv(nullptr);
    for (const char* off : {"0", "off", "false", "no"}) {
        EXPECT_EQ(unset, translateUnderEnv(off)) << "switches set to '" << off << "'";
    }
    EXPECT_NE(unset, translateUnderEnv("1"));
    translateUnderEnv(nullptr);
}

TEST(TranslateOptionsEnv, FromEnvParsesEachSwitch) {
    const char* names[] = {"WJ_BOUNDS", "WJ_PARALLEL", "WJ_SIMD", "WJ_SOA"};
    for (const char* name : names) unsetenv(name);
    TranslateOptions o = TranslateOptions::fromEnv();
    EXPECT_EQ(0, o.bounds);
    EXPECT_FALSE(o.parallel || o.simd || o.soa);
    for (const char* name : names) setenv(name, "yes", 1);
    o = TranslateOptions::fromEnv();
    EXPECT_EQ(1, o.bounds);
    EXPECT_TRUE(o.parallel && o.simd && o.soa);
    for (const char* all : {"all", "2"}) {
        setenv("WJ_BOUNDS", all, 1);
        EXPECT_EQ(2, TranslateOptions::fromEnv().bounds) << "WJ_BOUNDS=" << all;
    }
    setenv("WJ_BOUNDS", "off", 1);
    EXPECT_EQ(0, TranslateOptions::fromEnv().bounds);
    for (const char* name : names) unsetenv(name);
}

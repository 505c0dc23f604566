// The proveLayout AoS→SoA pass (src/analysis/layout.*) and the soa
// codegen path it drives (TranslateOptions::soa): verdict oracles for every escape/identity rule
// (each Boxed reason must be actionable), the lint-report presentation,
// the vector-prover flip (struct-strided ScalarOnly under AoS becomes
// unit-stride Vectorizable under --soa), and the determinism contract on
// the cell-chain workload — every soa/simd/parallel option combination
// must stay bitwise-equal to the serial interpreter.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/jit.h"
#include "runtime/threadpool.h"
#include "stencil/stencil_lib.h"

using namespace wj;
using namespace wj::dsl;

namespace {

bool bitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool reportHas(const std::vector<std::string>& report, const std::string& needle) {
    for (const auto& line : report) {
        if (line.find(needle) != std::string::npos) return true;
    }
    return false;
}

std::string joined(const std::vector<std::string>& report) {
    std::string s;
    for (const auto& line : report) s += line + "\n";
    return s;
}

/// Registers the canonical SoA candidate: a final two-field class with a
/// field-setter constructor (the shape proveLayout's structure rule wants).
void addPoint(ProgramBuilder& pb) {
    pb.cls("P")
        .finalClass()
        .field("x", Type::f32())
        .field("y", Type::f32())
        .ctor()
        .param("x_", Type::f32())
        .param("y_", Type::f32())
        .body(blk(setSelf("x", lv("x_")), setSelf("y", lv("y_"))));
}

/// `double T.run(int n)` over a `P[]`: fill with fresh objects, fold field
/// paths. Extra statements slot in between fill and fold to plant exactly
/// one escaping use per oracle test.
Program pointProgram(Block extra = {}) {
    ProgramBuilder pb;
    addPoint(pb);
    Block body;
    body.push_back(decl("a", Type::array(Type::cls("P")), newArr(Type::cls("P"), lv("n"))));
    body.push_back(forRange(
        "i", ci(0), lv("n"),
        blk(aset(lv("a"), lv("i"),
                 newObjV("P", exprVec(cast(Type::f32(), lv("i")), cf(2.0f)))))));
    for (auto& s : extra) body.push_back(std::move(s));
    body.push_back(decl("s", Type::f64(), cd(0.0)));
    body.push_back(forRange(
        "i", ci(0), lv("n"),
        blk(assign("s", add(lv("s"),
                            cast(Type::f64(), add(getf(aget(lv("a"), lv("i")), "x"),
                                                  getf(aget(lv("a"), lv("i")), "y"))))))));
    body.push_back(ret(lv("s")));
    pb.cls("T").method("run", Type::f64()).param("n", Type::i32()).body(std::move(body));
    return pb.build();
}

const analysis::ClassLayout& verdictOf(const analysis::Result& r, const std::string& cls) {
    auto it = r.layoutClasses.find(cls);
    EXPECT_NE(it, r.layoutClasses.end()) << "no layout verdict for " << cls;
    static analysis::ClassLayout missing;
    if (it == r.layoutClasses.end()) return missing;
    return it->second;
}

} // namespace

// ---- verdict oracles (lint driver: unknown arguments, no jit boundary) ----

TEST(ProveLayout, CleanFieldPathUseIsCondInlineUnderLint) {
    analysis::Result r = analysis::lintProgram(pointProgram());
    const auto& cl = verdictOf(r, "P");
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::CondInline) << cl.reason;
    // Packed SoA plan: two f32 lanes, second at data + len*4.
    ASSERT_EQ(cl.fields.size(), 2u);
    EXPECT_EQ(cl.elemSize, 8);
    EXPECT_EQ(cl.fields[0].pre, 0);
    EXPECT_EQ(cl.fields[1].pre, 4);
    EXPECT_TRUE(reportHas(r.layoutReport, "P: inline (boundary-guarded)"))
        << joined(r.layoutReport);
}

TEST(ProveLayout, ElementBoundToLocalEscapes) {
    analysis::Result r = analysis::lintProgram(pointProgram(
        blk(decl("p", Type::cls("P"), aget(lv("a"), ci(0))),
            exprS(getf(lv("p"), "x")))));
    const auto& cl = verdictOf(r, "P");
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::Boxed);
    EXPECT_NE(cl.reason.find("bound to a local variable"), std::string::npos) << cl.reason;
    EXPECT_TRUE(reportHas(r.layoutReport, "P: boxed")) << joined(r.layoutReport);
}

TEST(ProveLayout, IdentityCompareObservesTheAddress) {
    analysis::Result r = analysis::lintProgram(pointProgram(blk(
        decl("same", Type::boolean(), eq(aget(lv("a"), ci(0)), aget(lv("a"), ci(1)))))));
    const auto& cl = verdictOf(r, "P");
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::Boxed);
    EXPECT_NE(cl.reason.find("compared by reference identity"), std::string::npos) << cl.reason;
}

TEST(ProveLayout, CallReceiverNeedsAMaterializedObject) {
    // Dispatching a method on a[i] (even a final, devirtualizable one)
    // hands out the element's address as `this`.
    ProgramBuilder pb;
    auto& p = pb.cls("P").finalClass();
    p.field("x", Type::f32()).field("y", Type::f32());
    p.ctor().param("x_", Type::f32()).param("y_", Type::f32()).body(
        blk(setSelf("x", lv("x_")), setSelf("y", lv("y_"))));
    p.method("norm1", Type::f32()).body(blk(ret(add(selff("x"), selff("y")))));
    pb.cls("T").method("run", Type::f64()).param("n", Type::i32()).body(blk(
        decl("a", Type::array(Type::cls("P")), newArr(Type::cls("P"), lv("n"))),
        aset(lv("a"), ci(0), newObjV("P", exprVec(cf(1.0f), cf(2.0f)))),
        ret(cast(Type::f64(), callV(aget(lv("a"), ci(0)), "norm1", {})))));
    analysis::Result r = analysis::lintProgram(pb.build());
    const auto& cl = verdictOf(r, "P");
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::Boxed);
    EXPECT_NE(cl.reason.find("receiver of a method call"), std::string::npos) << cl.reason;
}

TEST(ProveLayout, WholeObjectCopyBetweenSlotsIsBoxed) {
    analysis::Result r = analysis::lintProgram(pointProgram(
        blk(aset(lv("a"), ci(1), aget(lv("a"), ci(0))))));
    const auto& cl = verdictOf(r, "P");
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::Boxed);
    EXPECT_NE(cl.reason.find("whole-object copy"), std::string::npos) << cl.reason;
}

TEST(ProveLayout, InterfaceElementsHaveNoExactLayout) {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass().method("get", Type::f32()).abstractMethod();
    auto& p = pb.cls("P").finalClass().implements("I");
    p.field("x", Type::f32());
    p.ctor().param("x_", Type::f32()).body(blk(setSelf("x", lv("x_"))));
    p.method("get", Type::f32()).body(blk(ret(selff("x"))));
    pb.cls("T").method("run", Type::i32()).param("n", Type::i32()).body(blk(
        decl("a", Type::array(Type::cls("I")), newArr(Type::cls("I"), lv("n"))),
        aset(lv("a"), ci(0), newObjV("P", exprVec(cf(1.0f)))),
        ret(lv("n"))));
    analysis::Result r = analysis::lintProgram(pb.build());
    const auto& cl = verdictOf(r, "I");
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::Boxed);
    EXPECT_NE(cl.reason.find("interface-typed elements"), std::string::npos) << cl.reason;
}

TEST(ProveLayout, NonPrimitiveFieldBlocksTheSplit) {
    ProgramBuilder pb;
    addPoint(pb);
    auto& q = pb.cls("Q").finalClass();
    q.field("p", Type::cls("P"));
    q.ctor().param("p_", Type::cls("P")).body(blk(setSelf("p", lv("p_"))));
    pb.cls("T").method("run", Type::i32()).param("n", Type::i32()).body(blk(
        decl("a", Type::array(Type::cls("Q")), newArr(Type::cls("Q"), lv("n"))),
        aset(lv("a"), ci(0), newObjV("Q", exprVec(newObjV("P", exprVec(cf(1.0f), cf(2.0f)))))),
        ret(lv("n"))));
    analysis::Result r = analysis::lintProgram(pb.build());
    const auto& cl = verdictOf(r, "Q");
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::Boxed);
    EXPECT_NE(cl.reason.find("is not primitive"), std::string::npos) << cl.reason;
}

// ---- entry driver: the jit() boundary boxes marshalled arrays ------------

TEST(ProveLayout, EntryDriverPromotesInternalArraysToInline) {
    Program p = pointProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    analysis::Result r =
        analysis::analyzeEntry(p, obj, "run", {Value::ofI32(64)});
    const auto& cl = verdictOf(r, "P");
    // The P[] lives and dies inside run(): no boundary crossing, so the
    // entry driver upgrades lint's CondInline to Inline.
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::Inline) << cl.reason;
    EXPECT_TRUE(reportHas(r.layoutReport, "P: inline --")) << joined(r.layoutReport);
}

TEST(ProveLayout, CellWorkloadVerdicts) {
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCellRunner(in, 64, 0.25f, 0.5f, 11);
    analysis::Result r =
        analysis::analyzeEntry(p, runner, "run", {Value::ofI32(3)});
    const auto& cl = verdictOf(r, "Cell");
    EXPECT_EQ(cl.verdict, analysis::LayoutVerdict::Inline) << cl.reason;
    ASSERT_EQ(cl.fields.size(), 6u);
    EXPECT_EQ(cl.elemSize, 24);  // six packed f32 lanes
}

// ---- the vector-prover flip: ScalarOnly under AoS, Vectorizable with --soa

TEST(ProveLayout, ElementLoopsFlipToVectorizableUnderSoa) {
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCellRunner(in, 64, 0.25f, 0.5f, 11);
    {
        analysis::Result r =
            analysis::analyzeEntry(p, runner, "run", {Value::ofI32(3)}, {.soa = false});
        EXPECT_TRUE(reportHas(r.vectorReport,
                              "are struct-strided under AoS -- vectorizable under --soa"))
            << joined(r.vectorReport);
        EXPECT_FALSE(reportHas(r.vectorReport, "unit-stride via the SoA layout"));
    }
    {
        analysis::Result r =
            analysis::analyzeEntry(p, runner, "run", {Value::ofI32(3)}, {.soa = true});
        EXPECT_TRUE(reportHas(r.vectorReport, "unit-stride via the SoA layout of 'Cell[]'"))
            << joined(r.vectorReport);
        EXPECT_FALSE(reportHas(r.vectorReport, "vectorizable under --soa"));
    }
}

TEST(ProveLayout, BoxedElementLoopsStayScalarWithActionableReason) {
    // The escaping local boxes P, so even under soa the fold loop must
    // refuse with the layout reason attached.
    Program p = pointProgram(blk(decl("p0", Type::cls("P"), aget(lv("a"), ci(0))),
                                 exprS(getf(lv("p0"), "x"))));
    Interp in(p);
    Value obj = in.instantiate("T", {});
    analysis::Result r =
        analysis::analyzeEntry(p, obj, "run", {Value::ofI32(64)}, {.soa = true});
    EXPECT_TRUE(reportHas(r.vectorReport, "must stay AoS")) << joined(r.vectorReport);
    EXPECT_TRUE(reportHas(r.vectorReport, "layout:")) << joined(r.vectorReport);
}

// ---- determinism: every SoA configuration bitwise-equal to the interp ----

namespace {

double interpCells(int n, int steps) {
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCellRunner(in, n, 0.25f, 0.5f, 11);
    return in.call(runner, "run", {Value::ofI32(steps)}).asF64();
}

double jitCells(int n, int steps, const TranslateOptions& opts) {
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCellRunner(in, n, 0.25f, 0.5f, 11);
    JitCode code = WootinJ::jit(p, runner, "run", {Value::ofI32(steps)}, opts);
    return code.invoke().asF64();
}

} // namespace

TEST(SoaDifferential, CellChainMatchesReferenceEverywhere) {
    const int n = 513, steps = 5;  // odd n: asymmetric halves, exercises swap parity
    const double ref = stencil::referenceCellChain(n, 0.25f, 0.5f, 11, steps);
    const double interp = interpCells(n, steps);
    ASSERT_TRUE(bitEq(interp, ref)) << interp << " vs " << ref;

    EXPECT_TRUE(bitEq(jitCells(n, steps, {}), ref)) << "jit (AoS)";
    EXPECT_TRUE(bitEq(jitCells(n, steps, {.soa = true}), ref)) << "jit+soa";
    EXPECT_TRUE(bitEq(jitCells(n, steps, {.simd = true, .soa = true}), ref)) << "jit+soa+simd";
    runtime::ThreadPool::instance().setThreads(4);
    EXPECT_TRUE(bitEq(jitCells(n, steps, {.parallel = true, .simd = true, .soa = true}), ref))
        << "jit+par+simd+soa@4";
}

TEST(SoaDifferential, LaneProjectionProbeMatchesTheInterpreterEverywhere) {
    // The probe kernel reads only the `u` lane of the six-field record —
    // the workload the layout split exists for. Its checksum must be
    // bitwise-identical across every layout/simd configuration.
    const int n = 513, steps = 5;
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCellRunner(in, n, 0.25f, 0.5f, 11);
    const std::vector<Value> args = {Value::ofI32(steps)};
    const double ref = in.call(runner, "probe", args).asF64();

    const auto jitProbe = [&](const TranslateOptions& opts) {
        return WootinJ::jit(p, runner, "probe", args, opts).invoke().asF64();
    };
    EXPECT_TRUE(bitEq(jitProbe({}), ref)) << "jit (AoS)";
    EXPECT_TRUE(bitEq(jitProbe({.soa = true}), ref)) << "jit+soa";
    EXPECT_TRUE(bitEq(jitProbe({.simd = true, .soa = true}), ref)) << "jit+soa+simd";
}

TEST(SoaDifferential, TranslatorReportsTheSplit) {
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCellRunner(in, 64, 0.25f, 0.5f, 11);
    {
        JitCode code = WootinJ::jit(p, runner, "run", {Value::ofI32(2)}, {.soa = false});
        EXPECT_EQ(code.soaArrays(), 0);
        EXPECT_TRUE(code.layoutClasses().empty());
        EXPECT_EQ(code.generatedC().find("wjrt_alloc_soa"), std::string::npos);
    }
    {
        JitCode code = WootinJ::jit(p, runner, "run", {Value::ofI32(2)}, {.soa = true});
        EXPECT_EQ(code.soaArrays(), 2) << "cur and nxt allocations";
        ASSERT_EQ(code.layoutClasses().size(), 1u);
        EXPECT_EQ(code.layoutClasses()[0], "Cell");
        EXPECT_NE(code.generatedC().find("wjrt_alloc_soa"), std::string::npos);
    }
}

TEST(SoaDifferential, SoaComposesWithSimdVectorization) {
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCellRunner(in, 256, 0.25f, 0.5f, 11);
    JitCode code = WootinJ::jit(p, runner, "run", {Value::ofI32(2)}, {.simd = true, .soa = true});
    // fill + interior sweep must vectorize once the layout is unit-stride
    // (the f64 checksum fold stays on the exact serial accumulator path).
    EXPECT_GE(code.vectorLoops(), 2) << code.generatedC();
    EXPECT_EQ(code.soaArrays(), 2);
}

// Unit tests for the WJ IR: types, builder, program validation, printer,
// the type checker, and the child enumerator (forEachChild).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/typecheck.h"
#include "support/diagnostics.h"

using namespace wj;
using namespace wj::dsl;

// ----------------------------------------------------------------- types

TEST(Type, PrimitiveIdentity) {
    EXPECT_EQ(Type::i32(), Type::i32());
    EXPECT_NE(Type::i32(), Type::i64());
    EXPECT_NE(Type::f32(), Type::f64());
    EXPECT_TRUE(Type::f64().isFloating());
    EXPECT_TRUE(Type::i64().isIntegral());
    EXPECT_FALSE(Type::boolean().isNumeric());
}

TEST(Type, ArrayEquality) {
    EXPECT_EQ(Type::array(Type::f32()), Type::array(Type::f32()));
    EXPECT_NE(Type::array(Type::f32()), Type::array(Type::f64()));
    EXPECT_EQ(Type::array(Type::array(Type::i32())).elem(), Type::array(Type::i32()));
}

TEST(Type, Rendering) {
    EXPECT_EQ("float[]", Type::array(Type::f32()).str());
    EXPECT_EQ("Solver", Type::cls("Solver").str());
    EXPECT_EQ("long", Type::i64().str());
    EXPECT_EQ("double[][]", Type::array(Type::array(Type::f64())).str());
}

TEST(Type, InvalidAccessorsThrow) {
    EXPECT_THROW(Type::i32().elem(), UsageError);
    EXPECT_THROW(Type::i32().className(), UsageError);
    EXPECT_THROW(Type::cls("X").prim(), UsageError);
    EXPECT_THROW(Type::array(Type::voidTy()), UsageError);
    EXPECT_THROW(Type::cls(""), UsageError);
}

// --------------------------------------------------------------- builder

TEST(Builder, RegistersBuiltins) {
    ProgramBuilder pb;
    Program p = pb.build();
    ASSERT_NE(nullptr, p.cls("dim3"));
    ASSERT_NE(nullptr, p.cls("CudaConfig"));
    EXPECT_EQ(3u, p.cls("dim3")->fields.size());
}

TEST(Builder, RejectsDuplicateClass) {
    ProgramBuilder pb;
    pb.cls("A");
    pb.cls("A");
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Builder, RejectsBadNames) {
    ProgramBuilder pb;
    EXPECT_THROW(pb.cls("3bad"), UsageError);
    EXPECT_THROW(pb.cls("has space"), UsageError);
    auto& c = pb.cls("Ok");
    EXPECT_THROW(c.field("bad-name", Type::i32()), UsageError);
    EXPECT_THROW(c.method("bad name", Type::voidTy()), UsageError);
}

TEST(Builder, RejectsDoubleBody) {
    ProgramBuilder pb;
    auto& m = pb.cls("A").method("f", Type::voidTy());
    m.body(blk(retVoid()));
    EXPECT_THROW(m.body(blk(retVoid())), UsageError);
}

TEST(Builder, RejectsOverloading) {
    ProgramBuilder pb;
    auto& c = pb.cls("A");
    c.method("f", Type::voidTy()).body(blk(retVoid()));
    EXPECT_THROW(c.method("f", Type::i32()), UsageError);
}

TEST(Builder, RejectsReuseAfterBuild) {
    ProgramBuilder pb;
    pb.build();
    EXPECT_THROW(pb.cls("Late"), UsageError);
}

TEST(Builder, SharedFieldMustBeArray) {
    ProgramBuilder pb;
    auto& c = pb.cls("K");
    EXPECT_THROW(c.sharedField("s", Type::f32()), UsageError);
}

// ------------------------------------------------------------ validation

TEST(Validate, UnknownSuperclass) {
    ProgramBuilder pb;
    pb.cls("A").extends("Missing");
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Validate, InheritanceCycle) {
    ProgramBuilder pb;
    pb.cls("A").extends("B");
    pb.cls("B").extends("A");
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Validate, ExtendingInterfaceRejected) {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass();
    pb.cls("A").extends("I");
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Validate, ImplementingClassRejected) {
    ProgramBuilder pb;
    pb.cls("C");
    pb.cls("A").implements("C");
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Validate, InterfaceWithFieldRejected) {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass().field("x", Type::i32());
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Validate, MissingAbstractImplementation) {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass().method("f", Type::voidTy()).abstractMethod();
    pb.cls("A").implements("I");  // no f
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Validate, AbstractClassExemptFromImplementing) {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass().method("f", Type::voidTy()).abstractMethod();
    auto& a = pb.cls("A").implements("I");
    a.method("g", Type::voidTy()).abstractMethod();  // A is abstract
    auto& b = pb.cls("B").extends("A");
    b.method("f", Type::voidTy()).body(blk(retVoid()));
    b.method("g", Type::voidTy()).body(blk(retVoid()));
    EXPECT_NO_THROW(pb.build());
}

TEST(Validate, GlobalMethodNeedsCudaConfig) {
    ProgramBuilder pb;
    pb.cls("A").method("k", Type::voidTy()).global().body(blk(retVoid()));
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Validate, GlobalMethodMustReturnVoid) {
    ProgramBuilder pb;
    pb.cls("A")
        .method("k", Type::i32())
        .global()
        .param("conf", Type::cls("CudaConfig"))
        .body(blk(ret(ci(0))));
    EXPECT_THROW(pb.build(), UsageError);
}

TEST(Validate, FieldOfUnknownClassRejected) {
    ProgramBuilder pb;
    pb.cls("A").field("x", Type::cls("Nope"));
    EXPECT_THROW(pb.build(), UsageError);
}

// ------------------------------------------------------------- resolution

namespace {

Program hierarchyProgram() {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass().method("f", Type::i32()).abstractMethod();
    auto& base = pb.cls("Base").implements("I");
    base.field("x", Type::i32());
    base.method("f", Type::i32()).body(blk(ret(ci(1))));
    base.method("g", Type::i32()).body(blk(ret(ci(2))));
    auto& mid = pb.cls("Mid").extends("Base");
    mid.field("y", Type::f64());
    mid.method("f", Type::i32()).body(blk(ret(ci(3))));
    auto& leaf = pb.cls("Leaf").extends("Mid").finalClass();
    leaf.field("z", Type::f32());
    return pb.build();
}

} // namespace

TEST(Program, SubtypeQueries) {
    Program p = hierarchyProgram();
    EXPECT_TRUE(p.isSubtypeOf("Leaf", "Base"));
    EXPECT_TRUE(p.isSubtypeOf("Leaf", "I"));
    EXPECT_TRUE(p.isSubtypeOf("Mid", "Mid"));
    EXPECT_FALSE(p.isSubtypeOf("Base", "Mid"));
    EXPECT_FALSE(p.isSubtypeOf("I", "Base"));
}

TEST(Program, MethodResolutionWalksChain) {
    Program p = hierarchyProgram();
    EXPECT_EQ("Mid", p.methodOwner("Leaf", "f")->name);   // override wins
    EXPECT_EQ("Base", p.methodOwner("Leaf", "g")->name);  // inherited
    EXPECT_EQ(nullptr, p.resolveMethod("Leaf", "missing"));
}

TEST(Program, FieldLayoutSuperFirst) {
    Program p = hierarchyProgram();
    auto fields = p.allFields("Leaf");
    ASSERT_EQ(3u, fields.size());
    EXPECT_EQ("x", fields[0]->name);
    EXPECT_EQ("y", fields[1]->name);
    EXPECT_EQ("z", fields[2]->name);
}

TEST(Program, LeafDetection) {
    Program p = hierarchyProgram();
    EXPECT_TRUE(p.isLeaf("Leaf"));
    EXPECT_FALSE(p.isLeaf("Base"));
    EXPECT_FALSE(p.isLeaf("I"));
}

TEST(Program, ConcreteSubtypes) {
    Program p = hierarchyProgram();
    EXPECT_EQ(3u, p.concreteSubtypes("I").size());
    EXPECT_EQ(1u, p.concreteSubtypes("Leaf").size());
}

// -------------------------------------------------------------- typecheck

namespace {

/// Builds a one-class program whose method "f" has the given body; returns
/// whether type checking passes.
void checkBody(Block body, Type ret = Type::voidTy()) {
    ProgramBuilder pb;
    pb.cls("T").method("f", ret).param("p", Type::i32()).body(std::move(body));
    Program p = pb.build();
    checkProgramTypes(p);
}

} // namespace

TEST(TypeCheck, AcceptsWellTyped) {
    EXPECT_NO_THROW(checkBody(blk(decl("x", Type::i32(), add(lv("p"), ci(1))), retVoid())));
}

TEST(TypeCheck, RejectsMixedArithmetic) {
    // No implicit widening: int + double must be an error.
    EXPECT_THROW(checkBody(blk(decl("x", Type::f64(), add(cast(Type::f64(), lv("p")), ci(1))))),
                 UsageError);
}

TEST(TypeCheck, RejectsUndeclaredLocal) {
    EXPECT_THROW(checkBody(blk(exprS(lv("nope")))), UsageError);
}

TEST(TypeCheck, RejectsDuplicateLocal) {
    EXPECT_THROW(checkBody(blk(decl("x", Type::i32(), ci(0)), decl("x", Type::i32(), ci(1)))),
                 UsageError);
}

TEST(TypeCheck, RejectsNonBooleanCondition) {
    EXPECT_THROW(checkBody(blk(ifs(ci(1), blk()))), UsageError);
}

TEST(TypeCheck, RejectsBadReturnType) {
    EXPECT_THROW(checkBody(blk(ret(cd(1.0))), Type::i32()), UsageError);
}

TEST(TypeCheck, RejectsVoidReturnWithValue) {
    EXPECT_THROW(checkBody(blk(ret(ci(1)))), UsageError);
}

TEST(TypeCheck, RejectsNonIntIndex) {
    EXPECT_THROW(checkBody(blk(decl("a", Type::array(Type::f32()), newArr(Type::f32(), ci(4))),
                               exprS(aget(lv("a"), cd(0.0))))),
                 UsageError);
}

TEST(TypeCheck, RejectsCallOnPrimitive) {
    EXPECT_THROW(checkBody(blk(exprS(call(ci(1), "foo")))), UsageError);
}

TEST(TypeCheck, RejectsWrongIntrinsicArity) {
    EXPECT_THROW(checkBody(blk(exprS(intr(Intrinsic::MathSqrtF64)))), UsageError);
}

TEST(TypeCheck, RejectsThisInStatic) {
    ProgramBuilder pb;
    pb.cls("T").method("f", Type::voidTy()).staticMethod().body(blk(exprS(selff("x"))));
    Program p = pb.build();
    EXPECT_THROW(checkProgramTypes(p), UsageError);
}

TEST(TypeCheck, AcceptsInterfaceAssignment) {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass();
    pb.cls("A").implements("I").finalClass();
    pb.cls("T")
        .method("f", Type::cls("I"))
        .body(blk(decl("a", Type::cls("A"), newObj("A")), ret(lv("a"))));
    Program p = pb.build();
    EXPECT_NO_THROW(checkProgramTypes(p));
}

TEST(TypeCheck, RejectsUnrelatedCast) {
    ProgramBuilder pb;
    pb.cls("A").finalClass();
    pb.cls("B").finalClass();
    pb.cls("T")
        .method("f", Type::voidTy())
        .body(blk(decl("a", Type::cls("A"), newObj("A")),
                  exprS(cast(Type::cls("B"), lv("a"))), retVoid()));
    Program p = pb.build();
    EXPECT_THROW(checkProgramTypes(p), UsageError);
}

// ---------------------------------------------------------------- printer

TEST(Printer, RoundTripReadable) {
    ProgramBuilder pb;
    auto& c = pb.cls("Dif1DSolver").extends("Base").finalClass();
    pb.cls("Base");
    c.field("a", Type::f32());
    c.ctor().param("a_", Type::f32()).body(blk(setSelf("a", lv("a_"))));
    c.method("solve", Type::f32())
        .param("x", Type::f32())
        .body(blk(ret(mul(selff("a"), lv("x")))));
    Program p = pb.build();
    const std::string out = printClass(*p.cls("Dif1DSolver"));
    EXPECT_NE(out.find("final class Dif1DSolver extends Base"), std::string::npos);
    EXPECT_NE(out.find("float a;"), std::string::npos);
    EXPECT_NE(out.find("return (this.a * x);"), std::string::npos);
}

TEST(Printer, StatementsRender) {
    const std::string s =
        printStmt(*forRange("i", ci(0), ci(10), blk(exprS(intr(Intrinsic::MpiBarrier)))));
    EXPECT_NE(s.find("for (int i = 0; (i < 10); i = (i + 1))"), std::string::npos);
    EXPECT_NE(s.find("MPI.barrier()"), std::string::npos);
}

TEST(Printer, GlobalAnnotationShown) {
    ProgramBuilder pb;
    pb.cls("K")
        .method("kern", Type::voidTy())
        .global()
        .param("conf", Type::cls("CudaConfig"))
        .body(blk(retVoid()));
    Program p = pb.build();
    EXPECT_NE(printClass(*p.cls("K")).find("@Global"), std::string::npos);
}

TEST(Intrinsics, TableIsConsistent) {
    for (int i = 0; i < intrinsicCount(); ++i) {
        const auto& sig = intrinsicSig(static_cast<Intrinsic>(i));
        EXPECT_NE(nullptr, sig.name);
        EXPECT_FALSE(sig.deviceOnly && sig.hostOnly) << sig.name;
    }
    EXPECT_EQ(std::string("MPI.rank"), intrinsicSig(Intrinsic::MpiRank).name);
    EXPECT_EQ(std::string("cuda.syncthreads"), intrinsicSig(Intrinsic::CudaSyncThreads).name);
}

// ------------------------------------------------------------- traversal

TEST(IrChildren, EveryKindEnumeratesItsOperandsInSourceOrder) {
    using Ptrs = std::vector<const void*>;
    std::set<ExprKind> exprKinds;
    std::set<StmtKind> stmtKinds;
    auto kids = [&](const Expr& e) {
        exprKinds.insert(e.kind);
        Ptrs out;
        forEachChild(e, [&](const Expr& c) { out.push_back(&c); });
        return out;
    };
    auto stmtKids = [&](const Stmt& s) {
        stmtKinds.insert(s.kind);
        Ptrs out;
        forEachChild(s, [&](const Expr& c) { out.push_back(&c); },
                     [&](const Block& b) { out.push_back(&b); });
        return out;
    };

    // ---- expressions: leaves have no operands.
    for (const ExprPtr& leaf : exprVec(ci(1), lv("x"), self(), sget("C", "K"))) {
        EXPECT_EQ(Ptrs{}, kids(*leaf));
    }
    ExprPtr e = getf(lv("o"), "f");
    EXPECT_EQ(Ptrs{as<FieldGetExpr>(*e).obj.get()}, kids(*e));
    e = aget(lv("a"), lv("i"));
    EXPECT_EQ((Ptrs{as<ArrayGetExpr>(*e).arr.get(), as<ArrayGetExpr>(*e).idx.get()}), kids(*e));
    e = alen(lv("a"));
    EXPECT_EQ(Ptrs{as<ArrayLenExpr>(*e).arr.get()}, kids(*e));
    e = neg(lv("x"));
    EXPECT_EQ(Ptrs{as<UnaryExpr>(*e).e.get()}, kids(*e));
    e = add(lv("a"), lv("b"));
    EXPECT_EQ((Ptrs{as<BinaryExpr>(*e).l.get(), as<BinaryExpr>(*e).r.get()}), kids(*e));
    e = ternary(cb(true), ci(1), ci(2));
    {
        const auto& n = as<CondExpr>(*e);
        EXPECT_EQ((Ptrs{n.c.get(), n.t.get(), n.f.get()}), kids(*e));
    }
    e = call(lv("o"), "m", lv("a"), lv("b"));
    {
        const auto& n = as<CallExpr>(*e);
        EXPECT_EQ((Ptrs{n.recv.get(), n.args[0].get(), n.args[1].get()}), kids(*e));
    }
    e = scall("C", "m", lv("a"), lv("b"));
    {
        const auto& n = as<StaticCallExpr>(*e);
        EXPECT_EQ((Ptrs{n.args[0].get(), n.args[1].get()}), kids(*e));
    }
    e = newObj("C", lv("a"), lv("b"));
    {
        const auto& n = as<NewExpr>(*e);
        EXPECT_EQ((Ptrs{n.args[0].get(), n.args[1].get()}), kids(*e));
    }
    e = newArr(Type::f32(), lv("n"));
    EXPECT_EQ(Ptrs{as<NewArrayExpr>(*e).len.get()}, kids(*e));
    e = cast(Type::f64(), lv("x"));
    EXPECT_EQ(Ptrs{as<CastExpr>(*e).e.get()}, kids(*e));
    e = intr(Intrinsic::MpiSendF32, lv("b"), ci(0), ci(4), ci(1), ci(7));
    {
        const auto& n = as<IntrinsicExpr>(*e);
        Ptrs want;
        for (const auto& a : n.args) want.push_back(a.get());
        EXPECT_EQ(want, kids(*e));
    }
    EXPECT_EQ(16u, exprKinds.size()) << "an ExprKind has no case in this test";

    // ---- statements: direct expressions and nested blocks, not their contents.
    StmtPtr s = decl("x", Type::i32(), ci(1));
    EXPECT_EQ(Ptrs{as<DeclStmt>(*s).init.get()}, stmtKids(*s));
    s = declUninit("x", Type::i32());
    EXPECT_EQ(Ptrs{}, stmtKids(*s));
    s = assign("x", ci(1));
    EXPECT_EQ(Ptrs{as<AssignLocalStmt>(*s).value.get()}, stmtKids(*s));
    s = setf(lv("o"), "f", ci(1));
    {
        const auto& n = as<FieldSetStmt>(*s);
        EXPECT_EQ((Ptrs{n.obj.get(), n.value.get()}), stmtKids(*s));
    }
    s = aset(lv("a"), lv("i"), ci(1));
    {
        const auto& n = as<ArraySetStmt>(*s);
        EXPECT_EQ((Ptrs{n.arr.get(), n.idx.get(), n.value.get()}), stmtKids(*s));
    }
    s = ifs(cb(true), blk(exprS(lv("x"))), blk(retVoid()));
    {
        const auto& n = as<IfStmt>(*s);
        EXPECT_EQ((Ptrs{n.cond.get(), &n.thenB, &n.elseB}), stmtKids(*s));
    }
    s = whileS(cb(true), blk(exprS(lv("x"))));
    {
        const auto& n = as<WhileStmt>(*s);
        EXPECT_EQ((Ptrs{n.cond.get(), &n.body}), stmtKids(*s));
    }
    s = forI32("i", ci(0), lt(lv("i"), ci(9)), add(lv("i"), ci(1)), blk(exprS(lv("i"))));
    {
        const auto& n = as<ForStmt>(*s);
        EXPECT_EQ((Ptrs{n.init.get(), n.cond.get(), n.step.get(), &n.body}), stmtKids(*s));
    }
    s = ret(ci(1));
    EXPECT_EQ(Ptrs{as<ReturnStmt>(*s).value.get()}, stmtKids(*s));
    s = retVoid();
    EXPECT_EQ(Ptrs{}, stmtKids(*s));
    s = exprS(call(lv("o"), "m"));
    EXPECT_EQ(Ptrs{as<ExprStmt>(*s).e.get()}, stmtKids(*s));
    s = superCtor(lv("a"), lv("b"));
    {
        const auto& n = as<SuperCtorStmt>(*s);
        EXPECT_EQ((Ptrs{n.args[0].get(), n.args[1].get()}), stmtKids(*s));
    }
    EXPECT_EQ(10u, stmtKinds.size()) << "a StmtKind has no case in this test";
}

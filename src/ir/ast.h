// WJ IR abstract syntax: expressions and statements.
//
// The IR plays the role Java bytecode plays for WootinJ: a typed,
// object-oriented method representation that the rule verifier, the
// interpreter ("the JVM"), and the JIT translator all consume. Nodes are
// immutable after construction and owned uniquely by their parent.
//
// The node set deliberately includes constructs the coding rules *reject*
// (the conditional operator, reference equality) so the verifier has
// something to verify; the JIT refuses programs the verifier rejects.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/intrinsics.h"
#include "ir/type.h"

namespace wj {

// ---------------------------------------------------------------- operators

enum class UnOp {
    Neg,  ///< arithmetic negation
    Not,  ///< boolean negation
};

enum class BinOp {
    Add, Sub, Mul, Div, Rem,
    Lt, Le, Gt, Ge, Eq, Ne,     // Eq/Ne on references violates coding rule 7
    LAnd, LOr,                  // short-circuit boolean
    Shl, Shr, BitAnd, BitOr, BitXor,
};

/// True for operators producing boolean from numeric or boolean operands.
bool isComparison(BinOp op) noexcept;
bool isLogical(BinOp op) noexcept;
const char* binOpName(BinOp op) noexcept;

// -------------------------------------------------------------- expressions

enum class ExprKind {
    Const, Local, This,
    FieldGet, StaticGet, ArrayGet, ArrayLen,
    Unary, Binary, Cond,
    Call, StaticCall, New, NewArray, Cast, IntrinsicCall,
};

struct Expr {
    const ExprKind kind;
    virtual ~Expr() = default;

protected:
    explicit Expr(ExprKind k) : kind(k) {}
};

using ExprPtr = std::unique_ptr<Expr>;

/// Primitive literal. The value lives in the member matching `type`.
struct ConstExpr final : Expr {
    Type type;
    int64_t i = 0;   // Bool (0/1), I32, I64
    double f = 0;    // F32, F64

    ConstExpr(Type t, int64_t iv, double fv)
        : Expr(ExprKind::Const), type(std::move(t)), i(iv), f(fv) {}
};

/// Read of a local variable or method parameter, by name.
struct LocalExpr final : Expr {
    std::string name;
    explicit LocalExpr(std::string n) : Expr(ExprKind::Local), name(std::move(n)) {}
};

/// The `this` reference.
struct ThisExpr final : Expr {
    ThisExpr() : Expr(ExprKind::This) {}
};

/// `obj.field`
struct FieldGetExpr final : Expr {
    ExprPtr obj;
    std::string field;
    FieldGetExpr(ExprPtr o, std::string f)
        : Expr(ExprKind::FieldGet), obj(std::move(o)), field(std::move(f)) {}
};

/// `Cls.staticField` — coding rule 5 requires these to be final primitives.
struct StaticGetExpr final : Expr {
    std::string cls;
    std::string field;
    StaticGetExpr(std::string c, std::string f)
        : Expr(ExprKind::StaticGet), cls(std::move(c)), field(std::move(f)) {}
};

/// `arr[idx]`
struct ArrayGetExpr final : Expr {
    ExprPtr arr, idx;
    ArrayGetExpr(ExprPtr a, ExprPtr i)
        : Expr(ExprKind::ArrayGet), arr(std::move(a)), idx(std::move(i)) {}
};

/// `arr.length`
struct ArrayLenExpr final : Expr {
    ExprPtr arr;
    explicit ArrayLenExpr(ExprPtr a) : Expr(ExprKind::ArrayLen), arr(std::move(a)) {}
};

struct UnaryExpr final : Expr {
    UnOp op;
    ExprPtr e;
    UnaryExpr(UnOp o, ExprPtr x) : Expr(ExprKind::Unary), op(o), e(std::move(x)) {}
};

struct BinaryExpr final : Expr {
    BinOp op;
    ExprPtr l, r;
    BinaryExpr(BinOp o, ExprPtr a, ExprPtr b)
        : Expr(ExprKind::Binary), op(o), l(std::move(a)), r(std::move(b)) {}
};

/// The conditional operator `c ? t : f`. Forbidden by coding rule 7 in
/// translated code; the interpreter still executes it so untranslated code
/// can use it freely (only @WootinJ code is subject to the rules).
struct CondExpr final : Expr {
    ExprPtr c, t, f;
    CondExpr(ExprPtr cc, ExprPtr tt, ExprPtr ff)
        : Expr(ExprKind::Cond), c(std::move(cc)), t(std::move(tt)), f(std::move(ff)) {}
};

/// Virtual call `recv.method(args...)`. If the resolved method is @Global,
/// the first argument must be a CudaConfig and the call launches a kernel.
struct CallExpr final : Expr {
    ExprPtr recv;
    std::string method;
    std::vector<ExprPtr> args;
    CallExpr(ExprPtr r, std::string m, std::vector<ExprPtr> a)
        : Expr(ExprKind::Call), recv(std::move(r)), method(std::move(m)), args(std::move(a)) {}
};

/// Static call `Cls.method(args...)`.
struct StaticCallExpr final : Expr {
    std::string cls;
    std::string method;
    std::vector<ExprPtr> args;
    StaticCallExpr(std::string c, std::string m, std::vector<ExprPtr> a)
        : Expr(ExprKind::StaticCall), cls(std::move(c)), method(std::move(m)), args(std::move(a)) {}
};

/// `new Cls(args...)`
struct NewExpr final : Expr {
    std::string cls;
    std::vector<ExprPtr> args;
    NewExpr(std::string c, std::vector<ExprPtr> a)
        : Expr(ExprKind::New), cls(std::move(c)), args(std::move(a)) {}
};

/// `new Elem[len]`
struct NewArrayExpr final : Expr {
    Type elem;
    ExprPtr len;
    NewArrayExpr(Type e, ExprPtr l)
        : Expr(ExprKind::NewArray), elem(std::move(e)), len(std::move(l)) {}
};

/// `(T) e` — numeric conversion or reference downcast. Coding rule 2
/// requires reference cast targets to be strict-final.
struct CastExpr final : Expr {
    Type type;
    ExprPtr e;
    CastExpr(Type t, ExprPtr x) : Expr(ExprKind::Cast), type(std::move(t)), e(std::move(x)) {}
};

/// Call to one of the MPI/CUDA/math intrinsics (see ir/intrinsics.h).
struct IntrinsicExpr final : Expr {
    Intrinsic op;
    std::vector<ExprPtr> args;
    IntrinsicExpr(Intrinsic o, std::vector<ExprPtr> a)
        : Expr(ExprKind::IntrinsicCall), op(o), args(std::move(a)) {}
};

// --------------------------------------------------------------- statements

enum class StmtKind {
    Decl, AssignLocal, FieldSet, ArraySet,
    If, While, For, Return, ExprStmt, SuperCtor,
};

struct Stmt {
    const StmtKind kind;
    virtual ~Stmt() = default;

protected:
    explicit Stmt(StmtKind k) : kind(k) {}
};

using StmtPtr = std::unique_ptr<Stmt>;
using Block = std::vector<StmtPtr>;

/// `T name = init;` or `T name;` — `init` may be null for primitive and
/// array locals (object locals must be initialized: the translator needs
/// an exact shape at the declaration). Reads of a possibly-uninitialized
/// local are rejected by the definite-assignment pass (src/analysis/)
/// before the interpreter or the translator sees them.
struct DeclStmt final : Stmt {
    std::string name;
    Type type;
    ExprPtr init;
    DeclStmt(std::string n, Type t, ExprPtr i)
        : Stmt(StmtKind::Decl), name(std::move(n)), type(std::move(t)), init(std::move(i)) {}
};

/// `name = value;` — assignment to a local. Assigning a method parameter
/// violates coding rule 3 and is caught by the verifier.
struct AssignLocalStmt final : Stmt {
    std::string name;
    ExprPtr value;
    AssignLocalStmt(std::string n, ExprPtr v)
        : Stmt(StmtKind::AssignLocal), name(std::move(n)), value(std::move(v)) {}
};

/// `obj.field = value;` — outside constructors this is only legal for
/// array-typed fields (semi-immutable, Section 3.2 definition 3(c)).
struct FieldSetStmt final : Stmt {
    ExprPtr obj;
    std::string field;
    ExprPtr value;
    FieldSetStmt(ExprPtr o, std::string f, ExprPtr v)
        : Stmt(StmtKind::FieldSet), obj(std::move(o)), field(std::move(f)), value(std::move(v)) {}
};

/// `arr[idx] = value;`
struct ArraySetStmt final : Stmt {
    ExprPtr arr, idx, value;
    ArraySetStmt(ExprPtr a, ExprPtr i, ExprPtr v)
        : Stmt(StmtKind::ArraySet), arr(std::move(a)), idx(std::move(i)), value(std::move(v)) {}
};

struct IfStmt final : Stmt {
    ExprPtr cond;
    Block thenB, elseB;
    IfStmt(ExprPtr c, Block t, Block e)
        : Stmt(StmtKind::If), cond(std::move(c)), thenB(std::move(t)), elseB(std::move(e)) {}
};

struct WhileStmt final : Stmt {
    ExprPtr cond;
    Block body;
    WhileStmt(ExprPtr c, Block b) : Stmt(StmtKind::While), cond(std::move(c)), body(std::move(b)) {}
};

/// `for (T i = init; cond; i = step) { body }` — the induction variable is a
/// fresh local scoped to the loop.
struct ForStmt final : Stmt {
    std::string var;
    Type varType;
    ExprPtr init;
    ExprPtr cond;
    ExprPtr step;  ///< new value of `var` each iteration
    Block body;
    ForStmt(std::string v, Type t, ExprPtr i, ExprPtr c, ExprPtr s, Block b)
        : Stmt(StmtKind::For), var(std::move(v)), varType(std::move(t)), init(std::move(i)),
          cond(std::move(c)), step(std::move(s)), body(std::move(b)) {}
};

struct ReturnStmt final : Stmt {
    ExprPtr value;  ///< null for `return;`
    explicit ReturnStmt(ExprPtr v) : Stmt(StmtKind::Return), value(std::move(v)) {}
};

struct ExprStmt final : Stmt {
    ExprPtr e;
    explicit ExprStmt(ExprPtr x) : Stmt(StmtKind::ExprStmt), e(std::move(x)) {}
};

/// `super(args...)` — only legal as the first statement of a constructor.
struct SuperCtorStmt final : Stmt {
    std::vector<ExprPtr> args;
    explicit SuperCtorStmt(std::vector<ExprPtr> a) : Stmt(StmtKind::SuperCtor), args(std::move(a)) {}
};

// ------------------------------------------------------------------ casting

/// Checked downcast for nodes: aborts on kind mismatch (internal invariant).
template <typename T>
const T& as(const Expr& e) {
    return static_cast<const T&>(e);
}
template <typename T>
const T& as(const Stmt& s) {
    return static_cast<const T&>(s);
}

// ---------------------------------------------------------------- traversal
//
// The one home of "which operands does a node have, and in what order".
// A pass that only decides something at a few kinds handles those and
// sends the node here for the rest. Children come in source order (`recv`
// before `args`, `arr` before `idx`, `init`/`cond`/`step` before `body`,
// `thenB` before `elseB`); a null `DeclStmt::init` or `ReturnStmt::value`
// is skipped. The switches have no `default:`, so -Wswitch names every
// place a new kind must be enumerated. Callbacks are plain templates
// (no std::function, no allocation): rules and analysis run these on every
// jit().

/// Calls `f(const Expr&)` on each direct operand of `e`.
template <typename F>
void forEachChild(const Expr& e, F&& f) {
    switch (e.kind) {
    case ExprKind::Const:
    case ExprKind::Local:
    case ExprKind::This:
    case ExprKind::StaticGet: return;
    case ExprKind::FieldGet: f(*as<FieldGetExpr>(e).obj); return;
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        f(*n.arr);
        f(*n.idx);
        return;
    }
    case ExprKind::ArrayLen: f(*as<ArrayLenExpr>(e).arr); return;
    case ExprKind::Unary: f(*as<UnaryExpr>(e).e); return;
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        f(*n.l);
        f(*n.r);
        return;
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        f(*n.c);
        f(*n.t);
        f(*n.f);
        return;
    }
    case ExprKind::Call: {
        const auto& n = as<CallExpr>(e);
        f(*n.recv);
        for (const auto& a : n.args) f(*a);
        return;
    }
    case ExprKind::StaticCall:
        for (const auto& a : as<StaticCallExpr>(e).args) f(*a);
        return;
    case ExprKind::New:
        for (const auto& a : as<NewExpr>(e).args) f(*a);
        return;
    case ExprKind::NewArray: f(*as<NewArrayExpr>(e).len); return;
    case ExprKind::Cast: f(*as<CastExpr>(e).e); return;
    case ExprKind::IntrinsicCall:
        for (const auto& a : as<IntrinsicExpr>(e).args) f(*a);
        return;
    }
}

/// Calls `onExpr(const Expr&)` on each direct expression of `s` and
/// `onBlock(const Block&)` on each nested block, interleaved in source order.
template <typename FE, typename FB>
void forEachChild(const Stmt& s, FE&& onExpr, FB&& onBlock) {
    switch (s.kind) {
    case StmtKind::Decl:
        if (const auto& n = as<DeclStmt>(s); n.init) onExpr(*n.init);
        return;
    case StmtKind::AssignLocal: onExpr(*as<AssignLocalStmt>(s).value); return;
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(s);
        onExpr(*n.obj);
        onExpr(*n.value);
        return;
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(s);
        onExpr(*n.arr);
        onExpr(*n.idx);
        onExpr(*n.value);
        return;
    }
    case StmtKind::If: {
        const auto& n = as<IfStmt>(s);
        onExpr(*n.cond);
        onBlock(n.thenB);
        onBlock(n.elseB);
        return;
    }
    case StmtKind::While: {
        const auto& n = as<WhileStmt>(s);
        onExpr(*n.cond);
        onBlock(n.body);
        return;
    }
    case StmtKind::For: {
        const auto& n = as<ForStmt>(s);
        onExpr(*n.init);
        onExpr(*n.cond);
        onExpr(*n.step);
        onBlock(n.body);
        return;
    }
    case StmtKind::Return:
        if (const auto& n = as<ReturnStmt>(s); n.value) onExpr(*n.value);
        return;
    case StmtKind::ExprStmt: onExpr(*as<ExprStmt>(s).e); return;
    case StmtKind::SuperCtor:
        for (const auto& a : as<SuperCtorStmt>(s).args) onExpr(*a);
        return;
    }
}

} // namespace wj

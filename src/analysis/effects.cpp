#include "analysis/effects.h"

#include <vector>

#include "analysis/callgraph.h"
#include "ir/typecheck.h"
#include "support/diagnostics.h"

namespace wj::analysis {

namespace {

/// Where an array-valued expression is rooted, from the caller's point of
/// view. This is the syntactic classifier the summaries are keyed by; the
/// precise per-site alias facts the race check uses come from the interval
/// engine instead.
struct SRoot {
    enum class K { Param, Field, Alloc, This, Unknown } k = K::Unknown;
    int paramIdx = -1;
    std::string fieldKey;

    static SRoot param(int i) { return {K::Param, i, {}}; }
    static SRoot field(std::string key) { return {K::Field, -1, std::move(key)}; }
    static SRoot alloc() { return {K::Alloc, -1, {}}; }
    static SRoot thisRoot() { return {K::This, -1, {}}; }
    static SRoot unknown() { return {K::Unknown, -1, {}}; }
};

/// "DeclaringClass.field" — all stores/loads of one field agree on the key
/// regardless of the receiver's static type.
std::string fieldKeyOf(const Program& prog, const std::string& cls, const std::string& field) {
    for (const ClassDecl* c = prog.cls(cls); c;
         c = c->superName.empty() ? nullptr : prog.cls(c->superName)) {
        if (c->ownField(field)) return c->name + "." + field;
    }
    return cls + "." + field;
}

class MethodWalker {
public:
    MethodWalker(const Program& prog, const std::map<const Method*, Effects>& summaries)
        : prog_(prog), summaries_(summaries) {}

    Effects walk(const ClassDecl& c, const Method& m) {
        eff_ = Effects{};
        TypeScope scope(prog_, m.isStatic ? nullptr : &c, m);
        roots_.clear();
        roots_.push_back({});
        for (size_t i = 0; i < m.params.size(); ++i) {
            roots_.back()[m.params[i].name] = SRoot::param(static_cast<int>(i));
        }
        walkBlock(scope, m.body);
        return eff_;
    }

private:
    SRoot lookupRoot(const std::string& name) const {
        for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end()) return f->second;
        }
        return SRoot::unknown();
    }

    void bind(const std::string& name, SRoot r) { roots_.back()[name] = std::move(r); }

    SRoot classify(TypeScope& s, const Expr& e) {
        switch (e.kind) {
        case ExprKind::Local: return lookupRoot(as<LocalExpr>(e).name);
        case ExprKind::This: return SRoot::thisRoot();
        case ExprKind::FieldGet: {
            const auto& n = as<FieldGetExpr>(e);
            Type ot = typeOf(s, *n.obj);
            if (!ot.isClass()) return SRoot::unknown();
            return SRoot::field(fieldKeyOf(prog_, ot.className(), n.field));
        }
        case ExprKind::NewArray: return SRoot::alloc();
        case ExprKind::Cast: return classify(s, *as<CastExpr>(e).e);
        default: return SRoot::unknown();
        }
    }

    void read(const SRoot& r) {
        switch (r.k) {
        case SRoot::K::Param: eff_.readsParams.insert(r.paramIdx); break;
        case SRoot::K::Field: eff_.readsFields.insert(r.fieldKey); break;
        default: break;  // fresh allocations / unknown reads carry no caller-visible effect
        }
    }

    void write(const SRoot& r) {
        switch (r.k) {
        case SRoot::K::Param: eff_.writesParams.insert(r.paramIdx); break;
        case SRoot::K::Field: eff_.writesFields.insert(r.fieldKey); break;
        case SRoot::K::Alloc: case SRoot::K::This: break;
        case SRoot::K::Unknown: eff_.writesUnknown = true; break;
        }
    }

    void mergeCallee(TypeScope& s, const Effects& ce, const Expr* recv,
                     const std::vector<ExprPtr>& args) {
        for (int j : ce.readsParams) {
            if (j >= 0 && j < static_cast<int>(args.size())) read(classify(s, *args[j]));
        }
        for (int j : ce.writesParams) {
            if (j >= 0 && j < static_cast<int>(args.size())) write(classify(s, *args[j]));
        }
        eff_.readsFields.insert(ce.readsFields.begin(), ce.readsFields.end());
        eff_.writesFields.insert(ce.writesFields.begin(), ce.writesFields.end());
        // A callee touching its receiver's fields touches arrays reachable
        // from whatever the caller passed as the receiver.
        if (recv) {
            const SRoot rr = classify(s, *recv);
            if (rr.k == SRoot::K::Param) {
                if (!ce.readsFields.empty()) eff_.readsParams.insert(rr.paramIdx);
                if (!ce.writesFields.empty()) eff_.writesParams.insert(rr.paramIdx);
            }
        }
        eff_.writesUnknown |= ce.writesUnknown;
        eff_.sends |= ce.sends;
        eff_.receives |= ce.receives;
        eff_.postsIrecv |= ce.postsIrecv;
        eff_.waits |= ce.waits;
        eff_.collectives |= ce.collectives;
        eff_.ckpt |= ce.ckpt;
        eff_.gpu |= ce.gpu;
        eff_.allocates |= ce.allocates;
        eff_.frees |= ce.frees;
        eff_.prints |= ce.prints;
    }

    void walkIntrinsic(TypeScope& s, const IntrinsicExpr& n) {
        auto arg = [&](size_t i) -> SRoot { return classify(s, *n.args[i]); };
        switch (n.op) {
        case Intrinsic::MpiSendF32: eff_.sends = true; read(arg(0)); break;
        case Intrinsic::MpiRecvF32: eff_.receives = true; write(arg(0)); break;
        case Intrinsic::MpiSendRecvF32:
            eff_.sends = eff_.receives = true;
            read(arg(0));
            write(arg(4));
            break;
        case Intrinsic::MpiBcastF32:
            eff_.collectives = true;
            read(arg(0));
            write(arg(0));
            break;
        case Intrinsic::MpiIrecvF32: eff_.postsIrecv = true; write(arg(0)); break;
        case Intrinsic::MpiWait: eff_.waits = true; break;
        case Intrinsic::MpiBarrier: case Intrinsic::MpiAllreduceSumF64:
        case Intrinsic::MpiAllreduceMaxF64:
            eff_.collectives = true;
            break;
        case Intrinsic::GpuMemcpyH2DF32: eff_.gpu = true; write(arg(0)); read(arg(1)); break;
        case Intrinsic::GpuMemcpyD2HF32: eff_.gpu = true; write(arg(0)); read(arg(1)); break;
        case Intrinsic::GpuMemcpyH2DOffF32: eff_.gpu = true; write(arg(0)); read(arg(2)); break;
        case Intrinsic::GpuMemcpyD2HOffF32: eff_.gpu = true; write(arg(0)); read(arg(2)); break;
        case Intrinsic::GpuMallocF32: eff_.gpu = eff_.allocates = true; break;
        case Intrinsic::GpuFree: eff_.gpu = eff_.frees = true; break;
        case Intrinsic::CudaSharedF32: eff_.gpu = true; break;
        case Intrinsic::CkptSaveF32: eff_.ckpt = true; read(arg(0)); break;
        case Intrinsic::CkptLoadF32: eff_.ckpt = true; write(arg(0)); break;
        case Intrinsic::FreeArray: eff_.frees = true; break;
        case Intrinsic::PrintI64: case Intrinsic::PrintF64: eff_.prints = true; break;
        default: break;
        }
    }

    void walkExpr(TypeScope& s, const Expr& e) {
        forEachChild(e, [&](const Expr& c) { walkExpr(s, c); });
        switch (e.kind) {
        case ExprKind::Call: {
            const auto& n = as<CallExpr>(e);
            Type rt = typeOf(s, *n.recv);
            if (rt.isClass()) {
                for (const auto& [owner, m] : resolveVirtual(prog_, rt.className(), n.method)) {
                    (void)owner;
                    auto it = summaries_.find(m);
                    if (it != summaries_.end()) mergeCallee(s, it->second, n.recv.get(), n.args);
                }
            }
            return;
        }
        case ExprKind::StaticCall: {
            const auto& n = as<StaticCallExpr>(e);
            if (const ClassDecl* owner = prog_.methodOwner(n.cls, n.method)) {
                if (const Method* m = owner->ownMethod(n.method)) {
                    auto it = summaries_.find(m);
                    if (it != summaries_.end()) mergeCallee(s, it->second, nullptr, n.args);
                }
            }
            return;
        }
        case ExprKind::IntrinsicCall: walkIntrinsic(s, as<IntrinsicExpr>(e)); return;
        case ExprKind::ArrayGet: read(classify(s, *as<ArrayGetExpr>(e).arr)); return;
        case ExprKind::NewArray: eff_.allocates = true; return;
        default: return;
        }
    }

    void walkBlock(TypeScope& s, const Block& b) {
        for (const auto& st : b) walkStmt(s, *st);
    }

    void walkStmt(TypeScope& s, const Stmt& st) {
        switch (st.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(st);
            if (n.init) {
                walkExpr(s, *n.init);
                bind(n.name, classify(s, *n.init));
            } else {
                bind(n.name, SRoot::unknown());
            }
            s.declare(n.name, n.type);
            return;
        }
        case StmtKind::AssignLocal: {
            const auto& n = as<AssignLocalStmt>(st);
            walkExpr(s, *n.value);
            bind(n.name, classify(s, *n.value));
            return;
        }
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(st);
            walkExpr(s, *n.obj);
            walkExpr(s, *n.value);
            return;
        }
        case StmtKind::ArraySet: {
            const auto& n = as<ArraySetStmt>(st);
            walkExpr(s, *n.arr);
            walkExpr(s, *n.idx);
            walkExpr(s, *n.value);
            write(classify(s, *n.arr));
            return;
        }
        case StmtKind::If: {
            const auto& n = as<IfStmt>(st);
            walkExpr(s, *n.cond);
            s.push();
            roots_.push_back({});
            walkBlock(s, n.thenB);
            roots_.pop_back();
            s.pop();
            s.push();
            roots_.push_back({});
            walkBlock(s, n.elseB);
            roots_.pop_back();
            s.pop();
            return;
        }
        case StmtKind::While: {
            const auto& n = as<WhileStmt>(st);
            walkExpr(s, *n.cond);
            s.push();
            roots_.push_back({});
            walkBlock(s, n.body);
            roots_.pop_back();
            s.pop();
            return;
        }
        case StmtKind::For: {
            const auto& n = as<ForStmt>(st);
            s.push();
            roots_.push_back({});
            walkExpr(s, *n.init);
            s.declare(n.var, n.varType);
            walkExpr(s, *n.cond);
            walkExpr(s, *n.step);
            s.push();
            roots_.push_back({});
            walkBlock(s, n.body);
            roots_.pop_back();
            s.pop();
            roots_.pop_back();
            s.pop();
            return;
        }
        case StmtKind::Return:
            if (const auto& n = as<ReturnStmt>(st); n.value) walkExpr(s, *n.value);
            return;
        case StmtKind::ExprStmt: walkExpr(s, *as<ExprStmt>(st).e); return;
        case StmtKind::SuperCtor:
            for (const auto& a : as<SuperCtorStmt>(st).args) walkExpr(s, *a);
            return;
        }
    }

    const Program& prog_;
    const std::map<const Method*, Effects>& summaries_;
    Effects eff_;
    std::vector<std::map<std::string, SRoot>> roots_;
};

} // namespace

bool Effects::merge(const Effects& o) {
    const Effects before = *this;
    readsParams.insert(o.readsParams.begin(), o.readsParams.end());
    writesParams.insert(o.writesParams.begin(), o.writesParams.end());
    readsFields.insert(o.readsFields.begin(), o.readsFields.end());
    writesFields.insert(o.writesFields.begin(), o.writesFields.end());
    writesUnknown |= o.writesUnknown;
    sends |= o.sends;
    receives |= o.receives;
    postsIrecv |= o.postsIrecv;
    waits |= o.waits;
    collectives |= o.collectives;
    ckpt |= o.ckpt;
    gpu |= o.gpu;
    allocates |= o.allocates;
    frees |= o.frees;
    prints |= o.prints;
    return !(*this == before);
}

std::string Effects::str() const {
    std::string out = "reads{";
    for (int i : readsParams) out += "p" + std::to_string(i) + ",";
    for (const auto& f : readsFields) out += f + ",";
    out += "} writes{";
    for (int i : writesParams) out += "p" + std::to_string(i) + ",";
    for (const auto& f : writesFields) out += f + ",";
    if (writesUnknown) out += "?";
    out += "}";
    if (usesComm()) {
        out += " comm{";
        if (sends) out += "send,";
        if (receives) out += "recv,";
        if (postsIrecv) out += "irecv,";
        if (waits) out += "wait,";
        if (collectives) out += "coll,";
        out += "}";
    }
    if (ckpt || gpu || allocates || frees || prints) {
        out += " side{";
        if (ckpt) out += "ckpt,";
        if (gpu) out += "gpu,";
        if (allocates) out += "alloc,";
        if (frees) out += "free,";
        if (prints) out += "print,";
        out += "}";
    }
    return out;
}

std::map<const Method*, Effects> computeEffects(const Program& prog) {
    std::map<const Method*, Effects> summaries;
    std::vector<std::pair<const ClassDecl*, const Method*>> bodies;
    for (const ClassDecl* c : prog.classes()) {
        for (const auto& m : c->methods) {
            if (m->isAbstract) continue;
            bodies.push_back({c, m.get()});
            summaries[m.get()] = Effects{};
        }
    }
    // Bottom-up fixed point over the call graph. Rule-compliant programs
    // have an acyclic graph and converge in depth(graph) rounds; the cap
    // guards lint inputs that violate rule 6.
    for (int round = 0; round < 32; ++round) {
        bool changed = false;
        for (const auto& [c, m] : bodies) {
            MethodWalker w(prog, summaries);
            try {
                Effects next = w.walk(*c, *m);
                changed |= summaries[m].merge(next);
            } catch (const WjError&) {
                // Ill-typed body (lint input): no summary, stays empty.
            }
        }
        if (!changed) break;
    }
    return summaries;
}

} // namespace wj::analysis

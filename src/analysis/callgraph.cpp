#include "analysis/callgraph.h"

#include "ir/typecheck.h"

namespace wj::analysis {

namespace {

class GraphWalker {
public:
    GraphWalker(const Program& prog) : prog_(prog) {}

    void collect(const ClassDecl& c, const Method& m, std::set<std::string>& out) {
        TypeScope scope(prog_, m.isStatic ? nullptr : &c, m);
        walkBlock(scope, m.body, out);
    }

private:
    void walkBlock(TypeScope& s, const Block& b, std::set<std::string>& out) {
        for (const auto& st : b) walkStmt(s, *st, out);
    }

    void addVirtualTargets(TypeScope& s, const CallExpr& n, std::set<std::string>& out) {
        Type rt = typeOf(s, *n.recv);
        if (!rt.isClass()) return;
        for (const auto& [owner, m] : resolveVirtual(prog_, rt.className(), n.method)) {
            (void)m;
            out.insert(owner->name + "." + n.method);
        }
    }

    void walkExpr(TypeScope& s, const Expr& e, std::set<std::string>& out) {
        // A `new` runs the callee constructor; rule 6 treats ctors as
        // call-free (definition 3(d)), so only its arguments add edges.
        if (e.kind == ExprKind::Call) {
            addVirtualTargets(s, as<CallExpr>(e), out);
        } else if (e.kind == ExprKind::StaticCall) {
            const auto& n = as<StaticCallExpr>(e);
            const ClassDecl* owner = prog_.methodOwner(n.cls, n.method);
            if (owner) out.insert(owner->name + "." + n.method);
        }
        forEachChild(e, [&](const Expr& c) { walkExpr(s, c, out); });
    }

    void walkStmt(TypeScope& s, const Stmt& st, std::set<std::string>& out) {
        switch (st.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(st);
            if (n.init) walkExpr(s, *n.init, out);
            s.declare(n.name, n.type);
            return;
        }
        case StmtKind::AssignLocal:
            walkExpr(s, *as<AssignLocalStmt>(st).value, out);
            return;
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(st);
            walkExpr(s, *n.obj, out);
            walkExpr(s, *n.value, out);
            return;
        }
        case StmtKind::ArraySet: {
            const auto& n = as<ArraySetStmt>(st);
            walkExpr(s, *n.arr, out);
            walkExpr(s, *n.idx, out);
            walkExpr(s, *n.value, out);
            return;
        }
        case StmtKind::If: {
            const auto& n = as<IfStmt>(st);
            walkExpr(s, *n.cond, out);
            s.push();
            walkBlock(s, n.thenB, out);
            s.pop();
            s.push();
            walkBlock(s, n.elseB, out);
            s.pop();
            return;
        }
        case StmtKind::While: {
            const auto& n = as<WhileStmt>(st);
            walkExpr(s, *n.cond, out);
            s.push();
            walkBlock(s, n.body, out);
            s.pop();
            return;
        }
        case StmtKind::For: {
            const auto& n = as<ForStmt>(st);
            s.push();
            walkExpr(s, *n.init, out);
            s.declare(n.var, n.varType);
            walkExpr(s, *n.cond, out);
            walkExpr(s, *n.step, out);
            s.push();
            walkBlock(s, n.body, out);
            s.pop();
            s.pop();
            return;
        }
        case StmtKind::Return:
            if (const auto& n = as<ReturnStmt>(st); n.value) walkExpr(s, *n.value, out);
            return;
        case StmtKind::ExprStmt: walkExpr(s, *as<ExprStmt>(st).e, out); return;
        case StmtKind::SuperCtor:
            for (const auto& a : as<SuperCtorStmt>(st).args) walkExpr(s, *a, out);
            return;
        }
    }

    const Program& prog_;
};

} // namespace

std::vector<std::pair<const ClassDecl*, const Method*>>
resolveVirtual(const Program& prog, const std::string& className, const std::string& method) {
    std::vector<std::pair<const ClassDecl*, const Method*>> out;
    std::set<const ClassDecl*> seen;
    for (const ClassDecl* impl : prog.concreteSubtypes(className)) {
        const ClassDecl* owner = prog.methodOwner(impl->name, method);
        if (!owner || seen.count(owner)) continue;
        const Method* m = owner->ownMethod(method);
        if (m && !m->isAbstract) {
            seen.insert(owner);
            out.push_back({owner, m});
        }
    }
    return out;
}

CallGraph buildCallGraph(const Program& prog, bool wootinjOnly) {
    CallGraph cg;
    GraphWalker w(prog);
    for (const ClassDecl* c : prog.classes()) {
        if (wootinjOnly && !c->wootinj) continue;
        for (const auto& m : c->methods) {
            if (m->isAbstract) continue;
            w.collect(*c, *m, cg.edges[c->name + "." + m->name]);
        }
    }
    return cg;
}

} // namespace wj::analysis

#include "analysis/analysis.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>

#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/effects.h"
#include "analysis/interval.h"
#include "ir/intrinsics.h"
#include "ir/printer.h"
#include "ir/typecheck.h"

namespace wj::analysis {

bool exprHasEffects(const Expr& e) {
    switch (e.kind) {
    case ExprKind::Call:
    case ExprKind::StaticCall:
    case ExprKind::IntrinsicCall:
    case ExprKind::New:
    case ExprKind::NewArray: return true;
    default: break;
    }
    bool eff = false;
    forEachChild(e, [&](const Expr& c) { eff = eff || exprHasEffects(c); });
    return eff;
}

namespace {

// ---------------------------------------------------------------- utilities

std::string strBound(int64_t v) {
    if (v == Itv::kNegInf) return "-inf";
    if (v == Itv::kPosInf) return "+inf";
    return std::to_string(v);
}

std::string strItv(const Itv& v) {
    return "[" + strBound(v.lo) + ", " + strBound(v.hi) + "]";
}

/// "Cls.field" keyed by the class in `cls`'s superclass chain that declares
/// the field (so FloatGrid.cur and a subclass's view of it share one key).
std::string fieldKeyOf(const Program& prog, const std::string& cls, const std::string& field) {
    const ClassDecl* c = prog.cls(cls);
    while (c) {
        if (c->ownField(field)) return c->name + "." + field;
        c = c->superName.empty() ? nullptr : prog.cls(c->superName);
    }
    return cls + "." + field;  // unresolvable: private key, still deterministic
}

/// Collects every local name read by an expression tree.
void collectReads(const Expr& e, std::vector<std::string>& out) {
    if (e.kind == ExprKind::Local) out.push_back(as<LocalExpr>(e).name);
    forEachChild(e, [&](const Expr& c) { collectReads(c, out); });
}

/// Local names a CFG node reads (in its expressions, before its own defs).
std::vector<std::string> nodeReads(const CfgNode& nd) {
    std::vector<std::string> out;
    auto reads = [&](const Expr& e) { collectReads(e, out); };
    switch (nd.kind) {
    case CfgNode::Kind::Entry:
    case CfgNode::Kind::Exit: break;
    case CfgNode::Kind::Branch: reads(*nd.cond); break;
    case CfgNode::Kind::ForInit: reads(*nd.forS->init); break;
    case CfgNode::Kind::ForStep: reads(*nd.forS->step); break;
    case CfgNode::Kind::Stmt:
        // If/While/For become Branch and ForInit/ForStep nodes, so a Stmt
        // node never has a nested block.
        forEachChild(*nd.stmt, reads, [](const Block&) {});
        break;
    }
    return out;
}

/// Local name a node defines, if any; `uninit` is set for a Decl without an
/// initializer (which *revokes* definite assignment of the name — the IR
/// reuses names across sibling scopes).
const std::string* nodeDef(const CfgNode& nd, bool& uninit) {
    uninit = false;
    switch (nd.kind) {
    case CfgNode::Kind::ForInit:
    case CfgNode::Kind::ForStep: return &nd.forS->var;
    case CfgNode::Kind::Stmt:
        if (nd.stmt->kind == StmtKind::Decl) {
            const auto& n = as<DeclStmt>(*nd.stmt);
            uninit = n.init == nullptr;
            return &n.name;
        }
        if (nd.stmt->kind == StmtKind::AssignLocal) return &as<AssignLocalStmt>(*nd.stmt).name;
        return nullptr;
    default: return nullptr;
    }
}

// ------------------------------------------------------- definite assignment

/// Forward must-analysis: the set of locals definitely assigned on every
/// path into a node. Join is set intersection; `reach` distinguishes the
/// bottom element (no path yet) from "reached with nothing assigned".
struct DaState {
    bool reach = false;
    std::set<std::string> assigned;
};

struct DaDomain {
    const Cfg& cfg;
    DaState entryState;

    using State = DaState;
    State boundary() { return entryState; }

    State transfer(int node, State s) {
        if (!s.reach) return s;
        bool uninit = false;
        if (const std::string* def = nodeDef(cfg.nodes[node], uninit)) {
            if (uninit) {
                s.assigned.erase(*def);
            } else {
                s.assigned.insert(*def);
            }
        }
        return s;
    }

    void refine(const CfgEdge&, State&) {}

    bool join(State& into, const State& from) {
        if (!from.reach) return false;
        if (!into.reach) {
            into = from;
            return true;
        }
        std::set<std::string> meet;
        std::set_intersection(into.assigned.begin(), into.assigned.end(), from.assigned.begin(),
                              from.assigned.end(), std::inserter(meet, meet.begin()));
        if (meet == into.assigned) return false;
        into.assigned = std::move(meet);
        return true;
    }

    void widen(State&, const State&) {}  // finite lattice
};

// ------------------------------------------------------------ live variables

/// Backward may-analysis for the dead-store warning. The solver's in[] for a
/// backward direction holds the state at the node's OUT edge — i.e. live-out.
struct LiveDomain {
    const Cfg& cfg;

    using State = std::set<std::string>;
    State boundary() { return {}; }

    State transfer(int node, State s) {
        bool uninit = false;
        if (const std::string* def = nodeDef(cfg.nodes[node], uninit)) s.erase(*def);
        for (const std::string& r : nodeReads(cfg.nodes[node])) s.insert(r);
        return s;
    }

    void refine(const CfgEdge&, State&) {}

    bool join(State& into, const State& from) {
        bool changed = false;
        for (const std::string& v : from) changed |= into.insert(v).second;
        return changed;
    }

    void widen(State&, const State&) {}
};

} // namespace

std::vector<Violation> checkDefiniteAssignment(const Program& prog, const ClassDecl& cls,
                                               const Method& m,
                                               std::vector<Violation>* warnings) {
    (void)prog;
    std::vector<Violation> errors;
    if (m.isAbstract) return errors;
    const std::string where = cls.name + "." + (m.isCtor() ? "<init>" : m.name);

    const Cfg cfg = Cfg::build(m);

    DaDomain da{cfg, {}};
    da.entryState.reach = true;
    for (const Param& p : m.params) da.entryState.assigned.insert(p.name);
    const auto states = solve(cfg, da, Direction::Forward);

    std::set<std::string> reported;
    for (int node : cfg.rpo()) {
        const DaState& in = states[node];
        if (!in.reach) continue;  // unreachable code: nothing to report
        for (const std::string& name : nodeReads(cfg.nodes[node])) {
            if (in.assigned.count(name)) continue;
            if (!reported.insert(name).second) continue;
            errors.push_back({"uninit", where,
                              "local '" + name + "' may be read before it is assigned"});
        }
    }

    if (warnings) {
        LiveDomain live{cfg};
        const auto liveOut = solve(cfg, live, Direction::Backward);
        for (size_t node = 0; node < cfg.nodes.size(); ++node) {
            const CfgNode& nd = cfg.nodes[node];
            if (nd.kind != CfgNode::Kind::Stmt || nd.stmt->kind != StmtKind::AssignLocal) continue;
            const auto& st = as<AssignLocalStmt>(*nd.stmt);
            if (liveOut[node].count(st.name)) continue;
            if (exprHasEffects(*st.value)) continue;  // keep the computation's effects
            warnings->push_back({"dead-store", where,
                                 "value stored to '" + st.name + "' is never read"});
        }
    }
    return errors;
}

// ======================================================== interval analysis

namespace {

struct AbsObj;
using AbsObjPtr = std::shared_ptr<AbsObj>;

/// One abstract value covering every WJ type:
///   numerics  — `num` (floats are always top; only the *type* matters)
///   arrays    — `len` interval + `roots` allocation-site set (empty set =
///               unknown provenance, may alias anything)
///   objects   — `objs` points-to set (empty = unknown object)
///   requests  — `tokens`, the MpiIrecvF32 sites an `int` request may carry
struct AVal {
    Type type = Type::voidTy();
    Itv num = Itv::top();
    Itv len = Itv::top();
    std::set<int> roots;
    std::vector<AbsObjPtr> objs;
    std::set<const void*> tokens;
};

/// An abstract object: exact class plus per-field abstract values. Produced
/// either from a concrete interpreter Obj (jit entry analysis) or by
/// abstractly executing a constructor at a `new` site.
struct AbsObj {
    const ClassDecl* cls = nullptr;
    std::map<std::string, AVal> fields;
};

constexpr size_t kMaxRoots = 8;
constexpr size_t kMaxObjs = 4;
constexpr size_t kMaxTokens = 8;
constexpr int kMaxInlineDepth = 48;

bool joinAVal(AVal& a, const AVal& b) {
    bool changed = false;
    if (a.type.isVoid() && !b.type.isVoid()) {
        a.type = b.type;
        changed = true;
    }
    const Itv n = a.num.join(b.num);
    if (n != a.num) {
        a.num = n;
        changed = true;
    }
    const Itv l = a.len.join(b.len);
    if (l != a.len) {
        a.len = l;
        changed = true;
    }
    // Roots: empty means "unknown, intersects everything" — absorbing.
    if (!a.roots.empty()) {
        if (b.roots.empty()) {
            a.roots.clear();
            changed = true;
        } else {
            for (int r : b.roots) changed |= a.roots.insert(r).second;
            if (a.roots.size() > kMaxRoots) {
                a.roots.clear();
                changed = true;
            }
        }
    }
    if (!a.objs.empty()) {
        if (b.objs.empty() && b.type.isClass()) {
            a.objs.clear();
            changed = true;
        } else {
            for (const AbsObjPtr& o : b.objs) {
                if (std::find(a.objs.begin(), a.objs.end(), o) == a.objs.end()) {
                    a.objs.push_back(o);
                    changed = true;
                }
            }
            if (a.objs.size() > kMaxObjs) {
                a.objs.clear();
                changed = true;
            }
        }
    }
    if (!a.tokens.empty() || !b.tokens.empty()) {
        for (const void* t : b.tokens) changed |= a.tokens.insert(t).second;
        if (a.tokens.size() > kMaxTokens) a.tokens.clear();
    }
    return changed;
}

/// The abstract environment at a program point.
struct Env {
    bool reach = false;  // default-constructed = bottom
    std::map<std::string, AVal> vars;
};

bool joinEnv(Env& a, const Env& b) {
    if (!b.reach) return false;
    if (!a.reach) {
        a = b;
        return true;
    }
    bool changed = false;
    for (const auto& [k, v] : b.vars) {
        auto it = a.vars.find(k);
        if (it == a.vars.end()) {
            a.vars.emplace(k, v);
            changed = true;
        } else {
            changed |= joinAVal(it->second, v);
        }
    }
    return changed;
}

void widenEnv(Env& s, const Env& prev) {
    if (!s.reach || !prev.reach) return;
    for (auto& [k, v] : s.vars) {
        auto it = prev.vars.find(k);
        if (it == prev.vars.end()) continue;
        v.num = v.num.widen(it->second.num);
        v.len = v.len.widen(it->second.len);
    }
}

// ----------------------------------------------------- mutated field groups

/// Which array fields are reassigned after construction, and which fields
/// can alias each other through those reassignments (the double-buffer swap
/// `t = cur; cur = nxt; nxt = t` puts cur and nxt in one group). A read of a
/// mutated field on a known object is the join of that object's values over
/// its whole group; a group is "open" (unknown) when some store's source
/// could not be traced to a same-object field.
class FieldGroups {
public:
    void build(const Program& prog) {
        for (const ClassDecl* cls : prog.classes()) {
            if (cls->ctor) scanMethod(prog, *cls, *cls->ctor, /*inCtor=*/true);
            for (const auto& m : cls->methods) {
                if (!m->isAbstract) scanMethod(prog, *cls, *m, /*inCtor=*/false);
            }
        }
    }

    bool isMutated(const std::string& key) const { return mutated_.count(key) > 0; }
    bool isOpen(const std::string& key) const { return open_.count(find(key)) > 0; }

    /// Every key in `key`'s group (including itself).
    std::vector<std::string> groupOf(const std::string& key) const {
        const std::string leader = find(key);
        std::vector<std::string> out;
        for (const auto& [k, _] : parent_) {
            if (find(k) == leader) out.push_back(k);
        }
        if (out.empty()) out.push_back(key);
        return out;
    }

private:
    // Union-find over field keys.
    std::string find(const std::string& k) const {
        auto it = parent_.find(k);
        if (it == parent_.end() || it->second == k) return k;
        return find(it->second);
    }
    void ensure(const std::string& k) {
        if (!parent_.count(k)) parent_[k] = k;
    }
    void unite(const std::string& a, const std::string& b) {
        ensure(a);
        ensure(b);
        const std::string ra = find(a), rb = find(b);
        if (ra == rb) return;
        const bool openUnion = open_.count(ra) || open_.count(rb);
        parent_[ra] = rb;
        if (openUnion) open_.insert(rb);
    }
    void markOpen(const std::string& k) {
        ensure(k);
        open_.insert(find(k));
    }

    void scanMethod(const Program& prog, const ClassDecl& cls, const Method& m, bool inCtor) {
        // Per-method syntactic bindings: array local -> traced source field
        // keys, or nullopt meaning "untraceable".
        std::map<std::string, std::optional<std::set<std::string>>> localSrc;

        auto traceExpr = [&](const Expr& e) -> std::optional<std::set<std::string>> {
            if (e.kind == ExprKind::FieldGet) {
                const auto& fg = as<FieldGetExpr>(e);
                if (fg.obj->kind == ExprKind::This) {
                    return std::set<std::string>{fieldKeyOf(prog, cls.name, fg.field)};
                }
                return std::nullopt;
            }
            if (e.kind == ExprKind::Local) {
                auto it = localSrc.find(as<LocalExpr>(e).name);
                if (it != localSrc.end()) return it->second;
                return std::nullopt;
            }
            return std::nullopt;  // NewArray, calls, ... — not a same-object field
        };

        std::function<void(const Block&)> walk = [&](const Block& b) {
            for (const auto& stp : b) {
                const Stmt& st = *stp;
                switch (st.kind) {
                case StmtKind::Decl: {
                    const auto& n = as<DeclStmt>(st);
                    if (n.type.isArray()) localSrc[n.name] = n.init ? traceExpr(*n.init) : std::nullopt;
                    break;
                }
                case StmtKind::AssignLocal: {
                    const auto& n = as<AssignLocalStmt>(st);
                    if (localSrc.count(n.name)) localSrc[n.name] = traceExpr(*n.value);
                    break;
                }
                case StmtKind::FieldSet: {
                    const auto& n = as<FieldSetStmt>(st);
                    const bool selfStore = n.obj->kind == ExprKind::This;
                    if (inCtor && selfStore) break;  // construction, not mutation
                    // Which field? Only array fields matter (rule: post-ctor
                    // stores are legal only for arrays anyway).
                    const std::string key = fieldKeyOf(
                        prog, selfStore ? cls.name : staticClassOf(prog, cls, m, *n.obj), n.field);
                    mutated_.insert(key);
                    ensure(key);
                    if (!selfStore) {
                        markOpen(key);
                        break;
                    }
                    auto src = traceExpr(*n.value);
                    if (!src) {
                        markOpen(key);
                    } else {
                        for (const std::string& s : *src) unite(key, s);
                    }
                    break;
                }
                case StmtKind::If: {
                    const auto& n = as<IfStmt>(st);
                    walk(n.thenB);
                    walk(n.elseB);
                    break;
                }
                case StmtKind::While: walk(as<WhileStmt>(st).body); break;
                case StmtKind::For: walk(as<ForStmt>(st).body); break;
                default: break;
                }
            }
        };
        try {
            walk(m.body);
        } catch (const WjError&) {
            // Ill-typed lint input; the typechecker reports it separately.
        }
    }

    /// Static class of a FieldSet receiver for keying; best effort (falls
    /// back to a per-class private key when untypeable).
    static std::string staticClassOf(const Program& prog, const ClassDecl& cls, const Method& m,
                                     const Expr& obj) {
        try {
            TypeScope scope(prog, &cls, m);
            const Type t = typeOf(scope, obj);
            if (t.isClass()) return t.className();
        } catch (const WjError&) {
        }
        return cls.name;
    }

    std::map<std::string, std::string> parent_;
    std::set<std::string> mutated_;
    std::set<std::string> open_;  // group leaders with untraceable stores
};

// ------------------------------------------------------------------ engine

struct Pending;  // race-walk state, defined below

class Engine {
public:
    // The SIMD verdict for element loops depends on the data layout the
    // translator will actually emit, so the prover takes the same `soa`
    // option codegen takes (see translate() in jit/codegen.cpp).
    Engine(const Program& prog, Result& out, bool lint, bool soa)
        : prog_(prog), out_(out), lint_(lint), soaOn_(soa) {
        groups_.build(prog);
        effects_ = computeEffects(prog);
    }

    void runEntry(const Value& receiver, const std::string& method, const std::vector<Value>& args);
    void runLint();

    // -- shared helpers used by the dataflow domain (public for the local
    //    domain struct; everything lives in an anonymous namespace anyway).
    AVal evalExpr(Env& env, const Expr& e);
    void stmtTransfer(Env& env, const Stmt& st, AVal* retJoin, bool* retSet);
    void refineGuard(Env& env, const Expr& cond, bool sense);

private:
    // ---- identity of abstract array allocations
    int rootOf(const void* site) {
        auto it = rootIds_.find(site);
        if (it != rootIds_.end()) return it->second;
        const int id = nextRoot_++;
        rootIds_.emplace(site, id);
        return id;
    }

    AVal unknownOf(const Type& t) {
        AVal v;
        v.type = t;
        if (t.isArray()) v.len = Itv::atLeast(0);
        if (t.isPrim(Prim::Bool)) v.num = Itv::range(0, 1);
        return v;
    }

    // ---- conversion of concrete interpreter values (jit-entry analysis)
    AVal absOfValue(const Value& v, const Type& declared);
    AbsObjPtr absOfObj(const ObjRef& ref);

    /// Re-joins mutated-group array fields of a freshly built object so
    /// every later read already sees the over-approximation (cur/nxt swap).
    void normalizeMutatedFields(const AbsObjPtr& o);

    // ---- context-sensitive interprocedural core
    std::string keyOfAVal(const AVal& v) const;
    AVal analyzeCall(const ClassDecl& owner, const Method& m, const AVal* self,
                     const std::vector<AVal>& args);
    AVal evalNew(Env& env, const NewExpr& n);
    void execCtor(const ClassDecl& cls, const AbsObjPtr& obj, const std::vector<AVal>& args);

    AVal readField(const AVal& obj, const std::string& field);
    const Effects& effectsOf(const Method& m) const;
    /// A method a call may run, and the receiver it runs on.
    struct Callee {
        const ClassDecl* owner;
        const Method* m;
        AVal self;
    };
    /// Every method `call` (a Call or StaticCall) may run: a static call's
    /// one target; a virtual call devirtualized through the receiver's
    /// points-to set, or by class hierarchy when no object is known.
    std::vector<Callee> callees(const Expr& call, const AVal& recv);
    AVal evalCall(Env& env, const CallExpr& n);
    AVal evalStaticCall(Env& env, const StaticCallExpr& n);
    AVal evalIntrinsic(Env& env, const IntrinsicExpr& n);
    AVal evalBinary(const BinaryExpr& n, const AVal& l, const AVal& r);

    void recordAccess(const void* site, const AVal& arr, const AVal& idx, bool reachable);

    // ---- loop-parallelization prover (wjrt_parallel_for outlining + lint)
    /// index = k * v + w, where v is the candidate loop variable and w is an
    /// interval covering the iteration-dependent remainder. The fallback for
    /// any expression the structural rules cannot decompose is (k = 0,
    /// w = its node-state interval), which is always sound: the widened
    /// interval covers the value in every iteration, and k = 0 pairs use the
    /// full-footprint overlap test.
    struct LinForm {
        int64_t k = 0;
        Itv w = Itv::top();
    };
    void proveLoops(const std::string& label, const Method& m, const Cfg& cfg,
                    const std::vector<Env>& states);
    /// Proves one counted loop in one context; false when refused.
    /// `vectorOnly` switches the prover into the SIMD-legality mode of the
    /// proveVectors pass: verdicts flow to loopVector instead of
    /// loopParallel, accesses must additionally be unit-stride, and the
    /// alias pairs widen to every may-aliasing written/other pair
    /// (restrict soundness).
    bool proveLoop(const std::string& label, const ForStmt& fs, const Cfg& cfg,
                   const std::vector<Env>& states, bool vectorOnly);
    bool ctorAllowsParallel(const ClassDecl* cls);
    /// Joins one context's proof of `fs` into its mode's verdict map (the
    /// join rules are LoopProof's) and records the loop for the report.
    template <class Proof>
    void note(const ForStmt& fs, const std::string& label, Proof proof);
    void finishLoopReports();
    void finishLayoutReport();

    // ---- communication race walk (structural, per unique method body)
    void raceWalk(const Method& m, Env env);
    void raceBlock(Env& env, const Block& b, std::vector<Pending>& p);
    void raceStmt(Env& env, const Stmt& st, std::vector<Pending>& p);
    void raceExpr(Env& env, const Expr& e, std::vector<Pending>& p);
    void checkWrite(const std::vector<Pending>& p, const std::set<int>& roots, const Itv& region,
                    const void* wsite, const std::string& what);

    std::string where() const {
        return whereStack_.empty() ? std::string("?") : whereStack_.back();
    }

    const Program& prog_;
    Result& out_;
    bool lint_;
    bool soaOn_;  ///< the translator will split Inline classes (TranslateOptions::soa)
    FieldGroups groups_;
    std::map<const Method*, Effects> effects_;

    std::map<const void*, int> rootIds_;
    int nextRoot_ = 1;
    std::map<const Obj*, AbsObjPtr> absMemo_;
    std::map<std::string, AbsObjPtr> newMemo_;
    std::map<std::string, AVal> callMemo_;
    std::set<std::string> inProgress_;
    int depth_ = 0;

    std::set<const Method*> daDone_;
    std::set<const Method*> raceDone_;
    std::set<std::pair<const void*, const void*>> raceReported_;
    std::set<const void*> oobReported_;
    std::set<const void*> loopWarned_;
    std::vector<std::string> whereStack_;

    std::map<const ClassDecl*, bool> ctorParOk_;
    /// Report order: (SIMD mode?, loop) at the loop's first proof per mode.
    std::vector<std::pair<bool, const void*>> loopOrder_;
    std::map<const void*, std::string> loopLabel_;  ///< "Cls.method: for (v)"

    friend struct IntervalDomain;
};

AVal Engine::absOfValue(const Value& v, const Type& declared) {
    if (v.isBool()) {
        AVal r = unknownOf(Type::boolean());
        r.num = Itv::of(v.asBool() ? 1 : 0);
        return r;
    }
    if (v.isI32()) {
        AVal r = unknownOf(Type::i32());
        r.num = Itv::of(v.asI32());
        return r;
    }
    if (v.isI64()) {
        AVal r = unknownOf(Type::i64());
        r.num = Itv::of(v.asI64());
        return r;
    }
    if (v.isF32()) return unknownOf(Type::f32());
    if (v.isF64()) return unknownOf(Type::f64());
    if (v.isArr()) {
        const ArrRef& a = v.asArr();
        if (!a) return unknownOf(declared);
        AVal r;
        r.type = Type::array(a->elem);
        r.len = Itv::of(static_cast<int64_t>(a->data.size()));
        r.roots = {rootOf(a.get())};
        return r;
    }
    if (v.isObj()) {
        const ObjRef& o = v.asObj();
        if (!o) return unknownOf(declared);
        AVal r;
        r.type = Type::cls(o->cls->name);
        r.objs = {absOfObj(o)};
        return r;
    }
    return unknownOf(declared);
}

AbsObjPtr Engine::absOfObj(const ObjRef& ref) {
    auto it = absMemo_.find(ref.get());
    if (it != absMemo_.end()) return it->second;
    AbsObjPtr o = std::make_shared<AbsObj>();
    o->cls = ref->cls;
    absMemo_.emplace(ref.get(), o);  // insert first: object graphs may be cyclic
    for (const auto& [name, val] : ref->fields) {
        const Field* fd = prog_.resolveField(ref->cls->name, name);
        const Type declared = fd ? fd->type : Type::voidTy();
        o->fields.emplace(name, absOfValue(val, declared));
    }
    normalizeMutatedFields(o);
    return o;
}

void Engine::normalizeMutatedFields(const AbsObjPtr& o) {
    if (!o->cls) return;
    for (const Field* fd : prog_.allFields(o->cls->name)) {
        if (!fd->type.isArray()) continue;
        const std::string key = fieldKeyOf(prog_, o->cls->name, fd->name);
        if (!groups_.isMutated(key)) continue;
        if (groups_.isOpen(key)) {
            o->fields[fd->name] = unknownOf(fd->type);
            continue;
        }
        // Closed group: join this object's values across all member fields
        // this object actually has, then assign the join to each of them.
        AVal joined;
        bool first = true;
        std::vector<std::string> members;
        for (const std::string& k : groups_.groupOf(key)) {
            const std::string fname = k.substr(k.find('.') + 1);
            auto fit = o->fields.find(fname);
            if (fit == o->fields.end()) continue;
            members.push_back(fname);
            if (first) {
                joined = fit->second;
                first = false;
            } else {
                joinAVal(joined, fit->second);
            }
        }
        for (const std::string& fname : members) o->fields[fname] = joined;
    }
}

AVal Engine::readField(const AVal& obj, const std::string& field) {
    std::string scls;
    if (!obj.objs.empty()) {
        scls = obj.objs[0]->cls->name;
    } else if (obj.type.isClass()) {
        scls = obj.type.className();
    }
    const Field* fd = scls.empty() ? nullptr : prog_.resolveField(scls, field);
    const Type ft = fd ? fd->type : Type::voidTy();
    if (obj.objs.empty()) return unknownOf(ft);
    AVal r;
    bool first = true;
    for (const AbsObjPtr& o : obj.objs) {
        auto it = o->fields.find(field);
        const AVal v = it != o->fields.end() ? it->second : unknownOf(ft);
        if (first) {
            r = v;
            first = false;
        } else {
            joinAVal(r, v);
        }
    }
    if (r.type.isVoid()) r.type = ft;
    return r;
}

std::string Engine::keyOfAVal(const AVal& v) const {
    std::ostringstream os;
    os << v.type.str() << '/' << v.num.lo << ':' << v.num.hi << '/' << v.len.lo << ':' << v.len.hi
       << "/r";
    for (int r : v.roots) os << r << ',';
    os << "/o";
    for (const AbsObjPtr& o : v.objs) os << o.get() << ',';
    os << "/t" << v.tokens.size();
    return os.str();
}

/// The dataflow client for one method body at one calling context.
struct IntervalDomain {
    Engine& eng;
    const Cfg& cfg;
    Env entryEnv;
    AVal ret;
    bool retSet = false;

    using State = Env;
    State boundary() { return entryEnv; }

    State transfer(int node, State s) {
        if (!s.reach) return s;
        const CfgNode& nd = cfg.nodes[node];
        switch (nd.kind) {
        case CfgNode::Kind::Entry:
        case CfgNode::Kind::Exit: break;
        case CfgNode::Kind::Branch: eng.evalExpr(s, *nd.cond); break;
        case CfgNode::Kind::ForInit: {
            AVal v = eng.evalExpr(s, *nd.forS->init);
            v.type = nd.forS->varType;
            s.vars[nd.forS->var] = std::move(v);
            break;
        }
        case CfgNode::Kind::ForStep: {
            AVal v = eng.evalExpr(s, *nd.forS->step);
            v.type = nd.forS->varType;
            s.vars[nd.forS->var] = std::move(v);
            break;
        }
        case CfgNode::Kind::Stmt: eng.stmtTransfer(s, *nd.stmt, &ret, &retSet); break;
        }
        return s;
    }

    void refine(const CfgEdge& e, State& s) {
        if (e.guard && s.reach) eng.refineGuard(s, *e.guard, e.sense);
    }

    bool join(State& into, const State& from) { return joinEnv(into, from); }
    void widen(State& s, const State& prev) { widenEnv(s, prev); }
};

AVal Engine::analyzeCall(const ClassDecl& owner, const Method& m, const AVal* self,
                         const std::vector<AVal>& args) {
    if (m.isAbstract) return unknownOf(m.ret);

    if (daDone_.insert(&m).second) {
        auto errs = checkDefiniteAssignment(prog_, owner, m, &out_.warnings);
        out_.errors.insert(out_.errors.end(), errs.begin(), errs.end());
    }

    std::ostringstream ks;
    ks << &m << '|';
    if (self) ks << keyOfAVal(*self);
    ks << '|';
    for (const AVal& a : args) ks << keyOfAVal(a) << ';';
    const std::string key = ks.str();

    auto memo = callMemo_.find(key);
    if (memo != callMemo_.end()) return memo->second;
    if (inProgress_.count(key) || depth_ > kMaxInlineDepth) {
        // Recursive context (rule 6 forbids it for @WootinJ code, but lint
        // inputs may contain it) or pathological depth: give up soundly.
        return unknownOf(m.ret);
    }
    inProgress_.insert(key);
    ++depth_;
    whereStack_.push_back(owner.name + "." + m.name);

    Env entry;
    entry.reach = true;
    if (self) entry.vars.emplace("@this", *self);
    for (size_t i = 0; i < m.params.size(); ++i) {
        AVal v = i < args.size() ? args[i] : unknownOf(m.params[i].type);
        if (v.type.isVoid()) v.type = m.params[i].type;
        entry.vars.emplace(m.params[i].name, std::move(v));
    }

    const Cfg cfg = Cfg::build(m);
    IntervalDomain dom{*this, cfg, entry, unknownOf(m.ret), false};
    const auto nodeStates = solve(cfg, dom, Direction::Forward);

    AVal ret = dom.retSet || m.ret.isVoid() ? dom.ret : unknownOf(m.ret);
    if (ret.type.isVoid() && !m.ret.isVoid()) ret.type = m.ret;

    // Race walk: once per unique body, in the first context that reaches it.
    if (effectsOf(m).usesComm() && raceDone_.insert(&m).second) {
        raceWalk(m, entry);
    }

    // Loop-parallelization proof in this context; verdicts join across
    // contexts (memoized contexts were already folded in the first time).
    if (!m.isGlobal) proveLoops(owner.name + "." + m.name, m, cfg, nodeStates);

    whereStack_.pop_back();
    --depth_;
    inProgress_.erase(key);
    callMemo_.emplace(std::move(key), ret);
    return ret;
}

AVal Engine::evalNew(Env& env, const NewExpr& n) {
    std::vector<AVal> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) args.push_back(evalExpr(env, *a));

    const ClassDecl* cls = prog_.cls(n.cls);
    if (!cls) return unknownOf(Type::cls(n.cls));

    std::ostringstream ks;
    ks << &n << '|';
    for (const AVal& a : args) ks << keyOfAVal(a) << ';';
    const std::string key = ks.str();
    auto memo = newMemo_.find(key);
    if (memo != newMemo_.end()) {
        AVal r;
        r.type = Type::cls(cls->name);
        r.objs = {memo->second};
        return r;
    }

    AbsObjPtr o = std::make_shared<AbsObj>();
    o->cls = cls;
    execCtor(*cls, o, args);
    normalizeMutatedFields(o);
    newMemo_.emplace(std::move(key), o);

    AVal r;
    r.type = Type::cls(cls->name);
    r.objs = {o};
    return r;
}

void Engine::execCtor(const ClassDecl& cls, const AbsObjPtr& obj, const std::vector<AVal>& args) {
    auto allUnknown = [&] {
        obj->fields.clear();
        if (!obj->cls) return;
        for (const Field* fd : prog_.allFields(obj->cls->name)) {
            obj->fields[fd->name] = unknownOf(fd->type);
        }
    };

    if (!cls.ctor) {
        // Implicit no-arg ctor: Java default values. Walk the chain so
        // inherited fields are covered too.
        for (const Field* fd : prog_.allFields(cls.name)) {
            if (obj->fields.count(fd->name)) continue;
            AVal v = unknownOf(fd->type);
            if (fd->type.isPrim() && !fd->type.isFloating()) v.num = Itv::of(0);
            obj->fields[fd->name] = std::move(v);
        }
        return;
    }

    const Method& ctor = *cls.ctor;
    if (daDone_.insert(&ctor).second) {
        auto errs = checkDefiniteAssignment(prog_, cls, ctor, &out_.warnings);
        out_.errors.insert(out_.errors.end(), errs.begin(), errs.end());
    }
    if (depth_ > kMaxInlineDepth) {
        allUnknown();
        return;
    }
    ++depth_;
    whereStack_.push_back(cls.name + ".<init>");

    Env env;
    env.reach = true;
    {
        AVal selfV;
        selfV.type = Type::cls(obj->cls ? obj->cls->name : cls.name);
        selfV.objs = {obj};
        env.vars.emplace("@this", std::move(selfV));
    }
    for (size_t i = 0; i < ctor.params.size(); ++i) {
        AVal v = i < args.size() ? args[i] : unknownOf(ctor.params[i].type);
        if (v.type.isVoid()) v.type = ctor.params[i].type;
        env.vars.emplace(ctor.params[i].name, std::move(v));
    }

    // Abstract ctor execution is straight-line only; any control flow bails
    // to all-unknown fields (none of the paper's library ctors branch).
    bool bailed = false;
    for (const auto& stp : ctor.body) {
        const Stmt& st = *stp;
        if (st.kind == StmtKind::If || st.kind == StmtKind::While || st.kind == StmtKind::For) {
            bailed = true;
            break;
        }
        switch (st.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(st);
            env.vars[n.name] = n.init ? evalExpr(env, *n.init) : unknownOf(n.type);
            break;
        }
        case StmtKind::AssignLocal: {
            const auto& n = as<AssignLocalStmt>(st);
            env.vars[n.name] = evalExpr(env, *n.value);
            break;
        }
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(st);
            AVal v = evalExpr(env, *n.value);
            if (n.obj->kind == ExprKind::This) {
                obj->fields[n.field] = std::move(v);
            } else {
                evalExpr(env, *n.obj);  // cross-object ctor store: rare; evaluate only
            }
            break;
        }
        case StmtKind::SuperCtor: {
            const auto& n = as<SuperCtorStmt>(st);
            std::vector<AVal> superArgs;
            superArgs.reserve(n.args.size());
            for (const auto& a : n.args) superArgs.push_back(evalExpr(env, *a));
            if (const ClassDecl* sup = cls.superName.empty() ? nullptr : prog_.cls(cls.superName)) {
                execCtor(*sup, obj, superArgs);
            }
            break;
        }
        case StmtKind::ArraySet: {
            const auto& n = as<ArraySetStmt>(st);
            const AVal a = evalExpr(env, *n.arr);
            const AVal i = evalExpr(env, *n.idx);
            evalExpr(env, *n.value);
            recordAccess(&st, a, i, env.reach);
            break;
        }
        case StmtKind::ExprStmt: evalExpr(env, *as<ExprStmt>(st).e); break;
        case StmtKind::Return: break;
        default: break;
        }
        if (st.kind == StmtKind::Return) break;
    }
    if (bailed) allUnknown();

    whereStack_.pop_back();
    --depth_;
}

const Effects& Engine::effectsOf(const Method& m) const {
    static const Effects kNone{};
    auto it = effects_.find(&m);
    return it != effects_.end() ? it->second : kNone;
}

AVal Engine::evalExpr(Env& env, const Expr& e) {
    switch (e.kind) {
    case ExprKind::Const: {
        const auto& n = as<ConstExpr>(e);
        AVal r = unknownOf(n.type);
        if (n.type.isPrim() && !n.type.isFloating()) r.num = Itv::of(n.i);
        return r;
    }
    case ExprKind::Local: {
        const auto& n = as<LocalExpr>(e);
        auto it = env.vars.find(n.name);
        return it != env.vars.end() ? it->second : AVal{};
    }
    case ExprKind::This: {
        auto it = env.vars.find("@this");
        return it != env.vars.end() ? it->second : AVal{};
    }
    case ExprKind::FieldGet: {
        const auto& n = as<FieldGetExpr>(e);
        return readField(evalExpr(env, *n.obj), n.field);
    }
    case ExprKind::StaticGet: {
        const auto& n = as<StaticGetExpr>(e);
        const StaticField* sf = prog_.resolveStatic(n.cls, n.field);
        if (!sf) return AVal{};
        AVal r = unknownOf(sf->type);
        if (sf->type.isPrim() && !sf->type.isFloating()) r.num = Itv::of(sf->i);
        return r;
    }
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        const AVal a = evalExpr(env, *n.arr);
        const AVal i = evalExpr(env, *n.idx);
        recordAccess(&n, a, i, env.reach);
        // Element contents are not tracked.
        return unknownOf(a.type.isArray() ? a.type.elem() : Type::voidTy());
    }
    case ExprKind::ArrayLen: {
        const auto& n = as<ArrayLenExpr>(e);
        const AVal a = evalExpr(env, *n.arr);
        AVal r = unknownOf(Type::i32());
        r.num = a.len.meetGe(0);
        if (r.num.hi > INT32_MAX) r.num.hi = INT32_MAX;  // wj_array.len is int32
        if (r.num.empty()) r.num = Itv::range(0, INT32_MAX);
        return r;
    }
    case ExprKind::Unary: {
        const auto& n = as<UnaryExpr>(e);
        const AVal v = evalExpr(env, *n.e);
        AVal r = unknownOf(v.type);
        if (n.op == UnOp::Neg && v.type.isIntegral()) {
            r.num = v.num.neg();
            if (v.type.isPrim(Prim::I32) && !r.num.fitsI32()) r.num = Itv::top();
        } else if (n.op == UnOp::Not) {
            r.type = Type::boolean();
            if (v.num == Itv::of(0)) {
                r.num = Itv::of(1);
            } else if (v.num == Itv::of(1)) {
                r.num = Itv::of(0);
            } else {
                r.num = Itv::range(0, 1);
            }
        }
        return r;
    }
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        const AVal l = evalExpr(env, *n.l);
        const AVal r = evalExpr(env, *n.r);
        return evalBinary(n, l, r);
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        evalExpr(env, *n.c);
        AVal t = evalExpr(env, *n.t);
        const AVal f = evalExpr(env, *n.f);
        joinAVal(t, f);
        return t;
    }
    case ExprKind::Call: return evalCall(env, as<CallExpr>(e));
    case ExprKind::StaticCall: return evalStaticCall(env, as<StaticCallExpr>(e));
    case ExprKind::New: return evalNew(env, as<NewExpr>(e));
    case ExprKind::NewArray: {
        const auto& n = as<NewArrayExpr>(e);
        const AVal lv = evalExpr(env, *n.len);
        AVal r;
        r.type = Type::array(n.elem);
        r.roots = {rootOf(&n)};
        const Itv len = lv.num.meetGe(0);
        r.len = len.empty() ? Itv::atLeast(0) : len;
        return r;
    }
    case ExprKind::Cast: {
        const auto& n = as<CastExpr>(e);
        AVal v = evalExpr(env, *n.e);
        v.type = n.type;
        if (n.type.isPrim()) {
            v.objs.clear();
            v.roots.clear();
            v.len = Itv::top();
            switch (n.type.prim()) {
            case Prim::I32:
                if (!v.num.fitsI32()) v.num = Itv::top();
                break;
            case Prim::I64: break;  // widening from i32/bool keeps the interval
            case Prim::F32:
            case Prim::F64: v.num = Itv::top(); break;
            case Prim::Bool: break;
            }
        }
        return v;
    }
    case ExprKind::IntrinsicCall: return evalIntrinsic(env, as<IntrinsicExpr>(e));
    }
    return AVal{};
}

AVal Engine::evalBinary(const BinaryExpr& n, const AVal& l, const AVal& r) {
    // Result type: comparisons/logicals are bool; arithmetic follows the
    // wider operand (matches the typechecker's promotion).
    if (isComparison(n.op) || isLogical(n.op)) {
        AVal b = unknownOf(Type::boolean());
        if (l.type.isIntegral() && r.type.isIntegral()) {
            // Decide constant outcomes when the intervals are disjoint.
            const Itv& a = l.num;
            const Itv& c = r.num;
            auto always = [&](bool v) { b.num = Itv::of(v ? 1 : 0); };
            switch (n.op) {
            case BinOp::Lt:
                if (a.hiFinite() && c.loFinite() && a.hi < c.lo) always(true);
                else if (a.loFinite() && c.hiFinite() && a.lo >= c.hi) always(false);
                break;
            case BinOp::Le:
                if (a.hiFinite() && c.loFinite() && a.hi <= c.lo) always(true);
                else if (a.loFinite() && c.hiFinite() && a.lo > c.hi) always(false);
                break;
            case BinOp::Gt:
                if (a.loFinite() && c.hiFinite() && a.lo > c.hi) always(true);
                else if (a.hiFinite() && c.loFinite() && a.hi <= c.lo) always(false);
                break;
            case BinOp::Ge:
                if (a.loFinite() && c.hiFinite() && a.lo >= c.hi) always(true);
                else if (a.hiFinite() && c.loFinite() && a.hi < c.lo) always(false);
                break;
            case BinOp::Eq:
                if (a.isConst() && c.isConst() && a.lo == c.lo) always(true);
                else if ((a.hiFinite() && c.loFinite() && a.hi < c.lo) ||
                         (a.loFinite() && c.hiFinite() && a.lo > c.hi)) always(false);
                break;
            case BinOp::Ne:
                if (a.isConst() && c.isConst() && a.lo == c.lo) always(false);
                else if ((a.hiFinite() && c.loFinite() && a.hi < c.lo) ||
                         (a.loFinite() && c.hiFinite() && a.lo > c.hi)) always(true);
                break;
            default: break;
            }
        }
        return b;
    }

    const Type ty = l.type.isPrim(Prim::I64) || r.type.isPrim(Prim::I64)
                        ? Type::i64()
                        : (l.type.isIntegral() && r.type.isIntegral() ? Type::i32() : l.type);
    AVal out = unknownOf(ty);
    if (!ty.isIntegral()) return out;  // float arithmetic: top

    const Itv& a = l.num;
    const Itv& b = r.num;
    Itv res = Itv::top();
    switch (n.op) {
    case BinOp::Add: res = a.add(b); break;
    case BinOp::Sub: res = a.sub(b); break;
    case BinOp::Mul: res = a.mul(b); break;
    case BinOp::Rem: res = a.rem(b); break;
    case BinOp::Div: {
        // Only when the divisor's sign is definite and excludes zero.
        if (b.loFinite() && b.lo >= 1 && b.hiFinite()) {
            if (a.loFinite() && a.hiFinite()) {
                const int64_t c[4] = {a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi};
                res = {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
            } else if (a.loFinite() && a.lo >= 0) {
                res = Itv::atLeast(0);
            }
        }
        break;
    }
    case BinOp::BitAnd:
        if (a.loFinite() && a.lo >= 0 && b.loFinite() && b.lo >= 0) {
            res = Itv::range(0, std::min(a.hi, b.hi));
        }
        break;
    default: break;  // shifts, BitOr, BitXor: top
    }

    if (ty.isPrim(Prim::I32)) {
        if (!res.fitsI32()) res = Itv::top();  // C i32 wraps; don't trust partial bounds
    } else if (res != Itv::top()) {
        // i64: a saturated bound computed from fully finite operands means a
        // real overflow happened — the C result wrapped, so give up.
        const bool finiteIn = a.loFinite() && a.hiFinite() && b.loFinite() && b.hiFinite();
        if (finiteIn && (!res.loFinite() || !res.hiFinite())) res = Itv::top();
    }
    out.num = res;
    return out;
}

AVal Engine::evalCall(Env& env, const CallExpr& n) {
    const AVal recv = evalExpr(env, *n.recv);
    std::vector<AVal> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) args.push_back(evalExpr(env, *a));

    AVal ret;
    bool first = true;
    for (const Callee& c : callees(n, recv)) {
        const AVal r = analyzeCall(*c.owner, *c.m, &c.self, args);
        if (first) {
            ret = r;
            first = false;
        } else {
            joinAVal(ret, r);
        }
    }
    if (first) {
        // No resolvable target (interface with no impls, ill-typed input).
        const Method* m =
            recv.type.isClass() ? prog_.resolveMethod(recv.type.className(), n.method) : nullptr;
        return unknownOf(m ? m->ret : Type::voidTy());
    }
    return ret;
}

std::vector<Engine::Callee> Engine::callees(const Expr& call, const AVal& recv) {
    std::vector<Callee> out;
    auto resolve = [&](const std::string& cls, const std::string& method, AVal self) {
        const ClassDecl* owner = prog_.methodOwner(cls, method);
        if (const Method* m = owner ? owner->ownMethod(method) : nullptr) {
            out.push_back({owner, m, std::move(self)});
        }
    };
    if (call.kind == ExprKind::StaticCall) {
        resolve(as<StaticCallExpr>(call).cls, as<StaticCallExpr>(call).method, {});
        return out;
    }
    const std::string& method = as<CallExpr>(call).method;
    if (!recv.objs.empty()) {
        for (const AbsObjPtr& o : recv.objs) {
            AVal self;
            self.type = Type::cls(o->cls->name);
            self.objs = {o};
            resolve(o->cls->name, method, std::move(self));
        }
    } else if (recv.type.isClass()) {
        for (const auto& [owner, m] : resolveVirtual(prog_, recv.type.className(), method)) {
            out.push_back({owner, m, unknownOf(Type::cls(owner->name))});
        }
    }
    return out;
}

AVal Engine::evalStaticCall(Env& env, const StaticCallExpr& n) {
    std::vector<AVal> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) args.push_back(evalExpr(env, *a));
    const ClassDecl* owner = prog_.methodOwner(n.cls, n.method);
    const Method* m = owner ? owner->ownMethod(n.method) : nullptr;
    if (!owner || !m) return AVal{};
    return analyzeCall(*owner, *m, nullptr, args);
}

AVal Engine::evalIntrinsic(Env& env, const IntrinsicExpr& n) {
    std::vector<AVal> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) args.push_back(evalExpr(env, *a));

    AVal r = unknownOf(intrinsicSig(n.op).ret);
    switch (n.op) {
    case Intrinsic::MpiRank:
    case Intrinsic::CudaThreadIdxX:
    case Intrinsic::CudaThreadIdxY:
    case Intrinsic::CudaThreadIdxZ:
    case Intrinsic::CudaBlockIdxX:
    case Intrinsic::CudaBlockIdxY:
    case Intrinsic::CudaBlockIdxZ: r.num = Itv::atLeast(0); break;
    case Intrinsic::MpiSize:
    case Intrinsic::CudaBlockDimX:
    case Intrinsic::CudaBlockDimY:
    case Intrinsic::CudaBlockDimZ:
    case Intrinsic::CudaGridDimX:
    case Intrinsic::CudaGridDimY:
    case Intrinsic::CudaGridDimZ: r.num = Itv::atLeast(1); break;
    case Intrinsic::MpiIrecvF32:
        r.num = Itv::atLeast(0);
        r.tokens = {&n};
        break;
    case Intrinsic::GpuMallocF32: {
        r.roots = {rootOf(&n)};
        const Itv len = args.empty() ? Itv::atLeast(0) : args[0].num.meetGe(0);
        r.len = len.empty() ? Itv::atLeast(0) : len;
        break;
    }
    case Intrinsic::CudaSharedF32:
        r.roots = {rootOf(&n)};
        r.len = Itv::atLeast(0);
        break;
    default: break;
    }
    return r;
}

void Engine::stmtTransfer(Env& env, const Stmt& st, AVal* retJoin, bool* retSet) {
    switch (st.kind) {
    case StmtKind::Decl: {
        const auto& n = as<DeclStmt>(st);
        env.vars[n.name] = n.init ? evalExpr(env, *n.init) : unknownOf(n.type);
        break;
    }
    case StmtKind::AssignLocal: {
        const auto& n = as<AssignLocalStmt>(st);
        AVal v = evalExpr(env, *n.value);
        auto it = env.vars.find(n.name);
        if (v.type.isVoid() && it != env.vars.end()) v.type = it->second.type;
        env.vars[n.name] = std::move(v);
        break;
    }
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(st);
        evalExpr(env, *n.obj);
        evalExpr(env, *n.value);
        // The store itself is modeled by the mutated-field groups: reads of
        // the field already see the group join, so no strong update here.
        break;
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(st);
        const AVal a = evalExpr(env, *n.arr);
        const AVal i = evalExpr(env, *n.idx);
        evalExpr(env, *n.value);
        recordAccess(&n, a, i, env.reach);
        break;
    }
    case StmtKind::Return: {
        const auto& n = as<ReturnStmt>(st);
        if (n.value) {
            const AVal v = evalExpr(env, *n.value);
            if (retJoin) {
                if (*retSet) {
                    joinAVal(*retJoin, v);
                } else {
                    *retJoin = v;
                    *retSet = true;
                }
            }
        }
        break;
    }
    case StmtKind::ExprStmt: evalExpr(env, *as<ExprStmt>(st).e); break;
    default: break;  // If/While/For are CFG structure; SuperCtor only in ctors
    }
}

void Engine::refineGuard(Env& env, const Expr& cond, bool sense) {
    if (!env.reach) return;
    switch (cond.kind) {
    case ExprKind::Unary: {
        const auto& n = as<UnaryExpr>(cond);
        if (n.op == UnOp::Not) refineGuard(env, *n.e, !sense);
        return;
    }
    case ExprKind::Local: {
        const auto& n = as<LocalExpr>(cond);
        auto it = env.vars.find(n.name);
        if (it == env.vars.end() || !it->second.type.isPrim(Prim::Bool)) return;
        const Itv want = Itv::of(sense ? 1 : 0);
        Itv m = it->second.num;
        m.lo = std::max(m.lo, want.lo);
        m.hi = std::min(m.hi, want.hi);
        if (m.empty()) {
            env.reach = false;
        } else {
            it->second.num = m;
        }
        return;
    }
    case ExprKind::Binary: break;
    default: return;
    }

    const auto& n = as<BinaryExpr>(cond);
    if (n.op == BinOp::LAnd) {
        if (sense) {  // both true
            refineGuard(env, *n.l, true);
            refineGuard(env, *n.r, true);
        }
        return;  // !(a && b) gives no conjunctive fact
    }
    if (n.op == BinOp::LOr) {
        if (!sense) {  // both false
            refineGuard(env, *n.l, false);
            refineGuard(env, *n.r, false);
        }
        return;
    }
    if (!isComparison(n.op)) return;

    // Normalize to the op that holds on this edge.
    BinOp op = n.op;
    if (!sense) {
        switch (n.op) {
        case BinOp::Lt: op = BinOp::Ge; break;
        case BinOp::Le: op = BinOp::Gt; break;
        case BinOp::Gt: op = BinOp::Le; break;
        case BinOp::Ge: op = BinOp::Lt; break;
        case BinOp::Eq: op = BinOp::Ne; break;
        case BinOp::Ne: op = BinOp::Eq; break;
        default: return;
        }
    }

    const AVal lv = evalExpr(env, *n.l);
    const AVal rv = evalExpr(env, *n.r);
    if (!lv.type.isIntegral() || !rv.type.isIntegral()) return;

    auto meet = [&](const Expr& side, int64_t lo, int64_t hi) {
        if (side.kind != ExprKind::Local) return;
        auto it = env.vars.find(as<LocalExpr>(side).name);
        if (it == env.vars.end() || !it->second.type.isIntegral()) return;
        Itv m = it->second.num;
        m.lo = std::max(m.lo, lo);
        m.hi = std::min(m.hi, hi);
        if (m.empty()) {
            env.reach = false;
        } else {
            it->second.num = m;
        }
    };
    const int64_t NI = Itv::kNegInf, PI = Itv::kPosInf;
    auto dec = [](int64_t v) { return v == Itv::kPosInf ? v : v - 1; };
    auto inc = [](int64_t v) { return v == Itv::kNegInf ? v : v + 1; };

    switch (op) {
    case BinOp::Lt:  // l < r
        meet(*n.l, NI, dec(rv.num.hi));
        meet(*n.r, inc(lv.num.lo), PI);
        break;
    case BinOp::Le:
        meet(*n.l, NI, rv.num.hi);
        meet(*n.r, lv.num.lo, PI);
        break;
    case BinOp::Gt:  // l > r
        meet(*n.l, inc(rv.num.lo), PI);
        meet(*n.r, NI, dec(lv.num.hi));
        break;
    case BinOp::Ge:
        meet(*n.l, rv.num.lo, PI);
        meet(*n.r, NI, lv.num.hi);
        break;
    case BinOp::Eq:
        meet(*n.l, rv.num.lo, rv.num.hi);
        meet(*n.r, lv.num.lo, lv.num.hi);
        break;
    case BinOp::Ne:
        // Only useful against a constant at an interval endpoint.
        if (rv.num.isConst()) {
            auto it = n.l->kind == ExprKind::Local ? env.vars.find(as<LocalExpr>(*n.l).name)
                                                  : env.vars.end();
            if (it != env.vars.end() && it->second.type.isIntegral()) {
                Itv& m = it->second.num;
                if (m.lo == rv.num.lo && m.loFinite()) m.lo = inc(m.lo);
                if (m.hi == rv.num.lo && m.hiFinite()) m.hi = dec(m.hi);
                if (m.empty()) env.reach = false;
            }
        }
        break;
    default: break;
    }
}

void Engine::recordAccess(const void* site, const AVal& arr, const AVal& idx, bool reachable) {
    if (!reachable) return;
    const Itv& i = idx.num;
    const Itv& len = arr.len;

    Safety s = Safety::Unknown;
    if (i.loFinite() && i.lo >= 0 && i.hiFinite() && len.loFinite() && i.hi < len.lo) {
        s = Safety::Safe;
    } else if (i.hiFinite() && i.hi < 0) {
        s = Safety::OutOfBounds;
    } else if (i.loFinite() && len.hiFinite() && i.lo >= len.hi) {
        s = Safety::OutOfBounds;
    }

    auto [it, inserted] = out_.accessSafety.emplace(site, s);
    if (!inserted && static_cast<int>(s) > static_cast<int>(it->second)) it->second = s;

    if (s == Safety::OutOfBounds && oobReported_.insert(site).second) {
        out_.errors.push_back({"bounds", where(),
                               "array index " + strItv(i) + " is provably outside length " +
                                   strItv(len)});
    }
}

// ------------------------------------------------------ communication races

/// A posted nonblocking receive whose completion has not been awaited.
struct Pending {
    const void* site = nullptr;   ///< the MpiIrecvF32 expression node
    std::set<int> roots;          ///< buffer allocation sites; empty = unknown
    Itv region = Itv::top();      ///< element range [off, off+n-1] being filled
    bool exact = false;           ///< off and n were compile-time constants
};

namespace {

bool rootsMayIntersect(const std::set<int>& a, const std::set<int>& b) {
    if (a.empty() || b.empty()) return true;  // unknown provenance
    for (int r : a) {
        if (b.count(r)) return true;
    }
    return false;
}

bool regionsMayOverlap(const Itv& a, const Itv& b) {
    if (a.empty() || b.empty()) return false;
    const bool aBelow = a.hiFinite() && b.loFinite() && a.hi < b.lo;
    const bool bBelow = b.hiFinite() && a.loFinite() && b.hi < a.lo;
    return !(aBelow || bBelow);
}

Itv regionOf(const Itv& off, const Itv& n) {
    return {off.lo, Itv::satAdd(off.hi, Itv::satAdd(n.hi, -1))};
}

} // namespace

void Engine::checkWrite(const std::vector<Pending>& p, const std::set<int>& roots,
                        const Itv& region, const void* wsite, const std::string& what) {
    for (const Pending& q : p) {
        if (!rootsMayIntersect(q.roots, roots)) continue;
        if (!regionsMayOverlap(q.region, region)) continue;
        if (!raceReported_.insert({q.site, wsite}).second) continue;
        out_.errors.push_back({"halo-race", where(),
                               what + " may overlap a nonblocking receive still in flight "
                                      "(region " + strItv(q.region) + ")"});
    }
}

void Engine::raceWalk(const Method& m, Env env) {
    std::vector<Pending> pending;
    raceBlock(env, m.body, pending);
    if (!pending.empty()) {
        out_.warnings.push_back({"halo-race", where(),
                                 "nonblocking receive still in flight when the method returns"});
    }
}

void Engine::raceBlock(Env& env, const Block& b, std::vector<Pending>& p) {
    for (const auto& stp : b) {
        raceStmt(env, *stp, p);
        if (stp->kind == StmtKind::Return) break;
    }
}

void Engine::raceStmt(Env& env, const Stmt& st, std::vector<Pending>& p) {
    switch (st.kind) {
    case StmtKind::If: {
        const auto& n = as<IfStmt>(st);
        raceExpr(env, *n.cond, p);
        Env envT = env, envF = env;
        std::vector<Pending> pT = p, pF = p;
        raceBlock(envT, n.thenB, pT);
        raceBlock(envF, n.elseB, pF);
        joinEnv(envT, envF);
        env = std::move(envT);
        // Union of the two outcomes (entries already in pT keep their slot).
        for (const Pending& q : pF) {
            const bool dup = std::any_of(pT.begin(), pT.end(),
                                         [&](const Pending& r) { return r.site == q.site; });
            if (!dup) pT.push_back(q);
        }
        p = std::move(pT);
        break;
    }
    case StmtKind::While:
    case StmtKind::For: {
        // Walk the body twice sequentially: double-buffered halo exchanges
        // rotate their buffer aliases once per iteration, and two passes
        // cover both phases without joining the aliases together. Receives
        // must not stay in flight across an iteration boundary.
        const Block* body;
        const ForStmt* fs = nullptr;
        if (st.kind == StmtKind::For) {
            fs = &as<ForStmt>(st);
            body = &fs->body;
            raceExpr(env, *fs->init, p);
            AVal v = evalExpr(env, *fs->init);
            v.type = fs->varType;
            env.vars[fs->var] = std::move(v);
        } else {
            body = &as<WhileStmt>(st).body;
        }
        const Expr& cond = st.kind == StmtKind::For ? *fs->cond : *as<WhileStmt>(st).cond;

        const Env preEnv = env;
        std::set<const void*> entrySites;
        for (const Pending& q : p) entrySites.insert(q.site);

        for (int iter = 0; iter < 2; ++iter) {
            raceExpr(env, cond, p);
            raceBlock(env, *body, p);
            if (fs) {
                raceExpr(env, *fs->step, p);
                AVal v = evalExpr(env, *fs->step);
                v.type = fs->varType;
                env.vars[fs->var] = std::move(v);
            }
            std::vector<Pending> kept;
            bool leaked = false;
            for (Pending& q : p) {
                if (entrySites.count(q.site)) {
                    kept.push_back(std::move(q));
                } else {
                    leaked = true;
                }
            }
            if (leaked && loopWarned_.insert(&st).second) {
                out_.warnings.push_back(
                    {"halo-race", where(),
                     "nonblocking receive posted in a loop body is still in flight at the "
                     "end of the iteration"});
            }
            p = std::move(kept);
        }
        Env joined = preEnv;
        joinEnv(joined, env);
        env = std::move(joined);
        break;
    }
    case StmtKind::Decl: {
        const auto& n = as<DeclStmt>(st);
        if (n.init) raceExpr(env, *n.init, p);
        break;
    }
    case StmtKind::AssignLocal: raceExpr(env, *as<AssignLocalStmt>(st).value, p); break;
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(st);
        raceExpr(env, *n.obj, p);
        raceExpr(env, *n.value, p);
        break;
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(st);
        raceExpr(env, *n.arr, p);
        raceExpr(env, *n.idx, p);
        raceExpr(env, *n.value, p);
        const AVal a = evalExpr(env, *n.arr);
        const AVal i = evalExpr(env, *n.idx);
        checkWrite(p, a.roots, i.num, &st, "array store");
        break;
    }
    case StmtKind::Return: {
        const auto& n = as<ReturnStmt>(st);
        if (n.value) raceExpr(env, *n.value, p);
        break;
    }
    case StmtKind::ExprStmt: raceExpr(env, *as<ExprStmt>(st).e, p); break;
    default: break;
    }
    // Keep the abstract environment in sync for Decl/Assign (strong update).
    if (st.kind == StmtKind::Decl || st.kind == StmtKind::AssignLocal) {
        stmtTransfer(env, st, nullptr, nullptr);
    }
}

void Engine::raceExpr(Env& env, const Expr& e, std::vector<Pending>& p) {
    switch (e.kind) {
    case ExprKind::Const:
    case ExprKind::Local:
    case ExprKind::This:
    case ExprKind::StaticGet: return;
    case ExprKind::FieldGet: raceExpr(env, *as<FieldGetExpr>(e).obj, p); return;
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        raceExpr(env, *n.arr, p);
        raceExpr(env, *n.idx, p);
        return;  // reads of an in-flight buffer are not flagged (see DESIGN.md)
    }
    case ExprKind::ArrayLen: raceExpr(env, *as<ArrayLenExpr>(e).arr, p); return;
    case ExprKind::Unary: raceExpr(env, *as<UnaryExpr>(e).e, p); return;
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        raceExpr(env, *n.l, p);
        raceExpr(env, *n.r, p);
        return;
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        raceExpr(env, *n.c, p);
        raceExpr(env, *n.t, p);
        raceExpr(env, *n.f, p);
        return;
    }
    case ExprKind::Cast: raceExpr(env, *as<CastExpr>(e).e, p); return;
    case ExprKind::New:
        for (const auto& a : as<NewExpr>(e).args) raceExpr(env, *a, p);
        return;  // rule-compliant ctors neither communicate nor write arrays
    case ExprKind::NewArray: raceExpr(env, *as<NewArrayExpr>(e).len, p); return;
    case ExprKind::IntrinsicCall: {
        const auto& n = as<IntrinsicExpr>(e);
        for (const auto& a : n.args) raceExpr(env, *a, p);
        auto argVal = [&](size_t i) {
            return i < n.args.size() ? evalExpr(env, *n.args[i]) : AVal{};
        };
        switch (n.op) {
        case Intrinsic::MpiIrecvF32: {
            const AVal buf = argVal(0);
            const Itv off = argVal(1).num, cnt = argVal(2).num;
            Pending np;
            np.site = &n;
            np.roots = buf.roots;
            np.region = regionOf(off, cnt);
            np.exact = off.isConst() && cnt.isConst();
            // Two receives into provably the same region of provably the
            // same buffer: flagged outright.
            for (const Pending& q : p) {
                if (q.roots.size() == 1 && np.roots.size() == 1 && q.roots == np.roots &&
                    q.exact && np.exact && regionsMayOverlap(q.region, np.region) &&
                    raceReported_.insert({q.site, np.site}).second) {
                    out_.errors.push_back({"halo-race", where(),
                                           "two nonblocking receives into overlapping region " +
                                               strItv(np.region) + " of the same buffer"});
                }
            }
            p.push_back(std::move(np));
            return;
        }
        case Intrinsic::MpiRecvF32: {
            const AVal buf = argVal(0);
            checkWrite(p, buf.roots, regionOf(argVal(1).num, argVal(2).num), &n,
                       "blocking receive");
            return;
        }
        case Intrinsic::MpiSendRecvF32: {
            const AVal rbuf = argVal(4);
            checkWrite(p, rbuf.roots, regionOf(argVal(5).num, argVal(2).num), &n,
                       "sendrecv receive half");
            return;
        }
        case Intrinsic::MpiBcastF32: {
            const AVal buf = argVal(0);
            checkWrite(p, buf.roots, regionOf(argVal(1).num, argVal(2).num), &n, "broadcast");
            return;
        }
        case Intrinsic::MpiWait: {
            const AVal req = argVal(0);
            if (req.tokens.empty()) {
                p.clear();  // unknown request: assume it completes everything
            } else {
                p.erase(std::remove_if(p.begin(), p.end(),
                                       [&](const Pending& q) { return req.tokens.count(q.site); }),
                        p.end());
            }
            return;
        }
        case Intrinsic::GpuMemcpyD2HF32:
            checkWrite(p, argVal(0).roots, regionOf(Itv::of(0), argVal(2).num), &n,
                       "device-to-host copy");
            return;
        case Intrinsic::GpuMemcpyD2HOffF32:
            checkWrite(p, argVal(0).roots, regionOf(argVal(1).num, argVal(4).num), &n,
                       "device-to-host copy");
            return;
        case Intrinsic::GpuMemcpyH2DF32:
            checkWrite(p, argVal(0).roots, regionOf(Itv::of(0), argVal(2).num), &n,
                       "host-to-device copy");
            return;
        case Intrinsic::GpuMemcpyH2DOffF32:
            checkWrite(p, argVal(0).roots, regionOf(argVal(1).num, argVal(4).num), &n,
                       "host-to-device copy");
            return;
        default: return;
        }
    }
    case ExprKind::Call:
    case ExprKind::StaticCall: {
        const CallExpr* vc = e.kind == ExprKind::Call ? &as<CallExpr>(e) : nullptr;
        const StaticCallExpr* sc = vc ? nullptr : &as<StaticCallExpr>(e);
        AVal recv;
        if (vc) {
            raceExpr(env, *vc->recv, p);
            recv = evalExpr(env, *vc->recv);
        }
        const auto& argExprs = vc ? vc->args : sc->args;
        for (const auto& a : argExprs) raceExpr(env, *a, p);

        for (const Callee& c : callees(e, recv)) {
            const Method* m = c.m;
            const Effects& eff = effectsOf(*m);
            for (int j : eff.writesParams) {
                if (j < 0 || static_cast<size_t>(j) >= argExprs.size()) continue;
                const AVal buf = evalExpr(env, *argExprs[j]);
                // Object params: the callee writes arrays *behind* the
                // object; root through its array fields when known.
                std::set<int> roots = buf.roots;
                if (buf.type.isClass()) {
                    roots.clear();
                    bool known = !buf.objs.empty();
                    for (const AbsObjPtr& o : buf.objs) {
                        for (const auto& [fname, fv] : o->fields) {
                            if (!fv.type.isArray()) continue;
                            if (fv.roots.empty()) known = false;
                            roots.insert(fv.roots.begin(), fv.roots.end());
                        }
                    }
                    if (!known) roots.clear();
                }
                checkWrite(p, roots, Itv::top(), &e, "call to " + m->name + " writing argument");
            }
            if (!eff.writesFields.empty()) {
                std::set<int> roots;
                bool known = vc && !recv.objs.empty();
                if (known) {
                    for (const std::string& key : eff.writesFields) {
                        const std::string fname = key.substr(key.find('.') + 1);
                        for (const AbsObjPtr& o : recv.objs) {
                            auto it = o->fields.find(fname);
                            if (it == o->fields.end()) continue;
                            if (it->second.roots.empty()) known = false;
                            roots.insert(it->second.roots.begin(), it->second.roots.end());
                        }
                    }
                }
                if (!known) roots.clear();
                checkWrite(p, roots, Itv::top(), &e, "call to " + m->name + " writing fields");
            }
            if (eff.writesUnknown) {
                checkWrite(p, {}, Itv::top(), &e, "call to " + m->name);
            }
            if (eff.postsIrecv && !eff.waits) {
                out_.warnings.push_back({"halo-race", where(),
                                         "call to " + m->name +
                                             " posts a nonblocking receive it never awaits"});
                Pending np;
                np.site = &e;
                p.push_back(std::move(np));
            } else if (eff.waits) {
                p.clear();  // callee may complete any request
            }
        }
        return;
    }
    }
}

// ------------------------------------------------ loop parallelization

namespace {

/// Syntactic index of one candidate loop body, built in a single recursive
/// walk: the statements/nested-loop pieces whose CFG nodes belong to the
/// body, plus every name (re)bound inside it. `kills` holds names that can
/// never carry a linear form (reassigned, shadow-declared, or nested loop
/// variables); `declCount` finds the shadow declarations.
struct ParBodyIndex {
    std::set<const Stmt*> stmts;
    std::set<const ForStmt*> fors;
    std::set<const Expr*> conds;
    std::set<std::string> defined;
    std::set<std::string> kills;
    std::map<std::string, int> declCount;
};

void indexParBody(const Block& b, ParBodyIndex& ix) {
    for (const auto& stp : b) {
        const Stmt& st = *stp;
        ix.stmts.insert(&st);
        switch (st.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(st);
            ix.defined.insert(n.name);
            if (++ix.declCount[n.name] > 1) ix.kills.insert(n.name);
            break;
        }
        case StmtKind::AssignLocal:
            ix.kills.insert(as<AssignLocalStmt>(st).name);
            break;
        case StmtKind::If: {
            const auto& n = as<IfStmt>(st);
            ix.conds.insert(n.cond.get());
            indexParBody(n.thenB, ix);
            indexParBody(n.elseB, ix);
            break;
        }
        case StmtKind::While: {
            const auto& n = as<WhileStmt>(st);
            ix.conds.insert(n.cond.get());
            indexParBody(n.body, ix);
            break;
        }
        case StmtKind::For: {
            const auto& n = as<ForStmt>(st);
            ix.fors.insert(&n);
            ix.conds.insert(n.cond.get());
            ix.defined.insert(n.var);
            ix.kills.insert(n.var);
            indexParBody(n.body, ix);
            break;
        }
        default: break;
        }
    }
}

/// Any ArrayGet in the tree? (Loop bounds must not read array elements the
/// body could write — the parallel dispatch evaluates the bound once.) The
/// walk also descends into calls and allocations; its one caller ORs it
/// with exprHasEffects, which is already true for any bound containing
/// those, so looking inside them never changes a loop verdict.
bool exprReadsArray(const Expr& e) {
    if (e.kind == ExprKind::ArrayGet) return true;
    bool reads = false;
    forEachChild(e, [&](const Expr& c) { reads = reads || exprReadsArray(c); });
    return reads;
}

bool rangesIntersect(int64_t lo1, int64_t hi1, int64_t lo2, int64_t hi2) {
    return lo1 <= hi2 && lo2 <= hi1;
}

// --------------------------------------------------- reduction recognition
//
// Structural matcher for the two sanctioned `acc = acc op f(i)` shapes
// behind ParVerdict::ParallelReduce (see analysis.h):
//
//   Form A:  acc = acc + e;   acc = e + acc;    (likewise for *)
//   Form B:  if (e cmp acc) acc = e;            (min/max; cmp in < <= > >=)
//
// where `acc` is a local declared outside the loop and `e` never reads
// `acc`. Any other write to an outside local remains a refusal, and
// proveLoop audits that `acc` appears nowhere else in the body, so the
// sanctioned updates are the loop's only cross-iteration scalar flow.

struct RedUpdate {
    std::string var;
    RedOp op = RedOp::Add;
    bool accOnLeft = true;  ///< see analysis.h Reduction
    BinOp cmp = BinOp::Lt;  ///< Min/Max only
};

/// Number of `Local(name)` reads in an expression tree.
int countLocalReads(const Expr& e, const std::string& name) {
    int c = e.kind == ExprKind::Local && as<LocalExpr>(e).name == name ? 1 : 0;
    forEachChild(e, [&](const Expr& x) { c += countLocalReads(x, name); });
    return c;
}

/// Reads of `name` across every expression of a block, including nested
/// control flow (the proveLoop read audit).
int countLocalReadsBlock(const Block& b, const std::string& name) {
    int c = 0;
    for (const auto& st : b) {
        forEachChild(*st, [&](const Expr& e) { c += countLocalReads(e, name); },
                     [&](const Block& sub) { c += countLocalReadsBlock(sub, name); });
    }
    return c;
}

/// One statement rendered on a single line for diagnostics.
std::string stmtOneLine(const Stmt& st) {
    const std::string s = printStmt(st);
    std::string out;
    bool ws = false;
    for (char ch : s) {
        if (ch == '\n' || ch == ' ' || ch == '\t') {
            ws = !out.empty();
            continue;
        }
        if (ws) out += ' ';
        ws = false;
        out += ch;
    }
    return out;
}

const char* redOpName(RedOp op) {
    switch (op) {
    case RedOp::Add: return "+";
    case RedOp::Mul: return "*";
    case RedOp::Min: return "min";
    case RedOp::Max: return "max";
    }
    return "?";
}

/// Form A on one assignment to an outside local.
bool matchFormA(const AssignLocalStmt& n, RedUpdate& u) {
    if (n.value->kind != ExprKind::Binary) return false;
    const auto& b = as<BinaryExpr>(*n.value);
    if (b.op != BinOp::Add && b.op != BinOp::Mul) return false;
    const bool lAcc = b.l->kind == ExprKind::Local && as<LocalExpr>(*b.l).name == n.name;
    const bool rAcc = b.r->kind == ExprKind::Local && as<LocalExpr>(*b.r).name == n.name;
    if (lAcc == rAcc) return false;  // exactly one operand is the accumulator
    if (countLocalReads(lAcc ? *b.r : *b.l, n.name) != 0) return false;
    u.var = n.name;
    u.op = b.op == BinOp::Add ? RedOp::Add : RedOp::Mul;
    u.accOnLeft = lAcc;
    return true;
}

/// Form B on one if-statement; on success `upd` is the sanctioned inner
/// assignment.
bool matchFormB(const IfStmt& n, const ParBodyIndex& ix, const std::string& loopVar,
                const AssignLocalStmt** upd, RedUpdate& u) {
    if (!n.elseB.empty() || n.thenB.size() != 1) return false;
    if (n.thenB[0]->kind != StmtKind::AssignLocal) return false;
    const auto& a = as<AssignLocalStmt>(*n.thenB[0]);
    if (ix.defined.count(a.name) || a.name == loopVar) return false;
    if (n.cond->kind != ExprKind::Binary) return false;
    const auto& c = as<BinaryExpr>(*n.cond);
    if (c.op != BinOp::Lt && c.op != BinOp::Le && c.op != BinOp::Gt && c.op != BinOp::Ge) {
        return false;
    }
    const bool lAcc = c.l->kind == ExprKind::Local && as<LocalExpr>(*c.l).name == a.name;
    const bool rAcc = c.r->kind == ExprKind::Local && as<LocalExpr>(*c.r).name == a.name;
    if (lAcc == rAcc) return false;
    // The compared value must be the stored value, and must not read acc.
    if (printExpr(lAcc ? *c.r : *c.l) != printExpr(*a.value)) return false;
    if (countLocalReads(*a.value, a.name) != 0) return false;
    const bool less = c.op == BinOp::Lt || c.op == BinOp::Le;
    // `acc := e` fires when the comparison holds: `e < acc` keeps the
    // smaller value (Min); `acc < e` keeps the larger (Max).
    u.var = a.name;
    u.op = (lAcc ? !less : less) ? RedOp::Min : RedOp::Max;
    u.accOnLeft = lAcc;
    u.cmp = c.op;
    *upd = &a;
    return true;
}

/// Collects every sanctioned reduction update in `body`, keyed by the
/// update statement. `vars` gets one entry per accumulator in first-update
/// order. Accumulators whose updates mix operators are dropped again —
/// their updates then refuse the loop with the scalar-dependence
/// diagnostic (`acc = (acc + a) * b` split over two statements is an
/// affine recurrence, not a combinable reduction).
void matchRedUpdates(const Block& body, const ParBodyIndex& ix, const std::string& loopVar,
                     std::map<const Stmt*, RedUpdate>& out, std::vector<RedUpdate>& vars) {
    std::vector<std::pair<const Stmt*, RedUpdate>> found;
    std::function<void(const Block&)> walk = [&](const Block& b) {
        for (const auto& stp : b) {
            const Stmt& st = *stp;
            switch (st.kind) {
            case StmtKind::AssignLocal: {
                const auto& n = as<AssignLocalStmt>(st);
                if (ix.defined.count(n.name) || n.name == loopVar) break;
                RedUpdate u;
                if (matchFormA(n, u)) found.emplace_back(&st, std::move(u));
                break;
            }
            case StmtKind::If: {
                const auto& n = as<IfStmt>(st);
                const AssignLocalStmt* upd = nullptr;
                RedUpdate u;
                if (matchFormB(n, ix, loopVar, &upd, u)) {
                    found.emplace_back(upd, std::move(u));
                } else {
                    walk(n.thenB);
                    walk(n.elseB);
                }
                break;
            }
            case StmtKind::While: walk(as<WhileStmt>(st).body); break;
            case StmtKind::For: walk(as<ForStmt>(st).body); break;
            default: break;
            }
        }
    };
    walk(body);

    std::map<std::string, RedOp> opOf;
    std::set<std::string> poisoned;
    for (const auto& [st, u] : found) {
        (void)st;
        auto it = opOf.find(u.var);
        if (it == opOf.end()) {
            opOf.emplace(u.var, u.op);
        } else if (it->second != u.op) {
            poisoned.insert(u.var);
        }
    }
    std::set<std::string> seen;
    for (auto& [st, u] : found) {
        if (poisoned.count(u.var)) continue;
        if (seen.insert(u.var).second) vars.push_back(u);
        out.emplace(st, std::move(u));
    }
}

} // namespace

// Constructors are not covered by the effect summaries (computeEffects
// walks methods only), so `new` inside a parallel body is proven safe
// structurally: the ctor chain must take only primitive parameters and be
// straight-line code that initializes locals and own fields from call-free,
// array-free expressions. That makes every constructed object private to
// its iteration — exactly the wrapper-object pattern (ScalarFloat) the
// translator flattens onto the stack anyway.
bool Engine::ctorAllowsParallel(const ClassDecl* cls) {
    if (!cls) return false;
    auto it = ctorParOk_.find(cls);
    if (it != ctorParOk_.end()) return it->second;
    ctorParOk_[cls] = false;  // refuse cyclic ctor chains while in progress

    std::function<bool(const Expr&)> pure = [&](const Expr& e) -> bool {
        switch (e.kind) {
        case ExprKind::Const:
        case ExprKind::Local:
        case ExprKind::This:
        case ExprKind::StaticGet: return true;
        case ExprKind::FieldGet: return pure(*as<FieldGetExpr>(e).obj);
        case ExprKind::Unary: return pure(*as<UnaryExpr>(e).e);
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            return pure(*n.l) && pure(*n.r);
        }
        case ExprKind::Cond: {
            const auto& n = as<CondExpr>(e);
            return pure(*n.c) && pure(*n.t) && pure(*n.f);
        }
        case ExprKind::Cast: return pure(*as<CastExpr>(e).e);
        case ExprKind::New: {
            const auto& n = as<NewExpr>(e);
            if (!ctorAllowsParallel(prog_.cls(n.cls))) return false;
            for (const auto& a : n.args) {
                if (!pure(*a)) return false;
            }
            return true;
        }
        default: return false;  // calls, intrinsics, array traffic, allocation
        }
    };

    bool ok = true;
    if (cls->ctor) {
        for (const Param& p : cls->ctor->params) ok = ok && p.type.isPrim();
        if (ok) {
            for (const auto& stp : cls->ctor->body) {
                const Stmt& st = *stp;
                switch (st.kind) {
                case StmtKind::Decl: {
                    const auto& n = as<DeclStmt>(st);
                    if (n.init && !pure(*n.init)) ok = false;
                    break;
                }
                case StmtKind::AssignLocal:
                    if (!pure(*as<AssignLocalStmt>(st).value)) ok = false;
                    break;
                case StmtKind::FieldSet: {
                    const auto& n = as<FieldSetStmt>(st);
                    if (n.obj->kind != ExprKind::This || !pure(*n.value)) ok = false;
                    break;
                }
                case StmtKind::SuperCtor: {
                    const auto& n = as<SuperCtorStmt>(st);
                    for (const auto& a : n.args) {
                        if (!pure(*a)) ok = false;
                    }
                    const ClassDecl* sup =
                        cls->superName.empty() ? nullptr : prog_.cls(cls->superName);
                    if (sup && !ctorAllowsParallel(sup)) ok = false;
                    break;
                }
                case StmtKind::Return: break;
                default: ok = false; break;  // control flow, array stores, calls
                }
                if (!ok) break;
            }
        }
    }
    ctorParOk_[cls] = ok;
    return ok;
}

template <class Proof>
void Engine::note(const ForStmt& fs, const std::string& label, Proof proof) {
    constexpr bool simd = std::is_same_v<Proof, LoopVector>;
    auto [it, fresh] = [&] {
        if constexpr (simd) return out_.loopVector.try_emplace(&fs);
        else return out_.loopParallel.try_emplace(&fs);
    }();
    Proof& into = it->second;
    if (fresh) {
        into = std::move(proof);
        loopOrder_.emplace_back(simd, &fs);
        loopLabel_.try_emplace(&fs, label + ": for (" + fs.var + ")");
        return;
    }
    if (into.refused()) return;
    // A refusal in any context poisons the loop. Reduction recognition is
    // structural (same loop, same updates in every context), so contexts
    // that disagree about whether the loop reduces are incomparable: poison.
    if (proof.refused() || proof.reductions.empty() != into.reductions.empty()) {
        into = Proof{};
        into.reason = proof.refused() ? std::move(proof.reason)
                                      : "verdict differs across call contexts";
        return;
    }
    auto unite = [](auto& to, auto& from) {
        for (auto& x : from) {
            if (std::find(to.begin(), to.end(), x) == to.end()) to.push_back(std::move(x));
        }
    };
    unite(into.pairs, proof.pairs);
    unite(into.soaClasses, proof.soaClasses);
    into.exactReductions = into.exactReductions && proof.exactReductions;
    if (proof.guarded() && !into.guarded()) {
        into.verdict = proof.verdict;
        into.reason = std::move(proof.reason);
    }
}

namespace {

const char* verdictName(ParVerdict v) {
    switch (v) {
    case ParVerdict::Parallel: return "parallel";
    case ParVerdict::CondParallel: return "parallel (guarded)";
    case ParVerdict::ParallelReduce: return "parallel (reduction)";
    case ParVerdict::Serial: return "serial";
    }
    return "";
}

const char* verdictName(VecVerdict v) {
    switch (v) {
    case VecVerdict::Vectorizable: return "vectorizable";
    case VecVerdict::CondVectorizable: return "vectorizable (guarded)";
    case VecVerdict::ScalarOnly: return "scalar";
    }
    return "";
}

template <class Proof>
std::string reportLine(const std::string& label, const Proof& p) {
    return label + ": " + verdictName(p.verdict) + " -- " + p.reason;
}

} // namespace

void Engine::finishLoopReports() {
    for (const auto& [simd, fs] : loopOrder_) {
        const std::string& label = loopLabel_.at(fs);
        if (simd) out_.vectorReport.push_back(reportLine(label, out_.loopVector.at(fs)));
        else out_.parallelReport.push_back(reportLine(label, out_.loopParallel.at(fs)));
    }
}

void Engine::finishLayoutReport() {
    for (const auto& [cls, cl] : out_.layoutClasses) {
        std::string line = cls + ": ";
        switch (cl.verdict) {
        case LayoutVerdict::Inline: line += "inline"; break;
        case LayoutVerdict::CondInline: line += "inline (boundary-guarded)"; break;
        case LayoutVerdict::Boxed: line += "boxed"; break;
        }
        line += " -- " + cl.reason;
        out_.layoutReport.push_back(std::move(line));
    }
}

namespace {
/// Does the block contain a loop anywhere (through ifs)? Innermost counted
/// loops — the proveVectors candidates — are exactly the For loops whose
/// bodies answer no.
bool blockHasLoop(const Block& b) {
    for (const auto& stp : b) {
        if (stp->kind == StmtKind::For || stp->kind == StmtKind::While) return true;
        bool loop = false;
        forEachChild(*stp, [](const Expr&) {},
                     [&](const Block& sub) { loop = loop || blockHasLoop(sub); });
        if (loop) return true;
    }
    return false;
}
} // namespace

/// Proves `m`'s counted loops in both modes in one walk. The parallel prover
/// takes the outermost loops, and a refused loop's nested loops are tried
/// instead, so a serial driver loop still gets its compute-heavy inner
/// loops outlined. The SIMD prover takes every innermost loop, including
/// those nested inside proven-parallel loops — their chunk bodies are where
/// the simd codegen consumes the verdicts; it runs after the parallel
/// proofs, in walk order.
void Engine::proveLoops(const std::string& label, const Method& m, const Cfg& cfg,
                        const std::vector<Env>& states) {
    std::vector<const ForStmt*> innermost;
    std::function<void(const Block&, bool)> walk = [&](const Block& b, bool outermost) {
        for (const auto& stp : b) {
            switch (stp->kind) {
            case StmtKind::For: {
                const auto& fs = as<ForStmt>(*stp);
                const bool parallel = outermost && proveLoop(label, fs, cfg, states, false);
                if (blockHasLoop(fs.body)) walk(fs.body, outermost && !parallel);
                else innermost.push_back(&fs);
                break;
            }
            case StmtKind::If:
                walk(as<IfStmt>(*stp).thenB, outermost);
                walk(as<IfStmt>(*stp).elseB, outermost);
                break;
            case StmtKind::While: walk(as<WhileStmt>(*stp).body, outermost); break;
            default: break;
            }
        }
    };
    walk(m.body, true);
    for (const ForStmt* fs : innermost) proveLoop(label, *fs, cfg, states, true);
}

bool Engine::proveLoop(const std::string& label, const ForStmt& fs, const Cfg& cfg,
                       const std::vector<Env>& states, bool vectorOnly) {
    auto refuse = [&](std::string why) {
        if (vectorOnly) note(fs, label, LoopVector{.reason = std::move(why)});
        else note(fs, label, LoopParallel{.reason = std::move(why)});
        return false;
    };

    // ---- candidate shape: `for (v = init; v < bound; v = v + 1)` over an
    //      integral variable — exactly what the forRange/forI32 builders emit.
    if (!fs.varType.isIntegral()) return refuse("loop variable is not integral");
    const auto* condB = fs.cond->kind == ExprKind::Binary ? &as<BinaryExpr>(*fs.cond) : nullptr;
    if (!condB || condB->op != BinOp::Lt || condB->l->kind != ExprKind::Local ||
        as<LocalExpr>(*condB->l).name != fs.var) {
        return refuse("condition is not `" + fs.var + " < bound`");
    }
    const Expr& bound = *condB->r;
    const auto* stepB = fs.step->kind == ExprKind::Binary ? &as<BinaryExpr>(*fs.step) : nullptr;
    const bool unitStep = stepB && stepB->op == BinOp::Add &&
                          stepB->l->kind == ExprKind::Local &&
                          as<LocalExpr>(*stepB->l).name == fs.var &&
                          stepB->r->kind == ExprKind::Const && as<ConstExpr>(*stepB->r).i == 1;
    if (!unitStep) return refuse("step is not `" + fs.var + " + 1`");

    ParBodyIndex ix;
    indexParBody(fs.body, ix);
    if (ix.defined.count(fs.var)) return refuse("body rebinds the loop variable");

    // Sanctioned reduction updates (`acc = acc op f(i)`; see analysis.h).
    // Updates of outside locals not in this map refuse the loop below.
    std::map<const Stmt*, RedUpdate> redUpd;
    std::vector<RedUpdate> redVars;
    matchRedUpdates(fs.body, ix, fs.var, redUpd, redVars);

    // The bound is hoisted and evaluated once by the parallel dispatch, so
    // it must be effect-free, independent of any name the body assigns
    // (including reduction accumulators), and must not read array elements
    // the body could write.
    if (exprHasEffects(bound) || exprReadsArray(bound)) {
        return refuse("bound is not a pure expression");
    }
    {
        std::vector<std::string> reads;
        collectReads(bound, reads);
        for (const std::string& r : reads) {
            if (r == fs.var || ix.defined.count(r) || ix.kills.count(r)) {
                return refuse("bound depends on values computed in the body");
            }
        }
    }

    // ---- locate this loop's CFG pieces and its pre-loop state
    int initNode = -1;
    std::map<const Stmt*, int> stmtNode;
    std::map<const ForStmt*, int> forInitNode, forStepNode;
    std::map<const Expr*, int> condNode;
    for (size_t i = 0; i < cfg.nodes.size(); ++i) {
        const CfgNode& nd = cfg.nodes[i];
        switch (nd.kind) {
        case CfgNode::Kind::Stmt:
            if (ix.stmts.count(nd.stmt)) stmtNode[nd.stmt] = static_cast<int>(i);
            break;
        case CfgNode::Kind::Branch:
            if (ix.conds.count(nd.cond)) condNode[nd.cond] = static_cast<int>(i);
            break;
        case CfgNode::Kind::ForInit:
            if (nd.forS == &fs) initNode = static_cast<int>(i);
            if (ix.fors.count(nd.forS)) forInitNode[nd.forS] = static_cast<int>(i);
            break;
        case CfgNode::Kind::ForStep:
            if (ix.fors.count(nd.forS)) forStepNode[nd.forS] = static_cast<int>(i);
            break;
        default: break;
        }
    }
    if (initNode < 0 || !states[static_cast<size_t>(initNode)].reach) {
        return refuse("loop is unreachable in this context");
    }

    Env preEnv = states[static_cast<size_t>(initNode)];
    const Itv initV = evalExpr(preEnv, *fs.init).num;
    const Itv boundV = evalExpr(preEnv, bound).num;
    const Itv V{initV.lo, Itv::satAdd(boundV.hi, -1)};
    if (V.empty()) return refuse("trip count is zero in every analyzed execution");
    // Largest possible |i - j| between two iterations; 0 means a single
    // iteration, which cannot carry a dependence.
    const int64_t span =
        (V.lo != Itv::kNegInf && V.hi != Itv::kPosInf) ? V.hi - V.lo : Itv::kPosInf;

    // ---- one pass over the body's CFG nodes in reverse postorder:
    //      legality checks, linear-form building, and access collection,
    //      each against that node's fixed-point IN state.
    std::map<std::string, LinForm> lfMap;
    struct PAcc {
        bool isWrite = false;
        std::string name;     ///< local (or dotted field path) the array flows through
        std::set<int> roots;  ///< abstract allocation roots (may be empty)
        int64_t k = 0;
        Itv w = Itv::top();
        Itv foot = Itv::top();   ///< footprint over the whole iteration space
        std::string idxKey;      ///< canonical syntactic form of the index expr
        bool idxStable = false;  ///< idxKey mentions only the loop var + invariant locals
    };
    std::vector<PAcc> accs;
    std::string why;

    // ---- AoS→SoA layout gate (SIMD mode only; the parallel prover is
    // layout-agnostic). An element access `a[i].f` over a class-element
    // array is struct-strided under AoS — each lane's field loads sit
    // sizeof(struct) bytes apart — so it only vectorizes after the
    // proveLayout split, and only for classes the pass cleared. The classes
    // a verdict leans on are carried in LoopVector::soaClasses so the
    // translator and the verdict can never disagree about the layout.
    std::set<std::string> soaNeeded;
    auto classElemOk = [&](Env& env, const Expr& arrE, bool isWrite) -> bool {
        if (!vectorOnly) return true;
        const Type at = evalExpr(env, arrE).type;
        if (!at.isArray() || !at.elem().isClass()) return true;
        const std::string cls = at.elem().className();
        auto it = out_.layoutClasses.find(cls);
        if (it == out_.layoutClasses.end() || it->second.verdict == LayoutVerdict::Boxed) {
            why = std::string(isWrite ? "stores" : "reads") + " '" + cls +
                  "[]' elements that must stay AoS (" +
                  (it == out_.layoutClasses.end() ? "no layout verdict"
                                                  : "layout: " + it->second.reason) +
                  ")";
            return false;
        }
        soaNeeded.insert(cls);
        return true;
    };
    auto soaJoin = [&]() {
        std::string s;
        for (const std::string& c : soaNeeded) s += (s.empty() ? "'" : ", '") + c + "[]'";
        return s;
    };

    // Linear form of an index expression in the candidate variable. Never
    // fails: the fallback (k = 0, node interval) is sound by construction.
    std::function<LinForm(Env&, const Expr&)> linOf = [&](Env& env, const Expr& e) -> LinForm {
        auto fall = [&]() -> LinForm { return {0, evalExpr(env, e).num}; };
        switch (e.kind) {
        case ExprKind::Const: {
            const auto& n = as<ConstExpr>(e);
            if (n.type.isIntegral()) return {0, Itv::of(n.i)};
            return fall();
        }
        case ExprKind::Local: {
            const std::string& nm = as<LocalExpr>(e).name;
            if (nm == fs.var) return {1, Itv::of(0)};
            auto lf = lfMap.find(nm);
            if (lf != lfMap.end()) return lf->second;
            return fall();
        }
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            if (n.op == BinOp::Add || n.op == BinOp::Sub) {
                const LinForm l = linOf(env, *n.l);
                const LinForm r = linOf(env, *n.r);
                int64_t k = 0;
                if (__builtin_add_overflow(l.k, n.op == BinOp::Add ? r.k : -r.k, &k)) {
                    return fall();
                }
                return {k, n.op == BinOp::Add ? l.w.add(r.w) : l.w.sub(r.w)};
            }
            if (n.op == BinOp::Mul) {
                LinForm l = linOf(env, *n.l);
                LinForm r = linOf(env, *n.r);
                if (l.k != 0 && r.k == 0 && r.w.isConst()) std::swap(l, r);
                if (l.k == 0 && l.w.isConst() && l.w.lo != Itv::kNegInf) {
                    int64_t k = 0;
                    if (__builtin_mul_overflow(l.w.lo, r.k, &k)) return fall();
                    return {k, r.w.mul(l.w)};
                }
                if (l.k == 0 && r.k == 0) return {0, l.w.mul(r.w)};
                return fall();
            }
            return fall();
        }
        default: return fall();
        }
    };

    // A local name is loop-invariant when the body neither declares nor
    // assigns it; index expressions over only such names (plus the loop var
    // itself) evaluate identically in every iteration up to the k*i term.
    auto invariantLocal = [&](const std::string& nm) {
        return nm != fs.var && !ix.defined.count(nm) && !ix.kills.count(nm);
    };

    // SIMD mode additionally follows arrays reached through a *stable path*
    // of field loads (`this.cur`, `m.data`): the body cannot contain a
    // FieldSet (refused outright) and every callee that writes state is
    // refused too, so the binding named by the path is the same array in
    // every iteration. Returns the canonical dotted path, or "" when the
    // base is not such a chain (non-invariant root, computed receiver).
    std::function<std::string(const Expr&)> stablePath = [&](const Expr& e) -> std::string {
        switch (e.kind) {
        case ExprKind::This: return "this";
        case ExprKind::Local: {
            const std::string& nm = as<LocalExpr>(e).name;
            return invariantLocal(nm) ? nm : "";
        }
        case ExprKind::FieldGet: {
            const auto& n = as<FieldGetExpr>(e);
            const std::string base = stablePath(*n.obj);
            return base.empty() ? "" : base + "." + n.field;
        }
        default: return "";
        }
    };

    // True when `e` is built purely from constants, the loop variable,
    // invariant locals and stable field loads under arithmetic — then
    // printExpr(e) is a faithful cross-iteration key: two accesses with
    // equal keys touch the SAME address in the same iteration, so with
    // stride k != 0 they can never collide across distinct iterations.
    std::function<bool(const Expr&)> idxIsStable = [&](const Expr& e) -> bool {
        switch (e.kind) {
        case ExprKind::Const: return true;
        case ExprKind::Local: {
            const std::string& nm = as<LocalExpr>(e).name;
            return nm == fs.var || invariantLocal(nm);
        }
        case ExprKind::FieldGet: return !stablePath(e).empty();
        case ExprKind::Unary: return idxIsStable(*as<UnaryExpr>(e).e);
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            return idxIsStable(*n.l) && idxIsStable(*n.r);
        }
        case ExprKind::Cast: return idxIsStable(*as<CastExpr>(e).e);
        default: return false;
        }
    };

    auto fillPAcc = [&](Env& env, PAcc& a, bool isWrite, const std::string& name,
                        const Expr& idx) {
        a.isWrite = isWrite;
        a.name = name;
        const LinForm lf = linOf(env, idx);
        a.k = lf.k;
        a.w = lf.w;
        a.foot = Itv::of(lf.k).mul(V).add(lf.w);
        a.idxKey = printExpr(idx);
        a.idxStable = idxIsStable(idx);
    };

    auto recordPAcc = [&](Env& env, bool isWrite, const std::string& name, const Expr& idx) {
        PAcc a;
        auto vit = env.vars.find(name);
        if (vit != env.vars.end()) a.roots = vit->second.roots;
        fillPAcc(env, a, isWrite, name, idx);
        accs.push_back(std::move(a));
    };

    auto recordPathPAcc = [&](Env& env, bool isWrite, const std::string& path,
                              const Expr& arr, const Expr& idx) {
        PAcc a;
        a.roots = evalExpr(env, arr).roots;  // alias facts come from the abstract heap
        fillPAcc(env, a, isWrite, path, idx);
        accs.push_back(std::move(a));
    };

    // Legality + access collection over one expression tree. Returns false
    // (with `why` set) on the first construct that cannot run off the
    // rank's main thread or whose memory behaviour cannot be bounded.
    std::function<bool(Env&, const Expr&)> checkExpr = [&](Env& env, const Expr& e) -> bool {
        switch (e.kind) {
        case ExprKind::Const:
        case ExprKind::Local:
        case ExprKind::This:
        case ExprKind::StaticGet: return true;
        case ExprKind::FieldGet: return checkExpr(env, *as<FieldGetExpr>(e).obj);
        case ExprKind::ArrayLen: return checkExpr(env, *as<ArrayLenExpr>(e).arr);
        case ExprKind::Unary: return checkExpr(env, *as<UnaryExpr>(e).e);
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            return checkExpr(env, *n.l) && checkExpr(env, *n.r);
        }
        case ExprKind::Cond: {
            const auto& n = as<CondExpr>(e);
            return checkExpr(env, *n.c) && checkExpr(env, *n.t) && checkExpr(env, *n.f);
        }
        case ExprKind::Cast: return checkExpr(env, *as<CastExpr>(e).e);
        case ExprKind::ArrayGet: {
            const auto& n = as<ArrayGetExpr>(e);
            if (!checkExpr(env, *n.arr) || !checkExpr(env, *n.idx)) return false;
            if (!classElemOk(env, *n.arr, /*isWrite=*/false)) return false;
            if (n.arr->kind == ExprKind::Local) {
                recordPAcc(env, false, as<LocalExpr>(*n.arr).name, *n.idx);
                return true;
            }
            if (vectorOnly) {
                const std::string path = stablePath(*n.arr);
                if (!path.empty()) {
                    recordPathPAcc(env, false, path, *n.arr, *n.idx);
                    return true;
                }
            }
            why = "reads an array through a non-local expression";
            return false;
        }
        case ExprKind::New: {
            const auto& n = as<NewExpr>(e);
            for (const auto& a : n.args) {
                if (!checkExpr(env, *a)) return false;
            }
            if (!ctorAllowsParallel(prog_.cls(n.cls))) {
                why = "constructs '" + n.cls + "', whose constructor is not provably iteration-private";
                return false;
            }
            return true;
        }
        case ExprKind::NewArray:
            why = "allocates an array inside the loop";
            return false;
        case ExprKind::IntrinsicCall: {
            const auto& n = as<IntrinsicExpr>(e);
            for (const auto& a : n.args) {
                if (!checkExpr(env, *a)) return false;
            }
            switch (n.op) {
            case Intrinsic::MathExpF64:
                // sqrt/fabs are correctly rounded in SIMD too; exp is a libm
                // call with no bit-exact vector variant, so the lane body
                // would stay a serialized call anyway.
                if (vectorOnly) {
                    why = std::string("calls intrinsic '") + intrinsicSig(n.op).name +
                          "', which has no bit-exact vector variant";
                    return false;
                }
                return true;
            case Intrinsic::MathSqrtF64:
            case Intrinsic::MathFabsF64:
            case Intrinsic::MathSqrtF32:
            case Intrinsic::RngHashF32: return true;
            default:
                why = std::string("calls intrinsic '") + intrinsicSig(n.op).name +
                      "', which must stay on the rank's main thread";
                return false;
            }
        }
        case ExprKind::Call:
        case ExprKind::StaticCall: {
            const CallExpr* vc = e.kind == ExprKind::Call ? &as<CallExpr>(e) : nullptr;
            const StaticCallExpr* sc = vc ? nullptr : &as<StaticCallExpr>(e);
            AVal recv;
            if (vc) {
                if (!checkExpr(env, *vc->recv)) return false;
                recv = evalExpr(env, *vc->recv);
            }
            const auto& argExprs = vc ? vc->args : sc->args;
            for (const auto& a : argExprs) {
                if (!checkExpr(env, *a)) return false;
            }

            const std::vector<Callee> targets = callees(e, recv);
            if (targets.empty()) {
                why = "calls '" + (vc ? vc->method : sc->method) + "', which could not be resolved";
                return false;
            }
            for (const Callee& c : targets) {
                const Method* t = c.m;
                if (t->isGlobal) {
                    why = "launches kernel '" + t->name + "'";
                    return false;
                }
                const Effects& eff = effectsOf(*t);
                if (!eff.writesParams.empty() || !eff.writesFields.empty() || eff.writesUnknown) {
                    why = "calls '" + t->name + "', which may write shared state";
                    return false;
                }
                if (eff.usesComm() || eff.ckpt) {
                    why = "calls '" + t->name + "', which communicates or checkpoints";
                    return false;
                }
                if (eff.gpu || eff.allocates || eff.frees || eff.prints) {
                    why = "calls '" + t->name + "', which has device/alloc/IO effects";
                    return false;
                }
                for (const Param& p : t->params) {
                    if (p.type.isArray()) {
                        why = "calls '" + t->name + "' with an array parameter";
                        return false;
                    }
                }
                // A read of an array *field* inside the callee escapes the
                // index analysis; any element it reads could be written by a
                // collected store. Scalar field reads are fine.
                for (const std::string& fk : eff.readsFields) {
                    const auto dot = fk.find('.');
                    const Field* fd =
                        prog_.resolveField(fk.substr(0, dot), fk.substr(dot + 1));
                    if (!fd || fd->type.isArray()) {
                        why = "calls '" + t->name + "', which reads array field " + fk;
                        return false;
                    }
                }
            }
            return true;
        }
        }
        return true;
    };

    bool legal = true;
    for (int node : cfg.rpo()) {
        const CfgNode& nd = cfg.nodes[static_cast<size_t>(node)];
        int mapped = -1;
        const ForStmt* innerInit = nullptr;
        const ForStmt* innerStep = nullptr;
        const Expr* branchCond = nullptr;
        const Stmt* bodyStmt = nullptr;
        switch (nd.kind) {
        case CfgNode::Kind::Stmt: {
            auto it = stmtNode.find(nd.stmt);
            if (it != stmtNode.end() && it->second == node) bodyStmt = nd.stmt, mapped = node;
            break;
        }
        case CfgNode::Kind::Branch: {
            auto it = condNode.find(nd.cond);
            if (it != condNode.end() && it->second == node) branchCond = nd.cond, mapped = node;
            break;
        }
        case CfgNode::Kind::ForInit: {
            auto it = forInitNode.find(nd.forS);
            if (it != forInitNode.end() && it->second == node) innerInit = nd.forS, mapped = node;
            break;
        }
        case CfgNode::Kind::ForStep: {
            auto it = forStepNode.find(nd.forS);
            if (it != forStepNode.end() && it->second == node) innerStep = nd.forS, mapped = node;
            break;
        }
        default: break;
        }
        if (mapped < 0) continue;
        if (!states[static_cast<size_t>(node)].reach) continue;  // dead body code
        Env env = states[static_cast<size_t>(node)];

        if (branchCond) {
            legal = checkExpr(env, *branchCond);
        } else if (innerInit) {
            legal = checkExpr(env, *innerInit->init);
        } else if (innerStep) {
            legal = checkExpr(env, *innerStep->step);
        } else {
            const Stmt& st = *bodyStmt;
            switch (st.kind) {
            case StmtKind::Decl: {
                const auto& n = as<DeclStmt>(st);
                legal = !n.init || checkExpr(env, *n.init);
                // Single-assignment integral locals carry a linear form so
                // hoisted index bases (`base = z*plane + y*nx`) stay affine.
                if (legal && n.init && n.type.isIntegral() && !ix.kills.count(n.name)) {
                    lfMap[n.name] = linOf(env, *n.init);
                }
                break;
            }
            case StmtKind::AssignLocal: {
                const auto& n = as<AssignLocalStmt>(st);
                if (!ix.defined.count(n.name)) {
                    if (redUpd.count(&st)) {
                        // Sanctioned reduction update: only the rhs needs
                        // the legality walk here; the accumulator itself is
                        // audited after the walk (type + read count).
                        legal = checkExpr(env, *n.value);
                        break;
                    }
                    why = "updates '" + n.name +
                          "' declared outside the loop (loop-carried scalar dependence): `" +
                          stmtOneLine(st) +
                          "` is not a recognized reduction (acc = acc op f(i) over +, *, "
                          "min, max)";
                    legal = false;
                    break;
                }
                legal = checkExpr(env, *n.value);
                break;
            }
            case StmtKind::ArraySet: {
                const auto& n = as<ArraySetStmt>(st);
                legal = checkExpr(env, *n.arr) && checkExpr(env, *n.idx) &&
                        checkExpr(env, *n.value);
                if (!legal) break;
                if (!classElemOk(env, *n.arr, /*isWrite=*/true)) {
                    legal = false;
                    break;
                }
                if (n.arr->kind == ExprKind::Local) {
                    recordPAcc(env, true, as<LocalExpr>(*n.arr).name, *n.idx);
                    break;
                }
                if (vectorOnly) {
                    const std::string path = stablePath(*n.arr);
                    if (!path.empty()) {
                        recordPathPAcc(env, true, path, *n.arr, *n.idx);
                        break;
                    }
                }
                why = "stores to an array through a non-local expression";
                legal = false;
                break;
            }
            case StmtKind::FieldSet:
                why = "stores to an object field";
                legal = false;
                break;
            case StmtKind::Return:
                why = "returns from inside the loop";
                legal = false;
                break;
            case StmtKind::ExprStmt: legal = checkExpr(env, *as<ExprStmt>(st).e); break;
            default:
                why = "unsupported statement";
                legal = false;
                break;
            }
        }
        if (!legal) break;
    }
    if (!legal) return refuse(why.empty() ? "body has unsupported constructs" : why);

    // A tiny outer trip count cannot amortize a parallel dispatch over
    // nested loops; refuse it (after legality, so real defects keep their
    // actionable reason) and proveLoops proves the larger inner loops
    // instead of pinning the whole collapse on the outer one.
    if (!vectorOnly && !ix.fors.empty() && span != Itv::kPosInf && span <= 2) {
        return refuse("outer trip count is at most " + std::to_string(span + 1) +
                      " -- collapsed in favor of its inner loops");
    }

    // ---- SIMD stride audit: lanes pack contiguously only when every store
    // walks the array at unit stride; reads may additionally be loop-
    // invariant (a broadcast). Anything else names the offending access.
    if (vectorOnly) {
        for (const PAcc& a : accs) {
            if (a.k == 1) continue;
            if (a.k == 0 && !a.isWrite) continue;
            return refuse(std::string(a.isWrite ? "store to '" : "read of '") + a.name +
                          "' is not unit-stride in '" + fs.var + "' (stride " +
                          std::to_string(a.k) + ")");
        }
    }

    // ---- reduction audit. Each sanctioned update contributes exactly one
    // read of its accumulator (Form A: the binop operand; Form B: the
    // comparison operand), so the body-wide read count must equal the
    // update count — a mismatch means the accumulator's running value
    // leaks into the body somewhere else, which chunked partials cannot
    // reproduce. The accumulator must be a float/double/long local live
    // before the loop (i32 wrap-around under reassociation is excluded).
    std::vector<Reduction> reds;
    for (const RedUpdate& u : redVars) {
        int sanctioned = 0;
        for (const auto& kv : redUpd) {
            if (kv.second.var == u.var) ++sanctioned;
        }
        if (countLocalReadsBlock(fs.body, u.var) != sanctioned) {
            return refuse("'" + u.var +
                          "' is read outside its reduction update (loop-carried scalar "
                          "dependence)");
        }
        auto vit = preEnv.vars.find(u.var);
        const Type accT = vit == preEnv.vars.end() ? Type::voidTy() : vit->second.type;
        if (!accT.isPrim(Prim::F32) && !accT.isPrim(Prim::F64) && !accT.isPrim(Prim::I64)) {
            return refuse("reduction accumulator '" + u.var + "' has unsupported type '" +
                          (accT.isPrim() ? primName(accT.prim()) : "non-primitive") +
                          "' (supported: long, float, double)");
        }
        Reduction r;
        r.var = u.var;
        r.prim = accT.prim();
        r.op = u.op;
        r.accOnLeft = u.accOnLeft;
        r.cmp = u.cmp;
        reds.push_back(std::move(r));
    }

    // ---- pairwise dependence test over the collected accesses. Two
    // accesses with equal coefficient k collide across iterations i != j
    // exactly when (w2 - w1) can land in ±[|k|, |k|*span]; unequal or
    // unknown coefficients fall back to whole-footprint overlap.
    auto collides = [&](const PAcc& a, const PAcc& b) -> bool {
        if (span <= 0) return false;  // at most one iteration
        // Syntactically identical stable indices address the same element in
        // the same iteration; with a nonzero stride, iterations i != j are
        // then k*(i-j) apart — never a cross-lane collision. This is what
        // lets `cr[i*n+j] = cr[i*n+j] + ...` prove: the interval for the
        // invariant i*n term is wide, but the symbolic difference is 0.
        if (vectorOnly && a.k == b.k && a.k != 0 && a.idxStable && b.idxStable &&
            a.idxKey == b.idxKey) {
            return false;
        }
        if (a.k == b.k) {
            if (a.k == 0) return regionsMayOverlap(a.w, b.w);
            const int64_t mag = a.k < 0 ? Itv::satNeg(a.k) : a.k;
            const int64_t magSpan = Itv::satMul(mag, span);
            const Itv diff = b.w.sub(a.w);
            if (diff.empty()) return false;
            return rangesIntersect(diff.lo, diff.hi, mag, magSpan) ||
                   rangesIntersect(diff.lo, diff.hi, Itv::satNeg(magSpan), Itv::satNeg(mag));
        }
        return regionsMayOverlap(a.foot, b.foot);
    };

    std::set<std::pair<std::string, std::string>> guards;
    for (size_t i = 0; i < accs.size(); ++i) {
        for (size_t j = i; j < accs.size(); ++j) {
            const PAcc& a = accs[i];
            const PAcc& b = accs[j];
            if (!a.isWrite && !b.isWrite) continue;
            if (i == j && !a.isWrite) continue;
            if (a.name == b.name) {
                if (collides(a, b)) {
                    return refuse("accesses to '" + a.name + "' may collide across iterations");
                }
            } else {
                if (!rootsMayIntersect(a.roots, b.roots)) continue;  // provably distinct
                // SIMD mode needs the wider test: hoisting restrict-qualified
                // pointers requires every written array to occupy memory
                // disjoint from every other array it may alias — a same-index
                // store through a second name violates restrict without ever
                // colliding across iterations.
                if (vectorOnly || collides(a, b)) {
                    guards.insert(a.name < b.name ? std::make_pair(a.name, b.name)
                                                  : std::make_pair(b.name, a.name));
                }
            }
        }
    }

    if (!reds.empty() && !guards.empty()) {
        return refuse("reduction over '" + reds[0].var +
                      "' would also need alias guards -- unsupported combination");
    }
    if (vectorOnly && !soaNeeded.empty() && !soaOn_) {
        return refuse("element accesses through " + soaJoin() +
                      " are struct-strided under AoS -- vectorizable under --soa (WJ_SOA=1)");
    }
    const std::string soaNote =
        soaNeeded.empty() ? "" : "; unit-stride via the SoA layout of " + soaJoin();
    auto listPairs = [&](const char* sep) {
        std::string out;
        for (const auto& [a, b] : guards) {
            out += (out.empty() ? "'" : ", '") + a + "'" + sep + "'" + b + "'";
        }
        return out;
    };
    std::string desc;
    bool exact = true;
    if (!reds.empty()) {
        desc = "reduction over ";
        bool first = true;
        for (const Reduction& r : reds) {
            if (!first) desc += ", ";
            desc += "'" + r.var + "' (" + redOpName(r.op) + ", " + primName(r.prim) + ")";
            first = false;
        }
        if (vectorOnly) {
            // min/max select one operand bit-for-bit, and i64 +/* wrap mod
            // 2^64 — both exact under any reassociation, so the lanes may
            // carry a simd reduction clause. f32/f64 +/* are inexact: the
            // loop still vectorizes elementwise, but the accumulator stays
            // on the bitwise chunk-serial combine.
            for (const Reduction& r : reds) {
                if ((r.op == RedOp::Add || r.op == RedOp::Mul) && r.prim != Prim::I64) {
                    exact = false;
                }
            }
            desc += (exact ? " -- exact under reassociation (simd reduction clause)"
                           : " -- f32/f64 reassociation is inexact; accumulator stays "
                             "chunk-serial") +
                    soaNote;
        } else if (lint_) {
            // Without an entry context the interval/alias facts backing the
            // outlined dispatch are too weak; report the recognition so the
            // lint output stays actionable, but degrade to serial — never
            // to an unsound parallel verdict.
            return refuse(desc + " recognized; parallelized when jitted with an entry context");
        } else {
            desc += "; per-chunk partials combined in fixed chunk order";
        }
    } else if (!guards.empty()) {
        desc = vectorOnly ? "lanes are independent provided the data ranges of " +
                                listPairs("/") + " are disjoint (runtime overlap guard)" + soaNote
                          : "iterations are independent provided " + listPairs(" != ") +
                                " (runtime pointer guard)";
    } else if (vectorOnly) {
        desc = soaNeeded.empty() ? "unit-stride accesses; no cross-lane dependence"
                                 : "unit-stride accesses via the SoA layout of " + soaJoin() +
                                       "; no cross-lane dependence";
    } else {
        desc = "no loop-carried dependence";
    }

    const bool guarded = !guards.empty();
    if (vectorOnly) {
        note(fs, label,
             LoopVector{.verdict = guarded ? VecVerdict::CondVectorizable
                                           : VecVerdict::Vectorizable,
                        .reason = std::move(desc),
                        .bound = &bound,
                        .pairs = {guards.begin(), guards.end()},
                        .reductions = std::move(reds),
                        .exactReductions = exact,
                        .soaClasses = {soaNeeded.begin(), soaNeeded.end()}});
    } else {
        const ParVerdict v = guarded        ? ParVerdict::CondParallel
                             : reds.empty() ? ParVerdict::Parallel
                                            : ParVerdict::ParallelReduce;
        note(fs, label,
             LoopParallel{.verdict = v,
                          .reason = std::move(desc),
                          .bound = &bound,
                          .pairs = {guards.begin(), guards.end()},
                          .reductions = std::move(reds)});
    }
    return true;
}

// ----------------------------------------------------------------- drivers

namespace {

/// Classes whose arrays cross the jit() boundary in the entry's receiver
/// graph or arguments: invoke() marshals those payloads AoS (in fact it
/// refuses non-primitive elements outright), so proveLayout boxes them.
void collectBoundaryClasses(const Value& v, std::set<const Obj*>& seen,
                            std::set<std::string>& out) {
    if (v.isArr()) {
        const ArrRef& a = v.asArr();
        if (!a) return;
        if (a->elem.isClass()) out.insert(a->elem.className());
        if (a->elem.isClass() || a->elem.isArray()) {
            for (const Value& e : a->data) collectBoundaryClasses(e, seen, out);
        }
        return;
    }
    if (v.isObj()) {
        const ObjRef& o = v.asObj();
        if (!o || !seen.insert(o.get()).second) return;
        for (const auto& [name, fv] : o->fields) {
            (void)name;
            collectBoundaryClasses(fv, seen, out);
        }
    }
}

} // namespace

void Engine::runEntry(const Value& receiver, const std::string& method,
                      const std::vector<Value>& args) {
    {
        std::set<const Obj*> seen;
        std::set<std::string> boundary;
        collectBoundaryClasses(receiver, seen, boundary);
        for (const Value& a : args) collectBoundaryClasses(a, seen, boundary);
        out_.layoutClasses = proveLayout(prog_, boundary, /*lint=*/false);
    }
    const AVal self = absOfValue(receiver, Type::voidTy());
    if (self.objs.empty()) return;  // jit() rejects non-object receivers itself
    const std::string clsName = self.objs[0]->cls->name;
    const ClassDecl* owner = prog_.methodOwner(clsName, method);
    const Method* m = owner ? owner->ownMethod(method) : nullptr;
    if (!owner || !m) return;
    std::vector<AVal> argVals;
    argVals.reserve(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
        const Type declared = i < m->params.size() ? m->params[i].type : Type::voidTy();
        argVals.push_back(absOfValue(args[i], declared));
    }
    analyzeCall(*owner, *m, &self, argVals);
    finishLoopReports();
    finishLayoutReport();
}

void Engine::runLint() {
    out_.layoutClasses = proveLayout(prog_, {}, /*lint=*/true);
    for (const ClassDecl* cls : prog_.classes()) {
        if (cls->isInterface) continue;
        if (cls->ctor && daDone_.insert(cls->ctor.get()).second) {
            auto errs = checkDefiniteAssignment(prog_, *cls, *cls->ctor, &out_.warnings);
            out_.errors.insert(out_.errors.end(), errs.begin(), errs.end());
        }
        for (const auto& m : cls->methods) {
            if (m->isAbstract) continue;
            AVal self = unknownOf(Type::cls(cls->name));
            std::vector<AVal> args;
            args.reserve(m->params.size());
            for (const Param& prm : m->params) {
                AVal v = unknownOf(prm.type);
                // Lint assumption: distinct array parameters do not alias.
                if (prm.type.isArray()) v.roots = {rootOf(&prm)};
                args.push_back(std::move(v));
            }
            try {
                analyzeCall(*cls, *m, m->isStatic ? nullptr : &self, args);
            } catch (const WjError&) {
                // Ill-typed lint input; reported by the typechecker instead.
            }
        }
    }
    finishLoopReports();
    finishLayoutReport();
}

} // namespace

void Result::require() const {
    if (!errors.empty()) throw AnalysisError(errors);
}

namespace {

void tally(Result& r) {
    r.safeAccesses = 0;
    r.unknownAccesses = 0;
    for (const auto& [site, s] : r.accessSafety) {
        (void)site;
        if (s == Safety::Safe) {
            ++r.safeAccesses;
        } else {
            ++r.unknownAccesses;
        }
    }
}

} // namespace

Result lintProgram(const Program& prog, const TranslateOptions& opts) {
    Result out;
    Engine eng(prog, out, /*lint=*/true, opts.soa);
    eng.runLint();
    tally(out);
    return out;
}

Result analyzeEntry(const Program& prog, const Value& receiver, const std::string& method,
                    const std::vector<Value>& args, const TranslateOptions& opts) {
    Result out;
    Engine eng(prog, out, /*lint=*/false, opts.soa);
    eng.runEntry(receiver, method, args);
    tally(out);
    return out;
}

} // namespace wj::analysis

// jit-warm: one caller in a closed loop over ~8 translation units that
// were all compiled during setup. Each op rebuilds its receiver (untimed),
// then times WootinJ::jit/jit4mpi plus one invoke of a small problem. Only
// a cache keyed on content can serve these fresh receivers, so the time
// goes to rules, analysis and codegen — the warm front end.
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "cg/cg_lib.h"
#include "common.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "rules/rules.h"
#include "stencil/stencil_lib.h"

namespace pb {
namespace {

using namespace wj;

/// One translation unit of the mix and its independent reference.
struct Unit {
    Unit(std::string name_, const Program* prog_, std::function<Value()> build_, std::vector<Value> args_,
         int ranks_, double want_, double rel_, double abs_, std::string refKind_)
        : name(std::move(name_)), prog(prog_), build(std::move(build_)), args(std::move(args_)),
          ranks(ranks_), want(want_), rel(rel_), abs(abs_), refKind(std::move(refKind_)) {}

    std::string name;
    const Program* prog;
    std::function<Value()> build;  ///< a fresh receiver, built through the interpreter
    std::vector<Value> args;
    int ranks;                     ///< 0: jit(); otherwise jit4mpi + set4MPI(ranks)
    double want;                   ///< the interpreter's result
    double rel, abs;               ///< 0/0: must match bitwise
    std::string refKind;

    std::optional<double> firstJit;  ///< every later op must repeat it bitwise
    int64_t msgs = -1, bytes = -1;   ///< MiniMPI traffic of one invoke (MPI units)
    std::vector<double> opMs;        ///< latency of each measured op
};

/// Everything one setup builds. Members are declared in dependency order so
/// codes die before the interpreters and programs they point into.
struct State {
    Program stencil = stencil::buildProgram();
    Program matmul = matmul::buildProgram();
    Program cg = cg::buildProgram();
    Interp stencilIn{stencil};
    Interp matmulIn{matmul};
    Interp cgIn{cg};
    Interp gpuIn{stencil, Interp::Options{true}};
    std::vector<Unit> units;
    std::vector<JitCode> cold;  ///< the setup compiles, kept alive like a real client would
};

constexpr int kEdge = 16;        // diffusion grids are 16^3
constexpr int kDiffSteps = 2;
constexpr int kMatN = 32;        // matmul / Fox global dimension
constexpr int kCgN = 256, kCgIters = 16;
constexpr int k1dN = 256, k1dSteps = 8;
constexpr int kCellN = 256, kCellSteps = 4;

std::unique_ptr<State> buildState(int dataSeed) {
    auto st = std::make_unique<State>();
    const auto c = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    const int s = dataSeed;
    State& S = *st;
    auto steps = [](int n) { return std::vector<Value>{Value::ofI32(n)}; };

    // Diffusion on three platforms; the interpreter runs the CPU composition
    // (and the GPU one under device emulation) as the reference.
    const double cpuRef = S.stencilIn
                              .call(stencil::makeCpuRunner(S.stencilIn, kEdge, kEdge, kEdge, c, s),
                                    "run", steps(kDiffSteps))
                              .asF64();
    S.units.emplace_back("diffusion-cpu", &S.stencil,
                         [&S, c, s] { return stencil::makeCpuRunner(S.stencilIn, kEdge, kEdge, kEdge, c, s); },
                         steps(kDiffSteps), 0, cpuRef, 0, 0, "interpreter, bitwise");
    // MPI ranks fold their partial checksums in a different order, so the
    // MPI unit matches the serial interpreter within test_stencil_lib's
    // tolerance (and itself bitwise).
    S.units.emplace_back("diffusion-mpi4", &S.stencil,
                         [&S, c, s] { return stencil::makeMpiRunner(S.stencilIn, kEdge, kEdge, kEdge / 4, c, s); },
                         steps(kDiffSteps), 4, cpuRef, 1e-12, 1e-9, "interpreter (serial grid), 1e-12 rel");
    const double gpuRef =
        S.gpuIn.call(stencil::makeGpuRunner(S.gpuIn, kEdge, kEdge, kEdge, c, s, 64), "run",
                     steps(kDiffSteps))
            .asF64();
    S.units.emplace_back("diffusion-gpusim", &S.stencil,
                         [&S, c, s] { return stencil::makeGpuRunner(S.stencilIn, kEdge, kEdge, kEdge, c, s, 64); },
                         steps(kDiffSteps), 0, gpuRef, 0, 0, "interpreter (device emulation), bitwise");

    // Matrix multiplication: CPU loop, and Fox's algorithm on a 2x2 grid
    // checked against the interpreter's CPU product (test_matmul_lib's
    // tolerance: the blocks accumulate in a different order).
    const std::vector<Value> matArgs = {Value::ofI32(kMatN), Value::ofI32(s)};
    const double matRef =
        S.matmulIn.call(matmul::makeCpuApp(S.matmulIn, matmul::Calc::Optimized), "run", matArgs)
            .asF64();
    S.units.emplace_back("matmul-cpu", &S.matmul,
                         [&S] { return matmul::makeCpuApp(S.matmulIn, matmul::Calc::Optimized); },
                         matArgs, 0, matRef, 0, 0, "interpreter, bitwise");
    S.units.emplace_back("fox-q2", &S.matmul,
                         [&S] { return matmul::makeMpiFoxApp(S.matmulIn, matmul::Calc::Optimized, 2); },
                         std::vector<Value>{Value::ofI32(kMatN / 2), Value::ofI32(s)}, 4, matRef, 1e-5, 1e-6,
                         "interpreter (CPU product), 1e-5 rel");

    const std::vector<Value> cgArgs = {Value::ofI32(kCgN), Value::ofI32(s), Value::ofI32(kCgIters)};
    const double cgRef = S.cgIn.call(cg::makeCpuSolver(S.cgIn), "run", cgArgs).asF64();
    // Under WJ_PARALLEL the dot products combine 64 chunk partials in a
    // fixed order instead of one serial fold: equal to the last few ulps.
    S.units.emplace_back("cg-256", &S.cg, [&S] { return cg::makeCpuSolver(S.cgIn); }, cgArgs, 0,
                         cgRef, 1e-12, 0, "interpreter, 1e-12 rel");

    const double heatRef =
        S.stencilIn.call(stencil::makeCpu1DRunner(S.stencilIn, k1dN, 0.25f, 0.5f, s), "run",
                         steps(k1dSteps))
            .asF64();
    S.units.emplace_back("heat1d", &S.stencil,
                         [&S, s] { return stencil::makeCpu1DRunner(S.stencilIn, k1dN, 0.25f, 0.5f, s); },
                         steps(k1dSteps), 0, heatRef, 0, 0, "interpreter, bitwise");

    const double cellRef =
        S.stencilIn.call(stencil::makeCellRunner(S.stencilIn, kCellN, 0.25f, 0.5f, s), "run",
                         steps(kCellSteps))
            .asF64();
    S.units.emplace_back("cells-soa", &S.stencil,
                         [&S, s] { return stencil::makeCellRunner(S.stencilIn, kCellN, 0.25f, 0.5f, s); },
                         steps(kCellSteps), 0, cellRef, 0, 0, "interpreter, bitwise");
    return st;
}

JitCode jitUnit(const Unit& u, const Value& recv) {
    JitCode code = u.ranks ? WootinJ::jit4mpi(*u.prog, recv, "run", u.args)
                           : WootinJ::jit(*u.prog, recv, "run", u.args);
    if (u.ranks) code.set4MPI(u.ranks);
    return code;
}

/// Checks one op of `u`: the result against the unit's reference and its
/// first JIT result, and (MPI units) the MiniMPI traffic against the first
/// run's. Counts as one attempted op.
void checkOp(Report& r, Unit& u, double got, const JitCode& code) {
    std::string why;
    if (u.rel == 0 && u.abs == 0 ? !sameBits(got, u.want) : !near(got, u.want, u.rel, u.abs))
        why += " result " + exact(got) + " vs reference (" + u.refKind + ") " + exact(u.want) + ";";
    if (!u.firstJit) u.firstJit = got;
    if (!sameBits(got, *u.firstJit)) why += " result differs from the unit's first JIT result;";
    if (u.ranks) {
        const auto cs = code.commStats();
        if (u.msgs < 0) {
            u.msgs = cs.messages;
            u.bytes = cs.bytes;
        }
        if (cs.messages != u.msgs || cs.bytes != u.bytes) why += " MiniMPI traffic changed;";
    }
    r.check(why.empty(), u.name + ":" + why);
}

int64_t cacheHits(const CacheStats& s) { return s.memoryHits + s.diskHits; }

/// Empties the cache and cold-jits every unit once more, for miss_p50_ms
/// (unit i's samples at i, i + units, ...), checking each result. The
/// cache is warm again afterwards.
void coldRound(Report& r, State& S, std::vector<double>& missMs) {
    auto& cache = JitCache::instance();
    cache.clearLoaded();
    cache.clearDisk();
    for (Unit& u : S.units) {
        try {
            const int64_t misses0 = cache.stats().misses;
            JitCode code = jitCold(*u.prog, u.build(), u.args, u.ranks, u.name, missMs, nullptr);
            if (cache.stats().misses == misses0) throw std::runtime_error("hit a cleared cache");
            checkOp(r, u, code.invokeWith(u.args).asF64(), code);
        } catch (const std::exception& e) {
            r.check(false, u.name + ": cold jit: " + e.what());
        }
    }
}

} // namespace

void runJitWarm(const Args& a, Report& r) {
    const int dataSeed = 1 + static_cast<int>(a.seed % 1000);
    auto& cache = JitCache::instance();

    // ---- setup, repeated from a cold cache; the last one is measured.
    std::unique_ptr<State> st;
    std::vector<double> setupS, coldMs, ccMs;
    int64_t setupMisses = 0;
    for (int rep = 0; rep < a.setupReps; ++rep) {
        st.reset();
        cache.clearLoaded();
        cache.clearDisk();
        const int64_t misses0 = cache.stats().misses;
        const int64_t t0 = nowNs();
        st = buildState(dataSeed);
        for (Unit& u : st->units) {
            st->cold.push_back(jitCold(*u.prog, u.build(), u.args, u.ranks, u.name, coldMs,
                                       a.trace ? &ccMs : nullptr));
            checkOp(r, u, st->cold.back().invokeWith(u.args).asF64(), st->cold.back());
        }
        setupS.push_back(msSince(t0) / 1e3);
        setupMisses = cache.stats().misses - misses0;
    }
    info("jit-warm: %zu units, data seed %d, %d setup(s), %lld cc runs per setup",
         st->units.size(), dataSeed, a.setupReps, static_cast<long long>(setupMisses));
    const std::vector<double> coldByUnit = mediansByKind(coldMs, st->units.size());
    for (size_t i = 0; i < st->units.size(); ++i) {
        const Unit& u = st->units[i];
        info("  unit %-18s cold jit p50 %9.3f ms; reference %-40s %.17g", u.name.c_str(), coldByUnit[i],
             u.refKind.c_str(), u.want);
    }

    // ---- measured closed loop: a seeded deck deals every unit once per round.
    Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + 11);
    std::vector<size_t> deck(st->units.size());
    for (size_t i = 0; i < deck.size(); ++i) deck[i] = i;
    size_t pos = deck.size();
    auto nextUnit = [&]() -> Unit& {
        if (pos == deck.size()) {
            rng.shuffle(deck);
            pos = 0;
        }
        return st->units[deck[pos++]];
    };

    // A measured run interleaves cold rounds so they take about kColdShare
    // of the phase; their time is not the ops'. miss_p50_ms comes from
    // them, not from the few of set-up: single cold jits spread widely, and
    // spread over the run a shift in how fast the host runs cc moves every
    // sample alike instead of deciding the median.
    constexpr double kColdShare = 0.4;
    const double phaseS = a.trace ? a.seconds / 2 : a.seconds;
    std::vector<double> lat, missMs;
    int64_t ops = 0, coldRounds = 0;
    double coldS = 0;
    const CacheStats c0 = cache.stats();
    const CpuTicks ticks0 = cpuTicks();
    int64_t start = nowNs();
    for (double elapsedS = 0; elapsedS < phaseS; elapsedS = (nowNs() - start) / 1e9) {
        if (!a.trace && coldS < kColdShare * elapsedS) {
            const int64_t t0 = nowNs();
            coldRound(r, *st, missMs);
            coldS += (nowNs() - t0) / 1e9;
            ++coldRounds;
            continue;
        }
        Unit& u = nextUnit();
        Value recv = u.build();
        try {
            const int64_t t0 = nowNs();
            JitCode code = jitUnit(u, recv);
            const double got = code.invokeWith(u.args).asF64();
            lat.push_back(msSince(t0));
            u.opMs.push_back(lat.back());
            checkOp(r, u, got, code);
        } catch (const std::exception& e) {
            r.check(false, u.name + ": " + e.what());
        }
        ++ops;
    }
    const double wallS = (nowNs() - start) / 1e9 - coldS;
    const CacheStats c1 = cache.stats();
    reportSteal(ticks0, cpuTicks());
    const double p50 = median(lat);
    const Tail t = tail(lat);
    info("jit-warm: %lld ops in %.2f s beside %lld cold rounds in %.2f s; p50 %.4f ms, p%g %.4f ms over %zu "
         "samples",
         static_cast<long long>(ops), wallS, static_cast<long long>(coldRounds), coldS, p50, t.pct, t.value,
         lat.size());
    for (const Unit& u : st->units)
        info("  unit %-18s warm op p50 %.4f ms over %zu", u.name.c_str(), median(u.opMs), u.opMs.size());
    const std::vector<double> missByUnit = mediansByKind(missMs, st->units.size());
    if (!missMs.empty())
        for (size_t i = 0; i < st->units.size(); ++i)
            info("  unit %-18s cold jit p50 %9.3f ms over the run", st->units[i].name.c_str(), missByUnit[i]);

    if (!a.trace) {
        r.metric("setup_s", median(setupS), "s");
        r.metric("req_p50_ms", p50, "ms");
        // Ops per second of op time: the untimed receiver rebuilds between
        // ops are the caller's work, not the system's. It is the median over
        // blocks of consecutive ops (about 24 deals of the deck each), so a
        // few seconds in which the host slowed everything do not decide it.
        constexpr size_t kBlockOps = 24 * 8;
        const size_t blocks = std::max<size_t>(1, lat.size() / kBlockOps);
        std::vector<double> perS;
        for (size_t b = 0; b < blocks; ++b) {
            const size_t from = b * lat.size() / blocks, to = (b + 1) * lat.size() / blocks;
            double busyS = 0;
            for (size_t i = from; i < to; ++i) busyS += lat[i] / 1e3;
            perS.push_back((to - from) / busyS);
        }
        r.metric("req_per_s", median(perS), "1/s");
        r.metric("miss_p50_ms", geomean(missByUnit), "ms");
        r.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    // ---- traced phase: the same ops, each decomposed into its layer calls.
    Tracer tr;
    std::vector<double> codegenMs, codegenReported, lookupUs, stageSum, jitInvoke, invokeMs, fixedMs;
    const PoolCounts pool0 = poolCounts();
    const CacheStats h0 = cache.stats();
    start = nowNs();
    int64_t op = 0;
    while ((nowNs() - start) / 1e9 < phaseS) {
        Unit& u = nextUnit();
        Value recv = u.build();
        try {
            Tracer::Scope opSpan(tr, "op", op);
            double rules, analysis, translateMs, key, load, jitMs, invoke;
            {
                Tracer::Scope s(tr, "rules.requireCodingRules", op);
                requireCodingRules(*u.prog);
                rules = s.close();
            }
            {
                Tracer::Scope s(tr, "analysis.analyzeEntry", op);
                analysis::analyzeEntry(*u.prog, recv, "run", u.args);
                analysis = s.close();
            }
            Translation trn;
            {
                Tracer::Scope s(tr, "jit.translate", op);
                trn = translate(*u.prog, recv, "run", u.args);
                translateMs = s.close();
            }
            {
                Tracer::Scope s(tr, "jit.cacheKeyFor", op);
                (void)cacheKeyFor(trn.cSource);
                key = s.close();
            }
            {
                Tracer::Scope s(tr, "jit.compileAndLoad", op);
                CompileResult cr = compileAndLoad(trn.cSource, u.name);
                load = s.close();
                if (!cr.cacheHit) throw std::runtime_error("warm compileAndLoad missed the cache");
            }
            std::optional<JitCode> code;
            {
                Tracer::Scope s(tr, "jit.jit", op);
                code.emplace(jitUnit(u, recv));
                jitMs = s.close();
            }
            double got;
            {
                Tracer::Scope s(tr, "jit.invokeWith", op);
                got = code->invokeWith(u.args).asF64();
                invoke = s.close();
            }
            checkOp(r, u, got, *code);
            if (u.name == "diffusion-cpu") {
                Tracer::Scope s(tr, "jit.invokeWith.zero_steps", op);
                code->invokeWith({Value::ofI32(0)});
                fixedMs.push_back(s.close());
            }
            codegenMs.push_back(translateMs - analysis);
            codegenReported.push_back(trn.codegenSeconds * 1e3);
            lookupUs.push_back((key + load) * 1e3);
            stageSum.push_back(rules + translateMs + key + load + invoke);
            jitInvoke.push_back(jitMs + invoke);
            invokeMs.push_back(invoke);
        } catch (const std::exception& e) {
            r.check(false, u.name + ": " + e.what());
        }
        ++op;
    }
    const CacheStats h1 = cache.stats();
    const PoolCounts pool1 = poolCounts();
    info("jit-warm traced: %lld ops", static_cast<long long>(op));
    tr.finish(a.traceOut);

    r.metric("rules.verify_ms", median(tr.durations("rules.requireCodingRules")), "ms");
    r.metric("analysis.entry_ms", median(tr.durations("analysis.analyzeEntry")), "ms");
    r.metric("jit.codegen_ms", median(codegenMs), "ms");
    r.metric("jit.codegen_reported_ms", median(codegenReported), "ms");
    r.metric("jit.cache.lookup_us", median(lookupUs), "us");
    const int64_t hits = cacheHits(h1) - cacheHits(h0), misses = h1.misses - h0.misses;
    r.metric("jit.cache.hit_ratio", hits + misses ? static_cast<double>(hits) / (hits + misses) : 0, "ratio");
    r.metric("jit.cache.hits_per_op", ops ? static_cast<double>(cacheHits(c1) - cacheHits(c0)) / ops : 0, "count");
    r.metric("jit.cache.misses_per_op", ops ? static_cast<double>(c1.misses - c0.misses) / ops : 0, "count");
    r.metric("jit.cache.setup_misses", static_cast<double>(setupMisses), "count");
    r.metric("jit.cc_ms", median(ccMs), "ms");
    r.metric("jit.invoke_ms", median(invokeMs), "ms");
    r.metric("jit.invoke_fixed_ms", median(fixedMs), "ms");
    probeRuntimeAndMinimpi(r);
    r.metric("runtime.pool.inline_ratio", inlineRatio(pool0, pool1), "ratio");
    int64_t msgs = 0, bytes = 0;
    for (const Unit& u : st->units) {
        if (!u.ranks) continue;
        msgs += u.msgs;
        bytes += u.bytes;
        info("  unit %-18s MiniMPI %lld messages, %lld bytes per run", u.name.c_str(),
             static_cast<long long>(u.msgs), static_cast<long long>(u.bytes));
    }
    r.metric("minimpi.msgs_per_run", static_cast<double>(msgs), "count");
    r.metric("minimpi.bytes_per_run", static_cast<double>(bytes), "B");
    const double sum = median(stageSum);
    r.metric("trace.stage_sum_ms", sum, "ms");
    r.metric("trace.stage_gap_ms", p50 - sum, "ms");
    info("stage ledger: rules + translate + key + compileAndLoad + invoke = %.4f ms against "
         "untraced req_p50 %.4f ms (gap %.4f ms, %.1f%%)",
         sum, p50, p50 - sum, p50 ? 100 * (p50 - sum) / p50 : 0.0);
    const double traced = median(jitInvoke);
    r.metric("trace.overhead_ms", traced - p50, "ms");
    r.metric("trace.overhead_ratio", p50 ? (traced - p50) / p50 : 0, "ratio");
}

} // namespace pb

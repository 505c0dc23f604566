// solve: three applications, each jit'd once during setup, then solved
// over and over on the threads transport with WJ_THREADS=2. Rules, analysis
// and codegen do no work per op; the time goes to the native entry, pool
// dispatch and MiniMPI — time to solution, the paper's Figs. 3/17/18.
//
// miss_p50_ms comes from cold jits spread over the whole measured phase
// (about 40% of its time), not from the few of set-up: single cold jits
// spread by a third around their median, so a run needs many, and spread
// over the run a minute's shift in how fast the host runs cc moves every
// sample alike instead of deciding the median.
//
// Two pool threads and two diffusion ranks, not four: on a 4-vCPU guest
// the barrier-coupled ranks plus pool workers oversubscribe the CPUs, and
// whole runs then slowed 1.5-4x whenever the hypervisor took CPU time
// away. Fox needs its 2x2 rank grid.
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/diffusion_baselines.h"
#include "baselines/matmul_baselines.h"
#include "cg/cg_lib.h"
#include "common.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "stencil/stencil_lib.h"

namespace pb {
namespace {

using namespace wj;

// Problem sizes. The working sets (3-8 MiB) sit inside a server L3, so the
// apps measure dispatch and compute rather than DRAM bandwidth.
constexpr int kDifN = 64, kDifRanks = 2, kDifNzLocal = 64, kDifSteps = 10;
constexpr int kFoxN = 384, kFoxQ = 2;
constexpr int kCgN = 1 << 18, kCgIters = 25;

// Computed work per run (from the loop nests as written, not measured).
constexpr double kDifCellUpdates = double(kDifN) * kDifN * kDifNzLocal * kDifRanks * kDifSteps;
constexpr double kFoxFlops = 2.0 * kFoxN * kFoxN * kFoxN;
// CG on f32 vectors: 3n accesses to start, then per iteration apply (2n),
// p.Ap (2n), the x/r update (6n), r.r (n) and the p update (3n).
constexpr double kCgBytes = 4.0 * kCgN * (3.0 + 14.0 * kCgIters);

/// One application: its compiled code, the arguments of one solve, and the
/// reference it must reproduce.
struct App {
    App(const char* name_, const char* invokeSpan_) : name(name_), invokeSpan(invokeSpan_) {}

    const char* name;
    const char* invokeSpan;
    const Program* prog = nullptr;
    std::function<Value()> recv;  ///< a fresh receiver, built through the interpreter
    int ranks = 0;                ///< 0: jit(); otherwise jit4mpi + set4MPI(ranks)
    std::optional<JitCode> code;
    std::vector<Value> args;
    double want = 0, rel = 0, abs = 0;
    std::optional<double> first;  ///< every solve must repeat it bitwise
    int64_t msgs = -1, bytes = -1;
    std::vector<double> ms;
};

struct State {
    Program stencil = stencil::buildProgram();
    Program matmul = matmul::buildProgram();
    Program cg = cg::buildProgram();
    Interp stencilIn{stencil};
    Interp matmulIn{matmul};
    Interp cgIn{cg};
    App apps[3] = {{"diffusion", "jit.invokeWith.diffusion"}, {"fox", "jit.invokeWith.fox"},
                   {"cg", "jit.invokeWith.cg"}};
};

/// Builds the receivers, cold-jits the three apps (see jitCold) and
/// computes the references.
std::unique_ptr<State> buildState(int s, std::vector<double>& coldMs, std::vector<double>* ccMs) {
    auto st = std::make_unique<State>();
    State& S = *st;
    const auto c = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);

    App& dif = S.apps[0];
    dif.prog = &S.stencil;
    dif.recv = [&S, c, s] { return stencil::makeMpiRunner(S.stencilIn, kDifN, kDifN, kDifNzLocal, c, s); };
    dif.args = {Value::ofI32(kDifSteps)};
    dif.ranks = kDifRanks;
    // The hand-written C of the paper on the whole grid, with
    // test_stencil_lib's tolerance for the MPI ranks' fold order.
    dif.want = baselines::diffusionC(kDifN, kDifN, kDifNzLocal * kDifRanks, c, s, kDifSteps);
    dif.rel = 1e-12;
    dif.abs = 1e-9;

    App& fox = S.apps[1];
    fox.prog = &S.matmul;
    fox.recv = [&S] { return matmul::makeMpiFoxApp(S.matmulIn, matmul::Calc::Optimized, kFoxQ); };
    fox.args = {Value::ofI32(kFoxN / kFoxQ), Value::ofI32(s)};
    fox.ranks = kFoxQ * kFoxQ;
    fox.want = matmul::referenceMatMulChecksum(kFoxN, s, s + 1);
    fox.rel = 1e-5;  // test_matmul_lib's relTol
    fox.abs = 1e-6;

    App& cgApp = S.apps[2];
    cgApp.prog = &S.cg;
    cgApp.recv = [&S] { return cg::makeCpuSolver(S.cgIn); };
    cgApp.args = {Value::ofI32(kCgN), Value::ofI32(s), Value::ofI32(kCgIters)};
    cgApp.want = cg::referenceCgResidual(kCgN, s, kCgIters);
    cgApp.rel = 1e-4;

    for (App& app : S.apps)
        app.code.emplace(jitCold(*app.prog, app.recv(), app.args, app.ranks, app.name, coldMs, ccMs));
    return st;
}

/// One solve of `app`, checked; returns its wall time in ms.
double solveOnce(Report& r, App& app, const std::vector<Value>& args) {
    double ms = 0;
    try {
        const int64_t t0 = nowNs();
        const double got = app.code->invokeWith(args).asF64();
        ms = msSince(t0);
        std::string why;
        if (!near(got, app.want, app.rel, app.abs))
            why += " result " + exact(got) + " vs reference " + exact(app.want) + ";";
        if (!app.first) app.first = got;
        if (!sameBits(got, *app.first)) why += " result differs from the first solve;";
        const auto cs = app.code->commStats();
        if (app.msgs < 0) {
            app.msgs = cs.messages;
            app.bytes = cs.bytes;
        }
        if (cs.messages != app.msgs || cs.bytes != app.bytes) why += " MiniMPI traffic changed;";
        r.check(why.empty(), std::string(app.name) + ":" + why);
    } catch (const std::exception& e) {
        r.check(false, std::string(app.name) + ": " + e.what());
    }
    return ms;
}

/// One more cold jit of `app` on an emptied cache, for miss_p50_ms; the
/// code is dropped and the solves keep theirs.
void coldJit(Report& r, App& app, std::vector<double>& coldMs) {
    auto& cache = JitCache::instance();
    cache.clearLoaded();
    cache.clearDisk();
    const int64_t misses0 = cache.stats().misses;
    try {
        jitCold(*app.prog, app.recv(), app.args, app.ranks, app.name, coldMs, nullptr);
        r.check(cache.stats().misses > misses0, std::string(app.name) + ": cold jit hit a cleared cache");
    } catch (const std::exception& e) {
        r.check(false, std::string(app.name) + ": cold jit: " + e.what());
    }
}

} // namespace

void runSolve(const Args& a, Report& r) {
    const int dataSeed = 1 + static_cast<int>(a.seed % 1000);
    auto& cache = JitCache::instance();

    std::unique_ptr<State> st;
    std::vector<double> setupS, coldMs, ccMs;
    int64_t setupMisses = 0;
    for (int rep = 0; rep < a.setupReps; ++rep) {
        st.reset();
        cache.clearLoaded();
        cache.clearDisk();
        const int64_t misses0 = cache.stats().misses;
        const int64_t t0 = nowNs();
        st = buildState(dataSeed, coldMs, a.trace ? &ccMs : nullptr);
        for (App& app : st->apps) solveOnce(r, app, app.args);
        setupS.push_back(msSince(t0) / 1e3);
        setupMisses = cache.stats().misses - misses0;
    }
    info("solve: data seed %d, %d setup(s), %lld cc runs per setup; references: diffusionC %.17g, "
         "matmul %.17g, cg %.17g",
         dataSeed, a.setupReps, static_cast<long long>(setupMisses), st->apps[0].want,
         st->apps[1].want, st->apps[2].want);

    // Rounds: every app once, in a seeded order.
    Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + 23);
    std::vector<int> order = {0, 1, 2};
    auto round = [&](Tracer* tr, int64_t op) {
        rng.shuffle(order);
        double sum = 0;
        for (int i : order) {
            App& app = st->apps[i];
            std::optional<Tracer::Scope> span;
            if (tr) span.emplace(*tr, app.invokeSpan, op);
            const double ms = solveOnce(r, app, app.args);
            app.ms.push_back(ms);
            sum += ms;
        }
        return sum;
    };

    // A measured run interleaves cold jits, one app at a time in order, so
    // they take about kColdShare of the phase; their time is not the
    // rounds'. missMs keeps sample i of app i % 3.
    constexpr double kColdShare = 0.4;
    const double phaseS = a.trace ? a.seconds / 2 : a.seconds;
    std::vector<double> lat, missMs;
    double coldS = 0;
    size_t nextCold = 0;
    const CpuTicks ticks0 = cpuTicks();
    int64_t start = nowNs();
    for (double elapsedS = 0; elapsedS < phaseS; elapsedS = (nowNs() - start) / 1e9) {
        if (!a.trace && coldS < kColdShare * elapsedS) {
            const int64_t t0 = nowNs();
            coldJit(r, st->apps[nextCold++ % 3], missMs);
            coldS += (nowNs() - t0) / 1e9;
        } else {
            lat.push_back(round(nullptr, 0));
        }
    }
    const double wallS = (nowNs() - start) / 1e9 - coldS;
    reportSteal(ticks0, cpuTicks());
    const double p50 = median(lat);
    const Tail t = tail(lat);
    const double difMs = median(st->apps[0].ms), foxMs = median(st->apps[1].ms),
                 cgMs = median(st->apps[2].ms);
    info("solve: %zu rounds in %.2f s beside %zu cold jits in %.2f s; round p50 %.4f ms, p%g %.4f ms; "
         "diffusion %.4f ms, fox %.4f ms, cg %.4f ms",
         lat.size(), wallS, nextCold, coldS, p50, t.pct, t.value, difMs, foxMs, cgMs);
    for (const App& app : st->apps) {
        std::vector<double> v = app.ms;
        std::sort(v.begin(), v.end());
        info("  app %-10s p25 %.3f ms, p50 %.3f ms, p75 %.3f ms over %zu solves", app.name, v[v.size() / 4],
             v[v.size() / 2], v[v.size() * 3 / 4], v.size());
    }
    for (size_t i = 0; i < 3; ++i) {
        std::vector<double> v;
        for (size_t j = i; j < missMs.size(); j += 3) v.push_back(missMs[j]);
        std::sort(v.begin(), v.end());
        if (!v.empty())
            info("  app %-10s cold jit p25 %.3f ms, p50 %.3f ms, p75 %.3f ms over %zu jits; at set-up "
                 "p50 %.3f ms",
                 st->apps[i].name, v[v.size() / 4], v[v.size() / 2], v[v.size() * 3 / 4], v.size(),
                 mediansByKind(coldMs, 3)[i]);
    }

    if (!a.trace) {
        r.metric("setup_s", median(setupS), "s");
        r.metric("req_p50_ms", p50, "ms");
        r.metric("req_per_s", lat.size() / wallS, "1/s");
        r.metric("miss_p50_ms", geomean(mediansByKind(missMs, 3)), "ms");
        r.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    // ---- traced phase: spans around every invoke, plus a zero-step solve.
    Tracer tr;
    std::vector<double> tracedRounds, fixedMs;
    const PoolCounts pool0 = poolCounts();
    const CacheStats c0 = cache.stats();
    const std::vector<Value> zeroSteps = {Value::ofI32(0)};
    start = nowNs();
    for (int64_t op = 0; (nowNs() - start) / 1e9 < phaseS; ++op) {
        {
            Tracer::Scope s(tr, "op", op);
            tracedRounds.push_back(round(&tr, op));
        }
        Tracer::Scope s(tr, "jit.invokeWith.zero_steps", op);
        st->apps[0].code->invokeWith(zeroSteps);
        fixedMs.push_back(s.close());
    }
    const CacheStats c1 = cache.stats();
    const PoolCounts pool1 = poolCounts();
    tr.finish(a.traceOut);

    // Hand-written C on the same problems, single-threaded: the paper's
    // reference rows. No JIT change can move them.
    const auto c = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    std::vector<double> difC, foxC;
    for (int rep = 0; rep < 5; ++rep) {
        int64_t t0 = nowNs();
        const double d = baselines::diffusionC(kDifN, kDifN, kDifNzLocal * kDifRanks, c, dataSeed, kDifSteps);
        difC.push_back(msSince(t0));
        t0 = nowNs();
        const double m = baselines::matmulC(kFoxN, dataSeed, dataSeed + 1);
        foxC.push_back(msSince(t0));
        r.check(sameBits(d, st->apps[0].want) && near(m, st->apps[1].want, 1e-5, 1e-6),
                "hand-C baselines disagree with the references");
    }

    std::vector<double> invokes;
    for (const App& app : st->apps) {
        const auto d = tr.durations(app.invokeSpan);
        invokes.insert(invokes.end(), d.begin(), d.end());
    }
    const double rounds = static_cast<double>(tracedRounds.size());
    r.metric("jit.cache.hits_per_op", (c1.memoryHits + c1.diskHits - c0.memoryHits - c0.diskHits) / rounds, "count");
    r.metric("jit.cache.misses_per_op", (c1.misses - c0.misses) / rounds, "count");
    r.metric("jit.cache.setup_misses", static_cast<double>(setupMisses), "count");
    r.metric("jit.cc_ms", median(ccMs), "ms");
    r.metric("jit.invoke_ms", median(invokes), "ms");
    r.metric("jit.invoke_fixed_ms", median(fixedMs), "ms");
    probeRuntimeAndMinimpi(r);
    r.metric("runtime.pool.inline_ratio", inlineRatio(pool0, pool1), "ratio");
    for (const App& app : st->apps)
        info("  app %-10s MiniMPI %lld messages, %lld bytes per run", app.name,
             static_cast<long long>(app.msgs), static_cast<long long>(app.bytes));
    r.metric("minimpi.msgs_per_run", static_cast<double>(st->apps[0].msgs + st->apps[1].msgs), "count");
    r.metric("minimpi.bytes_per_run", static_cast<double>(st->apps[0].bytes + st->apps[1].bytes), "B");
    r.metric("solve.diffusion_ms", difMs, "ms");
    r.metric("solve.fox_ms", foxMs, "ms");
    r.metric("solve.cg_ms", cgMs, "ms");
    r.metric("solve.diffusion.cell_updates", kDifCellUpdates, "count");
    r.metric("solve.fox.flops", kFoxFlops, "count");
    r.metric("solve.cg.bytes", kCgBytes, "B");
    r.metric("solve.diffusion.mcups", kDifCellUpdates / difMs / 1e3, "MCUP/s");
    r.metric("solve.fox.gflops", kFoxFlops / foxMs / 1e6, "GFLOP/s");
    r.metric("solve.cg.gbytes_computed", kCgBytes / cgMs / 1e6, "GB/s");
    const double difHandC = median(difC), foxHandC = median(foxC);
    r.metric("solve.diffusion.handc_ms", difHandC, "ms");
    r.metric("solve.fox.handc_ms", foxHandC, "ms");
    r.metric("solve.diffusion.vs_handc", difMs / difHandC, "ratio");
    r.metric("solve.fox.vs_handc", foxMs / foxHandC, "ratio");
    const double traced = median(tracedRounds);
    r.metric("trace.overhead_ms", traced - p50, "ms");
    r.metric("trace.overhead_ratio", (traced - p50) / p50, "ratio");
}

} // namespace pb

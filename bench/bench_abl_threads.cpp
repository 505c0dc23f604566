// Ablation: the intra-rank multithreaded execution backend.
//
// The paper's hybrid runs put one MPI rank per node and fill the node's
// cores with threads. This bench sweeps WJ_THREADS over {1, 2, 4, 8} for
// three workloads the dependence prover parallelizes automatically:
//
//   * the diffusion interior sweep (StencilCPU3D_MPI.step, guarded on
//     cur != nxt) — proven parallel-for; every threaded checksum must be
//     bitwise-equal to the serial run (WJ_PARALLEL=0);
//   * the Fox block multiply (OptimizedCalculator.multiplyAcc, guarded on
//     br != cr) — same parallel-for contract;
//   * the CG solver (CGSolver.run), whose DotProduct.dot loops the prover
//     now classifies ParallelReduce. Its dot trip count exceeds the fixed
//     reduction chunk grid, so the parallel residual is NOT bitwise-equal
//     to the serial fold (the f64 sum is regrouped); instead the contract
//     is the ordered-combine guarantee: bitwise-IDENTICAL across every
//     WJ_THREADS value, and within tolerance of the serial result.
//
// Wall times are REAL; speedups only materialize on a host with that many
// cores (a 1-core container shows ~1.0x throughout). Every row lands in
// BENCH_abl_threads.json. --smoke runs a single small CG row as a CI
// tripwire for reduction-codegen regressions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "cg/cg_lib.h"
#include "common.h"
#include "interp/interp.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "runtime/threadpool.h"
#include "stencil/stencil_lib.h"

using namespace wj;

namespace {

struct Sample {
    double value = 0;    ///< scalar observable of the run (checksum / residual)
    double seconds = 0;  ///< median wall time of the timed invokes
};

/// jit4mpi + one warm invoke + median-of-3 timed invokes at `threads` pool
/// width, with the parallel codegen on or off.
template <typename MakeCode>
Sample timeRun(int threads, bool parallel, MakeCode make) {
    TranslateOptions topts = TranslateOptions::fromEnv();
    topts.parallel = parallel;
    runtime::ThreadPool::instance().setThreads(threads);
    JitCode code = make(topts);
    (void)code.invoke();  // warm: pool spawn + cache fill out of the timing
    Sample s;
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        s.value = code.invoke().asF64();
        times.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
    std::sort(times.begin(), times.end());
    s.seconds = times[times.size() / 2];
    return s;
}

bool bitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One parallel-for sweep table: serial row, then WJ_THREADS in {1,2,4,8}.
/// Contract: every threaded result bitwise-equal to the serial run.
template <typename MakeCode>
bool sweep(const std::string& what, int ranks, MakeCode make) {
    const Sample serial = timeRun(1, false, make);
    std::printf("%s (serial %.6fs, checksum %.17g)\n", what.c_str(), serial.seconds,
                serial.value);
    std::printf("%10s %12s %10s %10s\n", "threads", "time", "speedup", "bitwise");
    wjbench::jsonRow(what + " serial", serial.seconds * 1e9, 1, ranks);
    bool ok = true;
    for (int t : {1, 2, 4, 8}) {
        const Sample par = timeRun(t, true, make);
        const bool eq = bitEq(serial.value, par.value);
        ok &= eq;
        std::printf("%10d %11.6fs %9.2fx %10s\n", t, par.seconds,
                    serial.seconds / par.seconds, eq ? "equal" : "MISMATCH");
        wjbench::jsonRow(what + " threads=" + std::to_string(t), par.seconds * 1e9, t, ranks);
    }
    std::printf("\n");
    return ok;
}

/// The CG reduction sweep: serial row, then WJ_THREADS from `threadList`.
/// Contract: all threaded residuals bitwise-identical to EACH OTHER (the
/// ordered combine is thread-count-invariant), and within `relTol` of the
/// serial residual (the fixed chunk grid regroups the f64 dot sums).
template <typename MakeCode>
bool sweepReduce(const std::string& what, int ranks, const std::vector<int>& threadList,
                 double relTol, MakeCode make) {
    const Sample serial = timeRun(1, false, make);
    std::printf("%s (serial %.6fs, residual %.17g)\n", what.c_str(), serial.seconds,
                serial.value);
    std::printf("%10s %12s %10s %12s %10s\n", "threads", "time", "speedup", "cross-thrd",
                "vs-serial");
    wjbench::jsonRow(what + " serial", serial.seconds * 1e9, 1, ranks);
    bool ok = true;
    bool haveFirst = false;
    double first = 0;
    for (int t : threadList) {
        const Sample par = timeRun(t, true, make);
        if (!haveFirst) {
            haveFirst = true;
            first = par.value;
        }
        const bool eq = bitEq(first, par.value);
        const double rel =
            std::fabs(par.value - serial.value) / std::max(1.0, std::fabs(serial.value));
        const bool close = rel <= relTol;
        ok &= eq && close;
        std::printf("%10d %11.6fs %9.2fx %12s %9.1e%s\n", t, par.seconds,
                    serial.seconds / par.seconds, eq ? "identical" : "MISMATCH", rel,
                    close ? "" : " DIVERGED");
        wjbench::jsonRow(what + " threads=" + std::to_string(t), par.seconds * 1e9, t, ranks);
    }
    std::printf("\n");
    return ok;
}

} // namespace

int main(int argc, char** argv) {
    const auto opts = wjbench::parseArgs(argc, argv);
    wjbench::banner("Ablation: intra-rank threading (WJ_THREADS sweep)",
                    "proven parallel loops: diffusion interior + Fox multiply + CG reductions",
                    "wall time REAL on this host; determinism checked bitwise");

    Program cprog = cg::buildProgram();
    Interp cin(cprog);
    const int cgN = opts.smoke ? 4096 : (opts.full ? 1 << 20 : 1 << 16);
    const int cgIters = opts.smoke ? 8 : (opts.full ? 50 : 25);
    auto makeCg = [&](const TranslateOptions& topts) {
        Value solver = cg::makeCpuSolver(cin);
        JitCode code = WootinJ::jit4mpi(cprog, solver, "run",
                                        {Value::ofI32(cgN), Value::ofI32(11),
                                         Value::ofI32(cgIters)},
                                        topts);
        code.set4MPI(1);
        return code;
    };

    if (opts.smoke) {
        // One fast row: CG at 2 threads vs serial. Catches broken reduction
        // codegen (mis-combined partials diverge far beyond the tolerance).
        const bool ok = sweepReduce("CG n=4096 x1 rank (smoke)", 1, {2}, 1e-4, makeCg);
        std::printf("smoke check: CG reduction determinism -> %s\n", ok ? "holds" : "VIOLATED");
        return ok ? 0 : 1;
    }

    // Deep single-rank slab: all compute in the proven interior loop.
    const int n = opts.full ? 66 : 34;
    const int nz = opts.full ? 256 : 64;
    const int steps = opts.full ? 20 : 8;
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    Program sprog = stencil::buildProgram();
    Interp sin(sprog);
    bool ok = sweep("diffusion MPI x1 rank", 1, [&](const TranslateOptions& topts) {
        Value r = stencil::makeMpiRunner(sin, n, n, nz, coeffs, 42);
        JitCode code = WootinJ::jit4mpi(sprog, r, "run", {Value::ofI32(steps)}, topts);
        code.set4MPI(1);
        return code;
    });

    const int mm = opts.full ? 256 : 128;
    Program mprog = matmul::buildProgram();
    Interp min(mprog);
    ok &= sweep("Fox matmul q=2 x4 ranks", 4, [&](const TranslateOptions& topts) {
        Value app = matmul::makeMpiFoxApp(min, matmul::Calc::Optimized, 2);
        JitCode code = WootinJ::jit4mpi(mprog, app, "run",
                                        {Value::ofI32(mm), Value::ofI32(7)}, topts);
        code.set4MPI(4);
        return code;
    });

    ok &= sweepReduce("CG n=" + std::to_string(cgN) + " x1 rank", 1, {1, 2, 4, 8}, 1e-4,
                      makeCg);

    std::printf("ablation check: parallel-for bitwise-equal serial, "
                "reductions thread-count-invariant -> %s\n",
                ok ? "holds" : "VIOLATED");
    return ok ? 0 : 1;
}

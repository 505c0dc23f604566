// Conjugate gradient through the WootinC component library — the paper's
// future-work direction promoted to a fully evaluated workload. One
// CGSolver class runs with a matrix-free operator, a CSR matrix, or a
// row-partitioned MPI operator, switched by composition exactly like the
// stencil runners, and the whole matrix of execution configurations is
// VERIFIED here (this example doubles as a ctest integration test and
// exits non-zero on any divergence):
//
//   * serial jit vs the C++ scalar baseline (referenceCgResidual);
//   * CSR vs matrix-free composition;
//   * parallel codegen: the dot loops auto-prove ParallelReduce and the
//     axpy loops parallel-for — residuals bitwise-identical at pool widths
//     1/2/8 (ordered deterministic combine) and within tolerance of the
//     serial fold;
//   * MPI: row-partitioned ranks under real MiniMPI worlds, threaded
//     ranks included;
//   * WJ_FAULT: a transient compile failure is retried, and a killed
//     rank recovers on re-invoke;
//   * WJ_TRACE: the run emits a Perfetto-loadable span timeline.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cg/cg_lib.h"
#include "fault/fault.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/jit.h"
#include "runtime/threadpool.h"
#include "support/diagnostics.h"
#include "trace/trace.h"

using namespace wj;
using namespace wj::cg;

namespace {

int failures = 0;

void check(const char* what, bool ok) {
    std::printf("  %-58s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
}

bool bitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool near(double a, double b, double relTol) {
    return std::fabs(a - b) <= relTol * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

} // namespace

int main() {
    const int n = 4096, seed = 4, iters = 32;
    // Serial translation first; the threading section turns `parallel` on.
    TranslateOptions opts = TranslateOptions::fromEnv();
    opts.parallel = false;
    trace::Tracer::instance().enable("cg_solver.trace.json");

    Program prog = buildProgram();
    Interp in(prog);

    std::printf("CG on the 1-D Dirichlet Laplacian, n=%d, %d iterations\n\n", n, iters);

    auto runCpu = [&](Operator op, int iterCount) {
        Value solver = op == Operator::Csr ? makeCpuCsrSolver(in, n) : makeCpuSolver(in, op);
        JitCode code = WootinJ::jit(prog, solver, "run",
                                    {Value::ofI32(n), Value::ofI32(seed),
                                     Value::ofI32(iterCount)},
                                    opts);
        return code.invoke().asF64();
    };

    // ---- serial jit vs the C++ scalar baseline (cg_lib.cpp reference).
    // The raw residual norm is not monotone in f32 arithmetic (the 1-D
    // Laplacian's conditioning grows with n^2), so the contract is
    // agreement with the baseline at every iteration count, plus actual
    // convergence on a small well-conditioned instance: exact-arithmetic
    // CG finishes in n steps, so n=96 after 96 iterations must be tiny.
    std::printf("serial vs scalar baseline\n");
    for (int it : {0, 8, iters}) {
        const double rs = runCpu(Operator::MatrixFree, it);
        const double expect = referenceCgResidual(n, seed, it);
        char what[96];
        std::snprintf(what, sizeof what, "iters=%-3d ||r||^2=%.6e matches baseline", it, rs);
        check(what, near(rs, expect, 1e-10));
    }
    {
        const int ns = 96;
        Value solver = makeCpuSolver(in);
        JitCode code = WootinJ::jit(prog, solver, "run",
                                    {Value::ofI32(ns), Value::ofI32(seed), Value::ofI32(ns)},
                                    opts);
        const double rs = code.invoke().asF64();
        check("n=96 converges within n iterations (||r||^2 < 1e-8)", rs < 1e-8);
        check("converged residual matches baseline",
              near(rs, referenceCgResidual(ns, seed, ns), 1e-6));
    }

    // ---- CSR composition computes the same operator.
    std::printf("operator compositions\n");
    check("CsrMatrix == Laplacian1D residual",
          near(runCpu(Operator::Csr, iters), runCpu(Operator::MatrixFree, iters), 1e-12));

    // ---- parallel codegen: reductions + axpy loops auto-prove; residuals
    // are bitwise-identical across thread counts (ordered combine) and near
    // the serial fold (the fixed chunk grid regroups the f64 dot sums).
    std::printf("intra-rank threading (parallel codegen)\n");
    const double serialRs = runCpu(Operator::MatrixFree, iters);
    std::vector<double> parRs;
    opts.parallel = true;
    for (int t : {1, 2, 8}) {
        runtime::ThreadPool::instance().setThreads(t);
        Value solver = makeCpuSolver(in);
        JitCode code = WootinJ::jit(prog, solver, "run",
                                    {Value::ofI32(n), Value::ofI32(seed), Value::ofI32(iters)},
                                    opts);
        if (t == 1) {
            check("dot loops auto-prove ParallelReduce", code.reduceLoops() >= 1);
            check("axpy loops auto-prove parallel-for", code.parallelLoops() >= 1);
        }
        parRs.push_back(code.invoke().asF64());
    }
    check("threaded residual within tolerance of serial", near(parRs[0], serialRs, 1e-4));
    check("bitwise-identical at WJ_THREADS 1/2/8",
          bitEq(parRs[0], parRs[1]) && bitEq(parRs[0], parRs[2]));

    // ---- MPI: row-partitioned ranks under real MiniMPI worlds. MpiDot
    // allreduces rank partials, so compare against the global baseline
    // with a reduction tolerance; thread counts must not change the bits.
    std::printf("MPI row partitioning (jit4mpi + MiniMPI)\n");
    const double expectMpi = referenceCgResidual(n, seed, iters);
    auto runMpi = [&](int ranks, int threads) {
        runtime::ThreadPool::instance().setThreads(threads);
        Value solver = makeMpiSolver(in, n / ranks);
        JitCode code = WootinJ::jit4mpi(prog, solver, "run",
                                        {Value::ofI32(n / ranks), Value::ofI32(seed),
                                         Value::ofI32(iters)},
                                        opts);
        code.set4MPI(ranks);
        return code.invoke().asF64();
    };
    for (int ranks : {2, 4}) {
        char what[96];
        const double rs = runMpi(ranks, 2);
        std::snprintf(what, sizeof what, "x%d threaded ranks ||r||^2=%.6e near baseline",
                      ranks, rs);
        check(what, near(rs, expectMpi, 1e-4));
    }
    {
        const double a = runMpi(2, 1), b = runMpi(2, 2), c = runMpi(2, 8);
        check("x2 ranks bitwise-identical at WJ_THREADS 1/2/8",
              bitEq(a, b) && bitEq(a, c));
    }

    // ---- WJ_FAULT: the robustness layer under this workload.
    std::printf("fault injection (WJ_FAULT)\n");
    {
        // A transient external-compiler failure is retried transparently.
        // Drop the compile cache first so the jit really reaches the
        // external compiler instead of being served a cached module.
        JitCache::instance().clearLoaded();
        JitCache::instance().clearDisk();
        fault::FaultPlan::instance().configure("failcompile:nth=1");
        Value solver = makeCpuSolver(in);
        JitCode code = WootinJ::jit(prog, solver, "run",
                                    {Value::ofI32(n), Value::ofI32(seed), Value::ofI32(iters)},
                                    opts);
        check("transient compile failure retried", code.compileAttempts() == 2);
        check("retried code still verifies",
              near(code.invoke().asF64(), expectMpi, 1e-4));
        fault::FaultPlan::instance().disarm();
    }
    {
        // Kill rank 1 mid-solve; the kill consumes itself, so re-invoking
        // the same JitCode recovers and must reproduce the clean residual.
        const double clean = runMpi(2, 2);
        fault::FaultPlan::instance().configure("kill:rank=1,op=3");
        Value solver = makeMpiSolver(in, n / 2);
        JitCode code = WootinJ::jit4mpi(prog, solver, "run",
                                        {Value::ofI32(n / 2), Value::ofI32(seed),
                                         Value::ofI32(iters)},
                                        opts);
        code.set4MPI(2);
        bool killed = false;
        try {
            (void)code.invoke();
        } catch (const ExecError&) {
            killed = true;
        }
        check("injected rank kill surfaced as ExecError", killed);
        check("re-invoke recovers bitwise", bitEq(code.invoke().asF64(), clean));
        fault::FaultPlan::instance().disarm();
    }

    const bool traced = trace::Tracer::instance().flush();
    std::printf("\ntrace: %s\n", traced ? "cg_solver.trace.json written" : "not written");
    if (!traced) ++failures;

    std::printf("%s\n", failures == 0 ? "all checks passed" : "CHECKS FAILED");
    return failures == 0 ? 0 : 1;
}

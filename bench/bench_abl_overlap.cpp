// Ablation: communication/computation overlap in the MPI stencil runner.
//
// The library ships two MPI runners with bit-identical numerics: the
// paper-style synchronous halo exchange (StencilCPU3D_MPI) and an
// overlapped one (StencilCPU3D_MPI_Overlap) that posts nonblocking ghost
// receives and computes the interior while halos are in flight. This bench
// (a) verifies the two agree on a real MiniMPI run, (b) calibrates the
// alpha-beta link model against the transport ping-pong rows persisted in
// BENCH_kernels_micro.json (measuring inline when no report is on disk)
// and prints the fit's predicted-vs-measured error, and (c) models how
// much exchange latency the overlap hides at TSUBAME-like scale.
#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include "common.h"
#include "interp/interp.h"
#include "jit/jit.h"
#include "minimpi/minimpi.h"
#include "perf/perfmodel.h"
#include "stencil/stencil_lib.h"

using namespace wj;
using namespace wj::stencil;

namespace {

/// Median one-way message cost of a 2-rank threads-transport ping-pong —
/// the inline fallback when no BENCH_kernels_micro.json report is on disk.
double pingPongOneWayNs(size_t bytes, int msgs, int reps) {
    minimpi::World w(2, minimpi::TransportKind::Threads);
    std::vector<double> ns;
    for (int r = 0; r <= reps; ++r) {  // r == 0 warms the transport
        const auto t0 = std::chrono::steady_clock::now();
        w.run([&](minimpi::Comm& c) {
            std::vector<uint8_t> buf(bytes, static_cast<uint8_t>(1));
            for (int m = 0; m < msgs; ++m) {
                if (c.rank() == 0) {
                    c.send(buf.data(), bytes, 1, 1);
                    c.recv(buf.data(), bytes, 1, 2);
                } else {
                    c.recv(buf.data(), bytes, 0, 1);
                    c.send(buf.data(), bytes, 0, 2);
                }
            }
        });
        if (r == 0) continue;
        ns.push_back(std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     (2.0 * msgs));  // a round trip is two messages
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/// Fits alpha-beta against the transport rows bench_kernels_micro persisted
/// (or an inline sweep) and prints the model's predicted-vs-measured error
/// per message size — the calibration check for the modeled tables below.
void calibrateAlphaBeta() {
    const char* report = "BENCH_kernels_micro.json";
    std::vector<perf::LinkSample> samples;
    for (const auto& row : wjbench::loadReportRows(report)) {
        unsigned long bytes = 0;
        char kind[16] = {0};
        // "xport <bytes>B threads" rows; the round-trip median covers two
        // messages. The proc rows price process isolation, not the link.
        if (std::sscanf(row.config.c_str(), "xport %luB %15s", &bytes, kind) == 2 &&
            std::strcmp(kind, "threads") == 0) {
            samples.push_back({static_cast<double>(bytes), row.medianNs * 1e-9 / 2.0});
        }
    }
    const bool fromReport = !samples.empty();
    if (!fromReport) {
        for (size_t bytes : {64u, 4096u, 65536u})
            samples.push_back(
                {static_cast<double>(bytes), pingPongOneWayNs(bytes, 128, 3) * 1e-9});
    }
    const perf::NetModel fit = perf::fitAlphaBeta(samples);
    std::printf("calibrated alpha-beta over the local threads transport (%s):\n",
                fromReport ? report : "report absent; measured inline");
    std::printf("  alpha %.3f us, beta %.3f GB/s\n", fit.latency * 1e6, fit.bandwidth / 1e9);
    std::printf("%12s %14s %14s %10s\n", "bytes", "measured", "predicted", "error");
    double sumAbsErr = 0;
    for (const auto& s : samples) {
        const double pred = fit.transferTime(s.bytes);
        const double errPct = (pred / s.seconds - 1.0) * 100.0;
        sumAbsErr += std::fabs(errPct);
        std::printf("%12.0f %12.0fns %12.0fns %9.1f%%\n", s.bytes, s.seconds * 1e9,
                    pred * 1e9, errPct);
    }
    std::printf("mean |error| %.1f%% over %zu sizes\n\n", sumAbsErr / samples.size(),
                samples.size());
    wjbench::jsonRow("calibrated alpha (ns/msg)", fit.latency * 1e9);
    wjbench::jsonRow("calibrated beta (ns/KiB)", 1024.0 / fit.bandwidth * 1e9);
}

} // namespace

int main(int argc, char** argv) {
    const auto opts = wjbench::parseArgs(argc, argv);
    wjbench::banner("Ablation: halo-exchange overlap",
                    "synchronous vs overlapped MPI stencil runner",
                    "agreement REAL on MiniMPI; cluster timing MODELED");

    // Real agreement check.
    Program prog = buildProgram();
    Interp in(prog);
    const auto coeffs = DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    const int nx = 12, ranks = 4, nzLocal = 6, steps = 3;
    Value sync = makeMpiRunner(in, nx, nx, nzLocal, coeffs, 7);
    Value ovl = makeMpiOverlapRunner(in, nx, nx, nzLocal, coeffs, 7);
    JitCode cs = WootinJ::jit4mpi(prog, sync, "run", {Value::ofI32(steps)});
    JitCode co = WootinJ::jit4mpi(prog, ovl, "run", {Value::ofI32(steps)});
    cs.set4MPI(ranks);
    co.set4MPI(ranks);
    const double a = cs.invoke().asF64();
    const double b = co.invoke().asF64();
    std::printf("real run on %d ranks: sync %.6f, overlapped %.6f -> %s\n", ranks, a, b,
                a == b ? "bit-identical" : "MISMATCH");

    // Real traffic, from MiniMPI's accounting (collective internals
    // included).
    const auto traffic = [](const char* name, const JitCode& code) {
        const auto st = code.commStats();
        std::printf("%-10s traffic: %lld msgs, %lld B\n", name,
                    static_cast<long long>(st.messages), static_cast<long long>(st.bytes));
    };
    traffic("sync", cs);
    traffic("overlapped", co);
    std::printf("\n");

    calibrateAlphaBeta();

    // Modeled benefit as the per-node slab shrinks (strong-scaling regime:
    // the thinner the slab, the larger the comm fraction and the payoff).
    const auto costs = wjbench::measureDiffusionCosts(false, opts.full);
    const auto m = perf::MachineProfile::tsubame2();
    std::printf("weak-scaling step time at 16 nodes, per-node slab depth varied\n");
    std::printf("%8s %14s %14s %10s\n", "nz/node", "sync", "overlapped", "saved");
    for (int nz : {128, 32, 8, 4}) {
        perf::StencilScaling s{};
        s.nx = s.ny = 128;
        s.nzPerNodeOrGlobal = nz;
        s.secondsPerCell = costs.wootinj;
        const double ts = s.weakStepCpu(m, 16);
        const double to = s.weakStepCpuOverlap(m, 16);
        std::printf("%8d %14.6f %14.6f %9.1f%%\n", nz, ts, to, (1.0 - to / ts) * 100.0);
    }
    std::printf("\nablation check: overlap never slower, and results bit-identical -> %s\n",
                a == b ? "holds" : "VIOLATED");
    return a == b ? 0 : 1;
}

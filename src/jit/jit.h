// The public WootinC JIT API, mirroring the paper's client view (Listing 3):
//
//   JitCode code = WootinJ::jit4mpi(prog, stencil, "run", {length, updateCnt});
//   code.set4MPI(128, "./nodeList");
//   Value result = code.invoke();
//
// jit()/jit4mpi() verify the coding rules, translate the entry method and
// everything reachable from it into C (devirtualized, object-inlined),
// compile with the external C compiler, and dlopen the result. invoke()
// deep-copies the recorded array arguments into the translated code's own
// memory space (per rank, for MPI) and calls the generated entry. Modified
// arrays are NOT copied back (paper, Section 3.1) unless the copy-back
// extension is requested.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "interp/value.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "ir/program.h"
#include "minimpi/minimpi.h"
#include "runtime/wjrt.h"
#include "trace/metrics.h"

namespace wj {

/// Which engine invoke() drives — the degradation ladder's rungs. Tests and
/// benches assert on this instead of guessing from timings.
enum class ExecMode {
    Native,       ///< freshly compiled by the external C compiler
    NativeCached, ///< served by the compile cache (memory or disk layer)
    Interpreter,  ///< fallback: the C compiler was unavailable
};

class JitCode {
public:
    JitCode(JitCode&&) = default;
    JitCode& operator=(JitCode&&) = default;

    /// Configures MPI execution with `ranks` ranks. `nodeList` is accepted
    /// for interface fidelity with the paper but ignored: MiniMPI ranks are
    /// threads of this process or, under WJ_TRANSPORT=proc, forked child
    /// processes on this host — never other hosts.
    void set4MPI(int ranks, const std::string& nodeList = "");

    /// Runs the translated code with the arguments recorded at jit() time.
    /// Under MPI, every rank runs the entry with its own deep copy of the
    /// argument arrays (separate memory spaces); rank 0's return value is
    /// returned.
    Value invoke();

    /// Runs with overriding arguments (same types as recorded).
    Value invokeWith(const std::vector<Value>& args);

    /// EXTENSION beyond the paper: copy the receiver-graph and argument
    /// arrays back into the interpreter heap after a single-rank invoke.
    /// Lets differential tests compare whole arrays, not just return values.
    /// Throws if MPI ranks > 1 (ranks hold divergent copies).
    void enableCopyBack(bool on) { copyBack_ = on; }

    // ---- Table 3 accounting. compileSeconds() is the external-compiler
    // time THIS construction paid: 0 when the compile cache served the
    // module (the shared NativeModule may have cost its first builder more).
    double codegenSeconds() const noexcept { return translation_.codegenSeconds; }
    // ---- bounds-guard accounting (TranslateOptions::bounds; see src/analysis/)
    int64_t boundsGuards() const noexcept { return translation_.boundsGuards; }
    int64_t boundsElided() const noexcept { return translation_.boundsElided; }
    double compileSeconds() const noexcept { return compile_.compileSeconds; }
    double totalCompilationSeconds() const noexcept {
        return codegenSeconds() + compileSeconds();
    }

    // ---- compile-cache observability (see jit/cache.h). Warm construction
    // of an already-compiled translation unit skips the external compiler:
    // cacheHit() is true and compileSeconds() is 0.
    bool cacheHit() const noexcept { return compile_.cacheHit; }
    double cacheLookupSeconds() const noexcept { return compile_.lookupSeconds; }

    // ---- robustness observability (see src/fault/). execMode() reports
    // which rung of the degradation ladder this code runs on; Interpreter
    // means the external C compiler was unavailable and WJ_JIT_FALLBACK
    // (default on) allowed graceful degradation. compileAttempts() exceeds
    // 1 when transient compiler failures were retried (0 on a cache hit).
    ExecMode execMode() const noexcept { return mode_; }
    int compileAttempts() const noexcept { return compile_.attempts; }

    // ---- optimization evidence (tests assert on these)
    int64_t specializations() const noexcept { return translation_.specializations; }
    int64_t devirtualizedCalls() const noexcept { return translation_.devirtualizedCalls; }
    int64_t inlinedObjects() const noexcept { return translation_.inlinedObjects; }
    int64_t kernels() const noexcept { return translation_.kernels; }
    /// Loops the analysis proved dependence-free and the translator
    /// dispatched through wjrt_parallel_for (TranslateOptions::parallel).
    int64_t parallelLoops() const noexcept { return translation_.parallelLoops; }
    /// Reduction loops (`acc = acc op f(i)`) outlined through
    /// wjrt_parallel_reduce with the ordered deterministic combine.
    int64_t reduceLoops() const noexcept { return translation_.reduceLoops; }
    /// Loops the proveVectors pass cleared for SIMD and the translator
    /// emitted under `#pragma omp simd` (TranslateOptions::simd) — including vectorized
    /// chunk loops inside parallel-for/reduce outlines.
    int64_t vectorLoops() const noexcept { return translation_.vectorLoops; }
    /// Allocation sites the translator emitted as SoA (wjrt_alloc_soa)
    /// because the proveLayout pass proved the element class Inline and
    /// TranslateOptions::soa was set.
    int64_t soaArrays() const noexcept { return translation_.soaArrays; }
    /// Element classes actually stored SoA in this translation (sorted;
    /// empty unless soa was set and at least one Inline class is allocated).
    const std::vector<std::string>& layoutClasses() const noexcept {
        return translation_.soaClasses;
    }

    /// MiniMPI traffic of the most recent multi-rank invoke(): messages and
    /// payload bytes, collective internals included (all zeros before the
    /// first MPI run).
    minimpi::CommStats commStats() const noexcept { return commStats_; }

    /// Snapshot of the process-wide metrics registry (src/trace/metrics.h):
    /// cache hits, bytes by collective channel, pool dispatches, guard
    /// fallbacks, checkpoint bytes, ... — the same values the WJ_TRACE
    /// sidecar exports, queryable without touching the filesystem. The
    /// registry is process-wide (cumulative across JitCode instances); diff
    /// two snapshots to attribute work to one invoke.
    static std::vector<trace::MetricValue> metrics() {
        return trace::Metrics::instance().snapshot();
    }

    /// The generated C translation unit (Listing 5's analogue).
    const std::string& generatedC() const noexcept { return translation_.cSource; }
    const std::string& compileCommand() const noexcept {
        static const std::string kNone = "(none: interpreter fallback)";
        return compile_.module ? compile_.module->compileCommand() : kNone;
    }

private:
    friend class WootinJ;
    JitCode(const Program& prog, Value receiver, std::string method, std::vector<Value> args,
            bool mpi, const TranslateOptions& opts);
    /// Assembles from a finished translation + compile result (async path).
    JitCode(const Program& prog, Value receiver, std::string method, std::vector<Value> args,
            bool mpi, Translation tr, CompileResult compiled);
    /// Assembles in interpreter-fallback mode (compiler unavailable).
    JitCode(const Program& prog, Value receiver, std::string method, std::vector<Value> args,
            bool mpi, Translation tr);

    /// Runs the native entry on this rank; returns its raw result slot
    /// (decode with slotToValue and translation_.plan.ret).
    int64_t invokeRank(const std::vector<Value>& args);
    Value invokeInterpreter(const std::vector<Value>& args);

    const Program* prog_;
    Value receiver_;
    std::string method_;
    std::vector<Value> recordedArgs_;
    bool mpi_ = false;
    int ranks_ = 1;
    bool copyBack_ = false;

    Translation translation_;
    minimpi::CommStats commStats_;
    CompileResult compile_;  // module is shared via the module registry
    ExecMode mode_ = ExecMode::Native;
    using EntryFn = int64_t (*)(const int64_t*, ::wj_array**);
    EntryFn entry_ = nullptr;
};

/// Facade named after the paper's framework. Every entry point takes the
/// translation choices as a trailing TranslateOptions value; omitting it
/// reads the WJ_BOUNDS/PARALLEL/SIMD/SOA environment once for that call.
class WootinJ {
public:
    /// Translates `receiver.method(args...)` for single-process execution
    /// (GPU via GpuSim allowed; MPI calls trap at run time).
    static JitCode jit(const Program& prog, const Value& receiver, const std::string& method,
                       std::vector<Value> args,
                       const TranslateOptions& opts = TranslateOptions::fromEnv());

    /// Translates for MPI execution; call set4MPI() before invoke().
    static JitCode jit4mpi(const Program& prog, const Value& receiver, const std::string& method,
                           std::vector<Value> args,
                           const TranslateOptions& opts = TranslateOptions::fromEnv());

    /// Asynchronous variants: translation + external compilation run on the
    /// shared compile thread pool, so independent translation units build
    /// in parallel (the all-variants benches overlap their compiles this
    /// way). `prog` must outlive the returned future's completion; the
    /// future rethrows any rule/translation/compile error on get().
    static std::future<JitCode> jitAsync(
        const Program& prog, Value receiver, std::string method, std::vector<Value> args,
        const TranslateOptions& opts = TranslateOptions::fromEnv());
    static std::future<JitCode> jit4mpiAsync(
        const Program& prog, Value receiver, std::string method, std::vector<Value> args,
        const TranslateOptions& opts = TranslateOptions::fromEnv());

private:
    static std::future<JitCode> jitAsyncImpl(const Program& prog, Value receiver,
                                             std::string method, std::vector<Value> args,
                                             bool mpi, const TranslateOptions& opts);
};

} // namespace wj

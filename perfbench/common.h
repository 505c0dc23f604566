// Shared pieces of the perfbench binary: seeded inputs, clocks, sample
// statistics, in-memory spans, and the result report whose last line the
// caller (run.py) hands to whoever runs the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "jit/jit.h"

namespace pb {

// ---------------------------------------------------------------- inputs

/// splitmix64: the benchmark's only source of randomness, so one seed gives
/// the same inputs on every host and standard library.
class Rng {
public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next() {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, n).
    uint64_t below(uint64_t n) { return next() % n; }
    /// Fisher-Yates shuffle.
    template <class T>
    void shuffle(std::vector<T>& v) {
        for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
    }

private:
    uint64_t s_;
};

// ---------------------------------------------------------------- clocks

inline int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}
inline double msSince(int64_t t0) { return (nowNs() - t0) / 1e6; }

// ---------------------------------------------------------------- stats

double median(std::vector<double> v);

/// Samples taken round-robin over `groups` kinds of op (sample i is of
/// kind i % groups): the median of each kind, and their geometric mean.
/// Unlike the pooled median it does not jump between two kinds' clusters.
std::vector<double> mediansByKind(const std::vector<double>& samples, size_t groups);
double geomean(const std::vector<double>& v);

/// The highest of p99, p90 and p50 that still has at least 10 samples
/// above it (nearest rank): p99 from 1000 samples, p90 from 100. A fixed
/// set of percentiles keeps the estimate from chasing the last few samples
/// as a run grows. With fewer than 11 samples it is the maximum.
struct Tail {
    double pct = 100;
    double value = 0;
};
Tail tail(std::vector<double> v);

/// Peak resident set of this process (ru_maxrss), in MiB.
double peakRssMb();

/// The machine's CPU time counters from /proc/stat, in ticks: all of it,
/// and the part a hypervisor gave to other guests ("steal").
struct CpuTicks {
    long long total = 0, steal = 0;
};
CpuTicks cpuTicks();
/// Prints the share of CPU time stolen between two readings: context for a
/// run whose timings moved with the host rather than with the program.
void reportSteal(const CpuTicks& before, const CpuTicks& after);

// ---------------------------------------------------------------- spans

/// Spans recorded by the benchmark around its own calls into the program's
/// public layers. They stay in memory; the owner writes them out once the
/// run ends. One Tracer per thread; a Scope nests under the innermost open
/// span of its tracer.
class Tracer {
public:
    struct Span {
        const char* name;
        int64_t op;       ///< request / op id shared by the spans of one op
        int parent;       ///< index of the enclosing span, -1 at top level
        int64_t startNs;
        int64_t endNs;
        int tid;          ///< recording thread (0: the main thread)
    };

    class Scope {
    public:
        Scope(Tracer& t, const char* name, int64_t op);
        ~Scope() { close(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        /// Ends the span now; returns its duration in ms (idempotent).
        double close();

    private:
        Tracer& t_;
        int id_;
    };

    /// Adds another thread's spans, recorded as thread `tid`.
    void append(const Tracer& other, int tid);
    /// Durations (ms) of every span called `name`.
    std::vector<double> durations(const char* name) const;
    /// Prints each span name's median duration and self time, then writes
    /// the spans as Chrome trace-event JSON to `path` (if not empty).
    void finish(const std::string& path) const;

private:
    /// Median self time (duration minus the part children cover) of spans
    /// called `name`, in ms.
    double medianSelfMs(const char* name) const;
    /// Distinct span names, in first-seen order.
    std::vector<const char*> names() const;

    std::vector<Span> spans_;
    int open_ = -1;
};

// ---------------------------------------------------------------- report

/// Everything one run prints: `info` lines as it goes, the metrics, and the
/// final JSON line {"correct", "attempted", "failed", "metrics"}.
class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit);

    /// Counts one attempted operation; false when `ok` is false, which
    /// also counts a failure and prints `what` (first few only).
    bool check(bool ok, const std::string& what);
    /// An operation that counts as attempted without a separate check.
    void attempt() { ++attempted_; }

    /// Prints fail_ratio and the final JSON line; returns the exit code.
    /// A traced run first reports every per-layer metric this workload does
    /// not exercise as 0, with the reason on an info line.
    int finish(bool traced);

private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Bitwise equality of two doubles (NaN payloads included).
bool sameBits(double a, double b);
/// All 17 significant digits, for failure messages.
std::string exact(double v);
/// |got - want| <= |want| * rel + abs.
bool near(double got, double want, double rel, double abs);

// ---------------------------------------------------------------- runs

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    int setupReps = 3;
    std::string runDir;    ///< private scratch directory (cache, TMPDIR, socket)
    std::string traceOut;  ///< where the traced run writes its spans
};

void runJitWarm(const Args& a, Report& r);
void runSolve(const Args& a, Report& r);
void runWjdMixed(const Args& a, Report& r);

/// WootinJ::jit (ranks == 0) or jit4mpi + set4MPI(ranks) of `recv.run(args)`
/// on a cold cache; its wall time goes to `coldMs`. With `ccMs` (traced
/// runs) it first translates and times compileAndLoad alone: the cc +
/// dlopen + store of a miss.
wj::JitCode jitCold(const wj::Program& prog, const wj::Value& recv, const std::vector<wj::Value>& args,
                    int ranks, const std::string& tag, std::vector<double>& coldMs,
                    std::vector<double>* ccMs);

/// Thread-pool dispatch counters ("pool.dispatches[.inline]" in
/// JitCode::metrics()) and the share of dispatches between two snapshots
/// that ran inline on the caller.
struct PoolCounts {
    int64_t inlined = 0, fanned = 0;
};
PoolCounts poolCounts();
double inlineRatio(const PoolCounts& before, const PoolCounts& after);

/// Per-layer probes every traced run makes under its own switches:
/// runtime.pool.dispatch_us and minimpi.pingpong_64b_us.
void probeRuntimeAndMinimpi(Report& r);

} // namespace pb

#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "jit/codegen.h"
#include "jit/compile.h"
#include "minimpi/minimpi.h"
#include "runtime/threadpool.h"

namespace pb {

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<double> mediansByKind(const std::vector<double>& samples, size_t groups) {
    std::vector<double> out;
    for (size_t g = 0; g < groups; ++g) {
        std::vector<double> kind;
        for (size_t i = g; i < samples.size(); i += groups) kind.push_back(samples[i]);
        out.push_back(median(kind));
    }
    return out;
}

double geomean(const std::vector<double>& v) {
    if (v.empty()) return 0;
    double logSum = 0;
    for (double x : v) logSum += std::log(x);
    return std::exp(logSum / v.size());
}

Tail tail(std::vector<double> v) {
    Tail t;
    if (v.empty()) return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    t.value = v.back();
    // Nearest rank; the first standard percentile with 10 samples above it.
    for (double p : {99.0, 90.0, 50.0}) {
        const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
        if (rank >= 1 && n - rank >= 10) {
            t.pct = p;
            t.value = v[rank - 1];
            break;
        }
    }
    return t;
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

CpuTicks cpuTicks() {
    CpuTicks t;
    FILE* f = std::fopen("/proc/stat", "r");
    if (!f) return t;
    long long v[8] = {};
    if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0], &v[1], &v[2], &v[3], &v[4],
                    &v[5], &v[6], &v[7]) == 8) {
        for (long long x : v) t.total += x;
        t.steal = v[7];
    }
    std::fclose(f);
    return t;
}

void reportSteal(const CpuTicks& before, const CpuTicks& after) {
    const long long total = after.total - before.total;
    if (total > 0)
        info("host: %.1f%% of CPU time was stolen by the hypervisor during the measured phase",
             100.0 * (after.steal - before.steal) / total);
}

// ---------------------------------------------------------------- spans

Tracer::Scope::Scope(Tracer& t, const char* name, int64_t op) : t_(t) {
    id_ = static_cast<int>(t.spans_.size());
    t.spans_.push_back({name, op, t.open_, nowNs(), 0, 0});
    t.open_ = id_;
}

double Tracer::Scope::close() {
    Span& s = t_.spans_[id_];
    if (s.endNs == 0) {
        s.endNs = nowNs();
        t_.open_ = s.parent;
    }
    return (s.endNs - s.startNs) / 1e6;
}

void Tracer::append(const Tracer& other, int tid) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0) s.parent += base;
        s.tid = tid;
        spans_.push_back(s);
    }
}

std::vector<double> Tracer::durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
        if (std::strcmp(s.name, name) == 0) out.push_back((s.endNs - s.startNs) / 1e6);
    return out;
}

double Tracer::medianSelfMs(const char* name) const {
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_)
        if (s.parent >= 0) childNs[s.parent] += s.endNs - s.startNs;
    std::vector<double> self;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (std::strcmp(spans_[i].name, name) == 0)
            self.push_back((spans_[i].endNs - spans_[i].startNs - childNs[i]) / 1e6);
    return median(self);
}

std::vector<const char*> Tracer::names() const {
    std::vector<const char*> out;
    for (const Span& s : spans_) {
        bool seen = false;
        for (const char* n : out) seen = seen || std::strcmp(n, s.name) == 0;
        if (!seen) out.push_back(s.name);
    }
    return out;
}

void Tracer::finish(const std::string& path) const {
    for (const char* n : names())
        info("  span %-28s median %.4f ms, self %.4f ms, n=%zu", n, median(durations(n)), medianSelfMs(n),
             durations(n).size());
    if (path.empty()) return;
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        info("could not write spans to %s", path.c_str());
        return;
    }
    int64_t t0 = INT64_MAX;
    for (const Span& s : spans_) t0 = std::min(t0, s.startNs);
    std::fprintf(f, "{\"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %lld, \"parent\": %d}}",
                     i ? "," : "", s.name, s.tid, (s.startNs - t0) / 1e3,
                     (s.endNs - s.startNs) / 1e3, static_cast<long long>(s.op), s.parent);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) info("could not write spans to %s", path.c_str());
}

// ---------------------------------------------------------------- report

void info(const char* fmt, ...) {
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::putchar('\n');
    std::fflush(stdout);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
    info("metric %-34s %14.6f %s", name.c_str(), value, unit.c_str());
}


bool Report::check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        if (failed_ < 10) info("FAIL %s", what.c_str());
        ++failed_;
    }
    return ok;
}

namespace {
/// Every per-layer metric (BENCHMARK.json "per_layer") and its unit.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"rules.verify_ms", "ms"},          {"analysis.entry_ms", "ms"},
    {"jit.codegen_ms", "ms"},           {"jit.codegen_reported_ms", "ms"},
    {"jit.cache.lookup_us", "us"},      {"jit.cache.hit_ratio", "ratio"},
    {"jit.cache.hits_per_op", "count"}, {"jit.cache.misses_per_op", "count"},
    {"jit.cache.setup_misses", "count"}, {"jit.cc_ms", "ms"},
    {"jit.invoke_ms", "ms"},            {"jit.invoke_fixed_ms", "ms"},
    {"runtime.pool.dispatch_us", "us"}, {"runtime.pool.inline_ratio", "ratio"},
    {"minimpi.pingpong_64b_us", "us"},  {"minimpi.msgs_per_run", "count"},
    {"minimpi.bytes_per_run", "B"},     {"frontend.parse_ms", "ms"},
    {"service.ping_us", "us"},          {"service.queue_wait_ms", "ms"},
    {"service.misses_per_100req", "count"},
    {"solve.diffusion_ms", "ms"},       {"solve.fox_ms", "ms"},
    {"solve.cg_ms", "ms"},              {"solve.diffusion.mcups", "MCUP/s"},
    {"solve.fox.gflops", "GFLOP/s"},    {"solve.cg.gbytes_computed", "GB/s"},
    {"solve.diffusion.cell_updates", "count"}, {"solve.fox.flops", "count"},
    {"solve.cg.bytes", "B"},            {"solve.diffusion.handc_ms", "ms"},
    {"solve.fox.handc_ms", "ms"},       {"solve.diffusion.vs_handc", "ratio"},
    {"solve.fox.vs_handc", "ratio"},    {"trace.stage_sum_ms", "ms"},
    {"trace.stage_gap_ms", "ms"},       {"trace.overhead_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

const char* absentReason(const std::string& name) {
    if (name.rfind("solve.", 0) == 0) return "measured on the solve workload only";
    if (name.rfind("service.", 0) == 0) return "needs the daemon: wjd-mixed only";
    if (name.rfind("frontend.", 0) == 0) return "no WJ source is parsed on this workload";
    if (name.rfind("trace.stage_", 0) == 0) return "the stage ledger is decomposed on jit-warm only";
    return "this workload makes no calls into this layer";
}
} // namespace

int Report::finish(bool traced) {
    if (traced) {
        for (const auto& [name, unit] : kPerLayer) {
            bool have = false;
            for (const auto& m : metrics_) have = have || m.first == name;
            if (have) continue;
            metrics_.push_back({name, {0.0, unit}});
            info("metric %-34s %14s %s (0: %s)", name.c_str(), "-", unit.c_str(), absentReason(name));
        }
    }
    info("fail_ratio %.6f (%lld failed of %lld attempted)",
         attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
         static_cast<long long>(failed_), static_cast<long long>(attempted_));
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.12g", metrics_[i].second.first);
        json += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " + num +
                ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string exact(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool near(double got, double want, double rel, double abs) {
    return std::abs(got - want) <= std::abs(want) * rel + abs;
}

// ---------------------------------------------------------------- runs

wj::JitCode jitCold(const wj::Program& prog, const wj::Value& recv, const std::vector<wj::Value>& args,
                    int ranks, const std::string& tag, std::vector<double>& coldMs,
                    std::vector<double>* ccMs) {
    if (ccMs) {
        const wj::Translation tr = wj::translate(prog, recv, "run", args);
        const int64_t c0 = nowNs();
        const wj::CompileResult cr = wj::compileAndLoad(tr.cSource, tag);
        ccMs->push_back(msSince(c0));
        if (cr.cacheHit) throw std::runtime_error(tag + ": setup compile hit a cleared cache");
    }
    const int64_t t0 = nowNs();
    wj::JitCode code = ranks ? wj::WootinJ::jit4mpi(prog, recv, "run", args)
                             : wj::WootinJ::jit(prog, recv, "run", args);
    coldMs.push_back(msSince(t0));
    if (ranks) code.set4MPI(ranks);
    return code;
}

// ---------------------------------------------------------------- probes

PoolCounts poolCounts() {
    PoolCounts c;
    for (const auto& m : wj::JitCode::metrics()) {
        if (m.name == "pool.dispatches") c.fanned = m.value;
        if (m.name == "pool.dispatches.inline") c.inlined = m.value;
    }
    return c;
}

double inlineRatio(const PoolCounts& before, const PoolCounts& after) {
    const int64_t inl = after.inlined - before.inlined, fan = after.fanned - before.fanned;
    return inl + fan ? static_cast<double>(inl) / (inl + fan) : 0;
}

namespace {
void emptyBody(int64_t, int64_t, void*) {}
} // namespace

void probeRuntimeAndMinimpi(Report& r) {
    // Pool dispatch of a trivial body under this process's WJ_THREADS: the
    // fixed cost a parallel loop pays before doing any work.
    auto& pool = wj::runtime::ThreadPool::instance();
    std::vector<double> dispatchUs;
    for (int rep = 0; rep < 7; ++rep) {
        constexpr int kCalls = 500;
        const int64_t t0 = nowNs();
        for (int i = 0; i < kCalls; ++i) pool.parallelFor(0, 1024, emptyBody, nullptr);
        dispatchUs.push_back((nowNs() - t0) / 1e3 / kCalls);
    }
    r.metric("runtime.pool.dispatch_us", median(dispatchUs), "us");

    // 64 B round trip between two ranks of a fresh threads-transport world.
    wj::minimpi::World world(2, wj::minimpi::TransportKind::Threads);
    std::vector<double> rttUs;
    for (int rep = 0; rep < 7; ++rep) {
        constexpr int kTrips = 500;
        const int64_t t0 = nowNs();
        world.run([](wj::minimpi::Comm& c) {
            char buf[64] = {};
            for (int i = 0; i < kTrips; ++i) {
                if (c.rank() == 0) {
                    c.send(buf, sizeof buf, 1, 7);
                    c.recv(buf, sizeof buf, 1, 8);
                } else {
                    c.recv(buf, sizeof buf, 0, 7);
                    c.send(buf, sizeof buf, 0, 8);
                }
            }
        });
        rttUs.push_back((nowNs() - t0) / 1e3 / kTrips);
    }
    r.metric("minimpi.pingpong_64b_us", median(rttUs), "us");
}

} // namespace pb

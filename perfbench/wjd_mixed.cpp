// wjd-mixed: an in-process compile daemon on a real Unix socket and four
// clients in a closed loop, each a build tool waiting for its reply. The
// seeded traffic is ~90% hits over a few warm modules, ~3% fresh modules
// (real misses: parse -> rules -> translate -> cc -> store) and ~7%
// malformed modules that must come back as PARSE_ERROR. The only workload
// where cc and cache writes sit on the request path beside reads.
#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "common.h"
#include "frontend/composition.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "jit/jit.h"
#include "rules/rules.h"
#include "service/client.h"
#include "service/daemon.h"

namespace pb {
namespace {

using namespace wj;

constexpr int kClients = 4;
constexpr int kWarmModules = 8;
// One block of a client's traffic: 100 requests in a seeded order.
constexpr int kBlock = 100, kBlockHits = 90, kBlockFresh = 3;
constexpr int kFreshPerClient = 100000;

/// A small self-contained module. The nonce lands in the class name and a
/// literal, so every nonce is its own translation unit and cache key.
std::string moduleSource(int nonce) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "@WootinJ class Work%d {\n"
                  "  Work%d() {}\n"
                  "  int run(int n) {\n"
                  "    int acc = 0;\n"
                  "    for (int i = 0; i < n; i = i + 1) {\n"
                  "      acc = acc + i * %d;\n"
                  "    }\n"
                  "    return acc;\n"
                  "  }\n"
                  "}\n",
                  nonce, nonce, nonce % 97 + 3);
    return buf;
}
std::string newExpr(int nonce) { return "Work" + std::to_string(nonce) + "()"; }
/// A module cut off mid-declaration: the parser must reject it.
std::string malformedSource(int nonce) {
    return "@WootinJ class Broken" + std::to_string(nonce) + " {\n  int run(int n) {\n    return n +\n";
}

enum class Kind { Hit, Fresh, Malformed };

struct Sample {
    Kind kind;
    double ms;
};

/// One client: its seeded request stream and what it saw.
struct ClientRun {
    std::vector<Sample> samples;
    int64_t hits = 0, fresh = 0, malformed = 0;
    std::vector<std::string> failures;
    Tracer tracer;
};

bool fileExists(const std::string& p) {
    struct stat sb{};
    return ::stat(p.c_str(), &sb) == 0 && S_ISREG(sb.st_mode);
}

/// Runs one client until `seconds` have passed, finishing its current block
/// so the traffic mix is exact. `freshNext` carries the client's next fresh
/// nonce across phases.
void clientLoop(const std::string& sock, uint64_t seed, int client, int base, double seconds,
                bool traced, int& freshNext, ClientRun& out) {
    service::Client c;
    c.connect(sock);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101 + client + (traced ? 7919 : 0));
    std::vector<Kind> block;
    for (int i = 0; i < kBlock; ++i)
        block.push_back(i < kBlockHits ? Kind::Hit : i < kBlockHits + kBlockFresh ? Kind::Fresh : Kind::Malformed);
    const int64_t start = nowNs();
    int64_t op = 0;
    while ((nowNs() - start) / 1e9 < seconds) {
        rng.shuffle(block);
        for (Kind k : block) {
            int nonce = 0;
            std::string src;
            if (k == Kind::Hit) {
                nonce = base + static_cast<int>(rng.below(kWarmModules));
                src = moduleSource(nonce);
            } else if (k == Kind::Fresh) {
                nonce = base + 100 + client * kFreshPerClient + freshNext++;
                src = moduleSource(nonce);
            } else {
                nonce = base + static_cast<int>(rng.below(1000));
                src = malformedSource(nonce);
            }
            std::string why;
            if (traced) {
                // The front end as a client sees it, outside the request span.
                Tracer::Scope parse(out.tracer, "frontend.parseProgram", op);
                try {
                    Program p = frontend::parseProgram(src);
                    parse.close();
                    Tracer::Scope rules(out.tracer, "rules.requireCodingRules", op);
                    requireCodingRules(p);
                } catch (const UsageError&) {
                    if (k != Kind::Malformed) why = "client-side parse failed on a well-formed module";
                }
            }
            service::Client::Reply rep;
            double ms = 0;
            try {
                std::unique_ptr<Tracer::Scope> span;
                if (traced) span = std::make_unique<Tracer::Scope>(out.tracer, "service.compile", op);
                const int64_t t0 = nowNs();
                rep = c.compile(src, newExpr(nonce), "run", "64");
                ms = msSince(t0);
            } catch (const std::exception& e) {
                why = std::string("request failed: ") + e.what();
            }
            if (why.empty()) {
                if (k == Kind::Malformed) {
                    if (rep.ok || rep.code != service::ErrCode::ParseError)
                        why = "malformed module answered " + (rep.ok ? std::string("ok") : rep.name);
                } else if (!rep.ok) {
                    why = "compile answered " + rep.name + ": " + rep.message;
                } else if (!fileExists(rep.path)) {
                    why = "artifact path does not exist: " + rep.path;
                } else if (rep.cacheHit != (k == Kind::Hit)) {
                    why = k == Kind::Hit ? "warm module was not a cache hit" : "fresh module hit the cache";
                }
            }
            if (!why.empty()) out.failures.push_back(why);
            out.samples.push_back({k, ms});
            (k == Kind::Hit ? out.hits : k == Kind::Fresh ? out.fresh : out.malformed)++;
            ++op;
        }
    }
}

struct Phase {
    std::vector<double> all, miss;
    int64_t hits = 0, fresh = 0, malformed = 0;
    double wallS = 0;
    Tracer tracer;
};

Phase runPhase(Report& r, const std::string& sock, uint64_t seed, int base, double seconds, bool traced,
               std::vector<int>& freshNext) {
    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> threads;
    const int64_t t0 = nowNs();
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            try {
                clientLoop(sock, seed, i, base, seconds, traced, freshNext[i], runs[i]);
            } catch (const std::exception& e) {
                runs[i].failures.push_back(std::string("client: ") + e.what());
            }
        });
    for (auto& t : threads) t.join();
    Phase ph;
    ph.wallS = (nowNs() - t0) / 1e9;
    for (int i = 0; i < kClients; ++i) {
        ClientRun& cr = runs[i];
        for (const Sample& s : cr.samples) {
            ph.all.push_back(s.ms);
            if (s.kind == Kind::Fresh) ph.miss.push_back(s.ms);
        }
        ph.hits += cr.hits;
        ph.fresh += cr.fresh;
        ph.malformed += cr.malformed;
        for (const std::string& f : cr.failures) r.check(false, f);
        for (size_t k = cr.failures.size(); k < cr.samples.size(); ++k) r.attempt();
        ph.tracer.append(cr.tracer, i + 1);
    }
    return ph;
}

/// Every fresh module costs exactly one cc run; hits and malformed
/// modules cost none.
void checkOneCcPerFresh(Report& r, const CacheStats& before, const CacheStats& after, const Phase& ph) {
    const int64_t ccRuns = after.misses - before.misses;
    r.check(ccRuns == ph.fresh, "cc ran " + std::to_string(ccRuns) + " times for " + std::to_string(ph.fresh) +
                                    " fresh modules");
}

/// {count, sum} of one histogram in the daemon's Stats JSON.
std::pair<int64_t, int64_t> histogram(const std::string& json, const std::string& name) {
    const size_t at = json.find("\"" + name + "\"");
    long long count = 0, sum = 0;
    if (at != std::string::npos)
        std::sscanf(json.c_str() + at + name.size() + 2, ": {\"count\": %lld, \"sum\": %lld", &count, &sum);
    return {count, sum};
}

} // namespace

void runWjdMixed(const Args& a, Report& r) {
    // Nonces derive from the seed; a run's fresh modules stay below base + 500000.
    const int base = 1 + static_cast<int>(a.seed % 4000) * 500000;
    const std::string sock = a.runDir + "/wjd.sock";
    auto& cache = JitCache::instance();

    std::unique_ptr<service::Daemon> daemon;
    std::vector<double> setupS, warmMs;
    int64_t setupMisses = 0;
    for (int rep = 0; rep < a.setupReps; ++rep) {
        daemon.reset();
        cache.clearLoaded();
        cache.clearDisk();
        const int64_t misses0 = cache.stats().misses;
        const int64_t t0 = nowNs();
        service::DaemonOptions opts;
        opts.socketPath = sock;
        opts.workers = 4;
        opts.quiet = true;
        daemon = std::make_unique<service::Daemon>(opts);
        daemon->start();
        service::Client c;
        c.connect(sock);
        for (int k = 0; k < kWarmModules; ++k) {
            const int64_t w0 = nowNs();
            const auto rep1 = c.compile(moduleSource(base + k), newExpr(base + k), "run", "64");
            warmMs.push_back(msSince(w0));
            if (!rep1.ok || rep1.cacheHit || !fileExists(rep1.path))
                throw std::runtime_error("warm module " + std::to_string(k) + " did not compile cold: " +
                                         rep1.name + " " + rep1.message);
        }
        setupS.push_back(msSince(t0) / 1e3);
        setupMisses = cache.stats().misses - misses0;
    }
    info("wjd-mixed: %d clients, %d warm modules, nonce base %d, %d setup(s); cold compile of a warm "
         "module %.3f ms (median)",
         kClients, kWarmModules, base, a.setupReps, median(warmMs));

    std::vector<int> freshNext(kClients, 0);
    const double phaseS = a.trace ? a.seconds / 2 : a.seconds;
    const CacheStats c0 = cache.stats();
    const CpuTicks ticks0 = cpuTicks();
    Phase ph = runPhase(r, sock, a.seed, base, phaseS, false, freshNext);
    reportSteal(ticks0, cpuTicks());
    checkOneCcPerFresh(r, c0, cache.stats(), ph);
    const double p50 = median(ph.all);
    const Tail t = tail(ph.all);
    info("wjd-mixed: %zu requests in %.2f s (%lld hits, %lld fresh, %lld malformed); p50 %.4f ms, "
         "p%g %.4f ms; miss p50 %.4f ms over %zu",
         ph.all.size(), ph.wallS, static_cast<long long>(ph.hits), static_cast<long long>(ph.fresh),
         static_cast<long long>(ph.malformed), p50, t.pct, t.value, median(ph.miss), ph.miss.size());

    if (!a.trace) {
        r.metric("setup_s", median(setupS), "s");
        r.metric("req_p50_ms", p50, "ms");
        r.metric("req_per_s", ph.all.size() / ph.wallS, "1/s");
        r.metric("miss_p50_ms", median(ph.miss), "ms");
        r.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    // ---- traced phase: the same traffic with client-side front-end spans.
    service::Client probe;
    probe.connect(sock);
    const std::string stats0 = probe.stats().statsJson;
    const CacheStats h0 = cache.stats();
    Phase tp = runPhase(r, sock, a.seed, base, phaseS, true, freshNext);
    const CacheStats h1 = cache.stats();
    checkOneCcPerFresh(r, h0, h1, tp);
    const std::string stats1 = probe.stats().statsJson;
    Tracer& tr = tp.tracer;

    // Daemon-reported: admission-to-reply minus the compileAndLoad stage.
    const auto req0 = histogram(stats0, "wjd.request.micros"), req1 = histogram(stats1, "wjd.request.micros");
    const auto cmp0 = histogram(stats0, "wjd.compile.micros"), cmp1 = histogram(stats1, "wjd.compile.micros");
    const int64_t nReq = req1.first - req0.first;
    const double queueMs = nReq ? ((req1.second - req0.second) - (cmp1.second - cmp0.second)) / 1e3 / nReq : 0;

    // Ping: socket, framing and dispatch, no compile.
    std::vector<double> pingUs;
    for (int i = 0; i < 500; ++i) {
        Tracer::Scope s(tr, "service.ping", i);
        r.check(probe.ping().ok, "ping failed");
        pingUs.push_back(s.close() * 1e3);
    }

    // The layers behind a request, called from outside on fresh modules
    // (cold: cc) and on warm ones (hot: key + registry lookup).
    std::vector<double> codegenMs, ccMs, lookupUs;
    for (int i = 0; i < 8; ++i) {
        const bool fresh = i % 2 == 0;
        const int nonce = fresh ? base + 100 + kClients * kFreshPerClient + i : base + i % kWarmModules;
        Program p = frontend::parseProgram(moduleSource(nonce));
        Interp in(p);
        Value recv = frontend::parseComposition(in, newExpr(nonce));
        const std::vector<Value> args = {frontend::parseArgLiteral("64")};
        // Five calls each; the first of a fresh module pays one-time costs.
        std::vector<double> an, trMs;
        Translation trn;
        for (int k = 0; k < 5; ++k) {
            {
                Tracer::Scope s(tr, "analysis.analyzeEntry", i);
                analysis::analyzeEntry(p, recv, "run", args);
                an.push_back(s.close());
            }
            Tracer::Scope s(tr, "jit.translate", i);
            trn = translate(p, recv, "run", args);
            trMs.push_back(s.close());
        }
        codegenMs.push_back(median(trMs) - median(an));
        Tracer::Scope s(tr, fresh ? "jit.compileAndLoad.miss" : "jit.compileAndLoad.hit", i);
        (void)cacheKeyFor(trn.cSource);
        CompileResult cr = compileAndLoad(trn.cSource, "probe");
        const double ms = s.close();
        r.check(cr.cacheHit != fresh, "probe compile: unexpected cache outcome");
        (fresh ? ccMs : lookupUs).push_back(fresh ? ms : ms * 1e3);
    }

    tr.finish(a.traceOut);
    const int64_t requests = tp.hits + tp.fresh + tp.malformed;
    r.metric("rules.verify_ms", median(tr.durations("rules.requireCodingRules")), "ms");
    r.metric("analysis.entry_ms", median(tr.durations("analysis.analyzeEntry")), "ms");
    r.metric("jit.codegen_ms", median(codegenMs), "ms");
    r.metric("jit.cache.lookup_us", median(lookupUs), "us");
    const int64_t hits = h1.memoryHits + h1.diskHits - h0.memoryHits - h0.diskHits, misses = h1.misses - h0.misses;
    r.metric("jit.cache.hit_ratio", hits + misses ? static_cast<double>(hits) / (hits + misses) : 0, "ratio");
    r.metric("jit.cache.hits_per_op", static_cast<double>(hits) / requests, "count");
    r.metric("jit.cache.misses_per_op", static_cast<double>(misses) / requests, "count");
    r.metric("jit.cache.setup_misses", static_cast<double>(setupMisses), "count");
    r.metric("jit.cc_ms", median(ccMs), "ms");
    probeRuntimeAndMinimpi(r);
    r.metric("frontend.parse_ms", median(tr.durations("frontend.parseProgram")), "ms");
    r.metric("service.ping_us", median(pingUs), "us");
    r.metric("service.queue_wait_ms", queueMs, "ms");
    r.metric("service.misses_per_100req", 100.0 * tp.fresh / requests, "count");
    const double traced = median(tr.durations("service.compile"));
    r.metric("trace.overhead_ms", traced - p50, "ms");
    r.metric("trace.overhead_ratio", (traced - p50) / p50, "ratio");
}

} // namespace pb

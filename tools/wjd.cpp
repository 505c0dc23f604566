// wjd — the WootinC JIT compile daemon (see src/service/daemon.h).
//
//   wjd --socket PATH [--workers N] [--max-inflight N] [--queue-cap N]
//       [--bundles DIR] [--fault SPEC] [--quiet]
//
// Listens on a Unix-domain socket for framed compile requests (protocol in
// src/service/protocol.h; talk to it with wjd_client or the service
// Client). Runs until SIGTERM/SIGINT or a Shutdown request, then drains:
// every admitted compile finishes and responds before the process exits.
//
// Environment: WJD_WORKERS / WJD_MAX_INFLIGHT / WJD_QUEUE_CAP are the
// flag defaults; the compile pipeline honors the usual WJ_CC, WJ_CFLAGS,
// WJ_CACHE_DIR, WJ_JIT_RETRIES, WJ_JIT_BACKOFF_MS, WJ_FAULT.
// WJ_CACHE_EVICT_GRACE_MS defaults to 10000 here (set before any thread
// starts) so concurrent eviction sweeps never unlink an artifact a worker
// just published; an explicit setting wins.
//
// Exit codes: 0 clean drain, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fault/fault.h"
#include "service/daemon.h"
#include "support/diagnostics.h"

using namespace wj;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: wjd --socket PATH [--workers N] [--max-inflight N]\n"
                 "           [--queue-cap N] [--bundles DIR] [--fault SPEC] [--quiet]\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    ::setenv("WJ_CACHE_EVICT_GRACE_MS", "10000", /*overwrite=*/0);
    service::DaemonOptions opts;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--socket" && i + 1 < argc) opts.socketPath = argv[++i];
            else if (a == "--workers" && i + 1 < argc) opts.workers = std::atoi(argv[++i]);
            else if (a == "--max-inflight" && i + 1 < argc)
                opts.maxInflightPerClient = std::atoi(argv[++i]);
            else if (a == "--queue-cap" && i + 1 < argc) opts.queueCap = std::atoi(argv[++i]);
            else if (a == "--bundles" && i + 1 < argc) opts.bundleDir = argv[++i];
            else if (a == "--quiet") opts.quiet = true;
            else if (a == "--fault" && i + 1 < argc) {
                fault::FaultPlan::instance().configure(argv[++i]);
                std::fprintf(stderr, "wjd: fault plan: %s\n",
                             fault::FaultPlan::instance().describe().c_str());
            } else {
                return usage();
            }
        }
        if (opts.socketPath.empty()) return usage();

        service::Daemon daemon(opts);
        daemon.start();
        service::installSignalDrain(daemon);
        daemon.wait();
        return 0;
    } catch (const UsageError& e) {
        std::fprintf(stderr, "wjd: %s\n", e.what());
        return 2;
    } catch (const WjError& e) {
        std::fprintf(stderr, "wjd: %s\n", e.what());
        return 1;
    }
}

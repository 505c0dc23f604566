// perfbench: the benchmark's measured and traced runs for one workload.
// run.py builds this binary, gives each run a private directory and its
// WJ_* switches in the environment, and passes the flags below.
//
//   perfbench --workload jit-warm|solve|wjd-mixed --seed N --seconds S
//             --trace 0|1 --setup-reps R --run-dir DIR [--trace-out FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
    pb::Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") a.seconds = std::atof(v.c_str());
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--setup-reps") a.setupReps = std::atoi(v.c_str());
        else if (k == "--run-dir") a.runDir = v;
        else if (k == "--trace-out") a.traceOut = v;
        else {
            std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
            return 2;
        }
    }
    if (a.seconds <= 0 || a.setupReps < 1 || a.runDir.empty()) {
        std::fprintf(stderr, "perfbench: need --seconds > 0, --setup-reps >= 1 and --run-dir\n");
        return 2;
    }
    pb::Report r;
    try {
        if (a.workload == "jit-warm") pb::runJitWarm(a, r);
        else if (a.workload == "solve") pb::runSolve(a, r);
        else if (a.workload == "wjd-mixed") pb::runWjdMixed(a, r);
        else {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(), e.what());
        return 3;
    }
    return r.finish(a.trace);
}

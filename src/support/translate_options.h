// The translation choices that shape the C generated for one jit() call.
// They are explicit values: the analysis and the translator read them from
// this struct, never from the environment. The environment is only their
// default, parsed once by fromEnv() at the program's edge (wjc, wjd, a
// test or bench that passes no options).
#pragma once

namespace wj {

struct TranslateOptions {
    /// Array bounds guards (WJ_BOUNDS): 0 none, 1 only accesses the
    /// interval analysis could not prove safe, 2 every access ("all").
    int bounds = 0;
    /// Outline proven loops through wjrt_parallel_for/reduce (WJ_PARALLEL).
    /// The worker count is a run-time pool setting, so the generated C
    /// (and its cache key) does not depend on it.
    bool parallel = false;
    /// Emit `#pragma omp simd` loops the proveVectors pass cleared (WJ_SIMD).
    bool simd = false;
    /// Store arrays of proveLayout-Inline classes as per-field lanes
    /// (WJ_SOA). The SIMD prover's verdicts depend on it too.
    bool soa = false;

    /// The switches as set in the environment. "0", "off", "false" and "no"
    /// mean off; WJ_BOUNDS reads "all" or "2" as 2 and any other on-value
    /// as 1.
    static TranslateOptions fromEnv();
};

} // namespace wj

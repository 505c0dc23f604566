// The intra-rank worker pool behind wjrt_parallel_for and GpuSim's
// block-parallel fast path.
//
// The paper's hybrid runs place one MPI rank per node and fill the node's
// cores with threads. WootinC mirrors that: MiniMPI ranks are OS threads,
// and each rank fans loop iterations out to this process-wide pool. The
// pool is persistent (workers are created once and reused across JIT
// invocations — test_parallel asserts this). Its width is a value the pool
// owns: WJ_THREADS only seeds it when the pool is created, setThreads()
// changes it, and a pool re-created in a forked rank process starts at the
// parent's width. parallelFor never reads the environment.
//
// Determinism contract: parallelFor splits [lo, hi) into at most
// `threads()` *static contiguous chunks* — chunk boundaries depend only on
// the range and the thread count, never on scheduling. Because the
// translator only dispatches loops whose iterations have disjoint write
// sets, every memory cell is written by the same iteration — hence the
// same value — regardless of how chunks map to workers, so results are
// bitwise-identical to the serial loop at every width.
//
// Nesting and rank-safety: a parallelFor issued from inside a worker (a
// nested proven-parallel loop, or two MiniMPI ranks racing for the pool)
// runs inline and serial on the caller. onWorkerThread() lets the runtime
// assert that comm/checkpoint intrinsics only execute on a rank's main
// thread — the parallelizer must never have let them into a loop body.
#pragma once

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace wj::runtime {

class ThreadPool {
public:
    /// The process-wide pool (workers are lazily created on first parallel
    /// dispatch and reused until process exit). Created with width
    /// max(1, $WJ_THREADS), or 1 when unset.
    static ThreadPool& instance();

    /// True on a pool worker thread, inside its body callback.
    static bool onWorkerThread() noexcept;

    /// The width: the most chunks one dispatch splits into (≥ 1).
    int threads() const noexcept;
    /// Sets the width of later dispatches; values below 1 mean 1.
    void setThreads(int n) noexcept;

    using Body = void (*)(int64_t lo, int64_t hi, void* ctx);

    /// Runs body over [lo, hi) split into static contiguous chunks, one per
    /// thread; the caller executes chunk 0 itself and the call returns only
    /// when every chunk finished. An exception thrown by any chunk (e.g. a
    /// wjrt_trap bounds guard) is rethrown here, first-thrower-wins.
    /// Serial inline on the caller when hi - lo < 2, threads() == 1, when
    /// nested in a pool body, or when the pool is busy with another
    /// caller's dispatch (another rank's): that caller may hold the workers
    /// for a whole compute region, so this one does not queue behind it.
    /// Every inline run counts in pool.dispatches.inline.
    void parallelFor(int64_t lo, int64_t hi, Body body, void* ctx);

    /// Dispatches that actually fanned out (≥ 2 chunks) — pool-reuse tests.
    int64_t dispatches() const noexcept;
    /// Workers ever created; stable across invocations at a fixed width,
    /// proving the pool persists instead of respawning.
    int64_t workersSpawned() const noexcept;

    ~ThreadPool();

private:
    explicit ThreadPool(int threads) : threads_(threads) {}
    void ensureWorkers(int want);  // callers hold m_
    void workerMain(int slot);

    struct Job {
        Body body = nullptr;
        void* ctx = nullptr;
        int64_t lo = 0, hi = 0;
        int chunks = 0;     // chunk 0 is the caller's
        int64_t gen = 0;    // generation tag workers wake on
        int traceRank = -1; // dispatching rank, for worker-chunk spans
    };

    std::atomic<int> threads_;
    std::mutex m_;
    /// One dispatch owns the workers at a time; a losing rank runs its
    /// range inline and serial instead of blocking (results are identical
    /// either way — see the determinism contract above).
    std::atomic<bool> busy_{false};
    std::condition_variable wake_;  // workers wait for a new generation
    std::condition_variable done_;  // caller waits for pending_ == 0
    std::vector<std::thread> workers_;
    Job job_;
    int64_t gen_ = 0;
    int pending_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
    int64_t dispatches_ = 0;
    int64_t spawned_ = 0;
};

/// Chunk `i` of `chunks` over [lo, hi): the deterministic static split
/// shared by the pool and its tests.
inline void staticChunk(int64_t lo, int64_t hi, int chunks, int i, int64_t* clo, int64_t* chi) {
    const int64_t n = hi - lo;
    *clo = lo + n * i / chunks;
    *chi = lo + n * (i + 1) / chunks;
}

} // namespace wj::runtime

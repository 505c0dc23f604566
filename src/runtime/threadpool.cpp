#include "runtime/threadpool.h"

#include <algorithm>

#include <unistd.h>

#include "support/env.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace wj::runtime {

namespace {
thread_local bool g_onWorker = false;
} // namespace

ThreadPool& ThreadPool::instance() {
    // Leaked on purpose: worker threads may outlive static destructors of
    // translation units that still hold the JIT'ed code calling into them.
    // WJ_THREADS is read here, once; later changes go through setThreads().
    static ThreadPool* pool =
        new ThreadPool(static_cast<int>(std::max<int64_t>(1, envInt("WJ_THREADS", 1))));
    // Fork safety for the proc MPI transport: a forked child inherits the
    // pool object but none of its worker threads, so dispatching on the
    // stale pool would hang. Detect the pid change and hand out a fresh
    // pool of the parent's width (the parent's shell is leaked — the
    // child's address space is disposable by construction).
    static pid_t owner = ::getpid();
    if (::getpid() != owner) {
        pool = new ThreadPool(pool->threads());
        owner = ::getpid();
    }
    return *pool;
}

bool ThreadPool::onWorkerThread() noexcept { return g_onWorker; }

int ThreadPool::threads() const noexcept { return threads_.load(); }

void ThreadPool::setThreads(int n) noexcept { threads_.store(std::max(1, n)); }

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : workers_) t.join();
}

void ThreadPool::ensureWorkers(int want) {
    while (static_cast<int>(workers_.size()) < want) {
        const int slot = static_cast<int>(workers_.size());
        workers_.emplace_back([this, slot] { workerMain(slot); });
        ++spawned_;
    }
}

void ThreadPool::workerMain(int slot) {
    g_onWorker = true;
    int64_t seen = 0;
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        wake_.wait(lock, [&] { return stop_ || (gen_ != seen && slot < job_.chunks - 1); });
        if (stop_) return;
        seen = gen_;
        const Job job = job_;
        lock.unlock();
        // Worker `slot` owns chunk slot+1; the dispatching caller runs
        // chunk 0 concurrently.
        int64_t clo, chi;
        staticChunk(job.lo, job.hi, job.chunks, slot + 1, &clo, &chi);
        std::exception_ptr err;
        try {
            if (clo < chi) {
                // Workers carry no rank binding of their own; tag the chunk
                // span with the dispatching rank so Perfetto groups it under
                // the rank that issued the loop.
                trace::setThreadRank(job.traceRank);
                trace::Span span("pool", "chunk", "lo", clo, "hi", chi,
                                 "slot", slot + 1);
                job.body(clo, chi, job.ctx);
            }
        } catch (...) {
            err = std::current_exception();
        }
        trace::setThreadRank(-1);
        lock.lock();
        if (err && !error_) error_ = err;
        if (--pending_ == 0) done_.notify_all();
    }
}

void ThreadPool::parallelFor(int64_t lo, int64_t hi, Body body, void* ctx) {
    if (hi <= lo) return;
    const int64_t n = hi - lo;
    const int threads = static_cast<int>(std::min<int64_t>(this->threads(), n));
    static auto& dispatchCount = trace::Metrics::instance().counter("pool.dispatches");
    static auto& inlineCount = trace::Metrics::instance().counter("pool.dispatches.inline");
    trace::Span span("pool", "parallelFor", "n", n, "threads", threads);
    if (threads <= 1 || g_onWorker) {
        inlineCount.inc();
        span.arg(1, "threads", 1);
        body(lo, hi, ctx);
        return;
    }
    // Another rank's dispatch is in flight: don't queue behind it (the
    // owner may hold the workers for a whole compute region) — run inline.
    bool expected = false;
    if (!busy_.compare_exchange_strong(expected, true)) {
        inlineCount.inc();
        span.arg(1, "threads", 1);
        body(lo, hi, ctx);
        return;
    }
    dispatchCount.inc();
    std::unique_lock<std::mutex> lock(m_);
    ensureWorkers(threads - 1);
    job_ = {body, ctx, lo, hi, threads, ++gen_, trace::threadRank()};
    pending_ = threads - 1;
    error_ = nullptr;
    ++dispatches_;
    lock.unlock();
    wake_.notify_all();

    int64_t clo, chi;
    staticChunk(lo, hi, threads, 0, &clo, &chi);
    std::exception_ptr callerErr;
    try {
        if (clo < chi) body(clo, chi, ctx);
    } catch (...) {
        callerErr = std::current_exception();
    }

    lock.lock();
    done_.wait(lock, [&] { return pending_ == 0; });
    std::exception_ptr err = callerErr ? callerErr : error_;
    error_ = nullptr;
    lock.unlock();
    busy_.store(false);
    if (err) std::rethrow_exception(err);
}

int64_t ThreadPool::dispatches() const noexcept {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(m_));
    return dispatches_;
}

int64_t ThreadPool::workersSpawned() const noexcept {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(m_));
    return spawned_;
}

} // namespace wj::runtime

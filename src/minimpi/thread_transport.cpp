// ThreadTransport: the original in-process MiniMPI path — ranks as OS
// threads, one shared Mailbox per rank that each message is moved into, a
// generation-counted condvar barrier, and the two-sample stall watchdog.
// This is the fast path; the process transport trades its speed for real
// address-space isolation.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "minimpi/transport.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "trace/metrics.h"

namespace wj::minimpi {

namespace {

class ThreadTransport final : public Transport {
public:
    explicit ThreadTransport(int size)
        : Transport(size), boxes_(static_cast<size_t>(std::max(size, 1))),
          waits_(static_cast<size_t>(std::max(size, 1))) {
        for (size_t r = 0; r < boxes_.size(); ++r) boxes_[r].attach(this, &waits_[r], &progress_);
    }

    TransportKind kindId() const noexcept override { return TransportKind::Threads; }

    void run(const std::function<void(int)>& body, int watchdogMs) override;

    void post(int dest, Message msg) override;
    Message take(int me, int src, int tag, int channel, int timeoutMs) override {
        return boxes_[static_cast<size_t>(me)].take(me, src, tag, channel, timeoutMs,
                                                    kRankBlockedRecv);
    }
    void barrier(int me) override;

    void publishResult(int64_t bits) override {
        resultBits_.store(bits, std::memory_order_relaxed);
        resultSet_.store(true, std::memory_order_release);
    }
    bool takeResult(int64_t* bits) override {
        if (!resultSet_.exchange(false, std::memory_order_acquire)) return false;
        *bits = resultBits_.load(std::memory_order_relaxed);
        return true;
    }

    CommStats stats() const override {
        CommStats s;
        s.messages = messages_;
        s.bytes = bytes_;
        return s;
    }
    bool watchdogFired() const noexcept override { return watchdogFired_.load(); }

private:
    void abort() noexcept;

    std::vector<Mailbox> boxes_;
    std::vector<RankCell> waits_;

    std::mutex barrierM_;
    std::condition_variable barrierCv_;
    int barrierCount_ = 0;
    int64_t barrierGen_ = 0;

    std::atomic<bool> watchdogFired_{false};
    /// Bumped by every post, successful take, and barrier release; the
    /// watchdog declares a stall only when this stands still for a quantum
    /// while every live rank is blocked.
    std::atomic<uint64_t> progress_{0};

    std::atomic<bool> aborted_{false};
    std::atomic<int64_t> messages_{0};
    std::atomic<int64_t> bytes_{0};

    std::atomic<int64_t> resultBits_{0};
    std::atomic<bool> resultSet_{false};
};

// --------------------------------------------------------------- data plane

void ThreadTransport::post(int dest, Message msg) {
    // Traffic accounting lives here, not in Comm::send, so collective
    // internals (bcast/allreduce via sendSys) count toward bytesSent() —
    // the perf model's communication-volume input — exactly like user
    // point-to-point traffic.
    messages_ += 1;
    bytes_ += static_cast<int64_t>(msg.data.size());
    {
        static auto& userBytes = trace::Metrics::instance().counter("comm.bytes.user");
        static auto& sysBytes = trace::Metrics::instance().counter("comm.bytes.collective");
        static auto& msgs = trace::Metrics::instance().counter("comm.messages");
        (msg.channel == 0 ? userBytes : sysBytes).add(static_cast<int64_t>(msg.data.size()));
        msgs.inc();
    }
    bool duplicate = false;
    if (fault::FaultPlan::active()) {
        // The injector models the link: it may corrupt or delay the payload
        // in flight, deliver it twice, or lose it entirely.
        switch (fault::FaultPlan::instance().onMessage(msg.src, dest, msg.tag, msg.data)) {
        case fault::MsgFate::Drop: return;
        case fault::MsgFate::Duplicate: duplicate = true; break;
        case fault::MsgFate::Deliver: break;
        }
    }
    boxes_[static_cast<size_t>(dest)].push(std::move(msg), duplicate);
}

void ThreadTransport::barrier(int me) {
    std::unique_lock<std::mutex> lock(barrierM_);
    const int64_t gen = barrierGen_;
    if (++barrierCount_ == size()) {
        barrierCount_ = 0;
        ++barrierGen_;
        progress_.fetch_add(1, std::memory_order_relaxed);
        barrierCv_.notify_all();
        return;
    }
    RankCell& w = waits_[static_cast<size_t>(me)];
    w.state.store(kRankBlockedBarrier, std::memory_order_release);
    barrierCv_.wait(lock, [&] { return barrierGen_ != gen || aborted_.load(); });
    w.state.store(kRankRunning, std::memory_order_release);
    if (aborted_.load()) {
        throw ExecError(format("MPI world aborted by another rank (rank %d was in barrier)",
                               me));
    }
}

void ThreadTransport::abort() noexcept {
    aborted_.store(true);
    progress_.fetch_add(1, std::memory_order_relaxed);
    // Every notification is issued while holding the mutex its waiters
    // wait under (Mailbox::abort locks too). Without the lock, a rank that
    // has just evaluated its wait predicate (seeing aborted_ == false) but
    // not yet blocked would miss the wakeup and hang forever — the notifier
    // must serialize with the check-then-wait step, which only the mutex
    // provides.
    for (auto& box : boxes_) box.abort("MPI world aborted by another rank");
    {
        std::lock_guard<std::mutex> lock(barrierM_);
        barrierCv_.notify_all();
    }
}

void ThreadTransport::run(const std::function<void(int)>& body, int watchdogMs) {
    // Reset per-run state FIRST: an aborted previous run leaves undelivered
    // messages in the mailboxes and possibly a partial barrier count; a
    // reused World must not let this run consume the dead run's state.
    for (auto& box : boxes_) box.clear();
    {
        std::lock_guard<std::mutex> lock(barrierM_);
        barrierCount_ = 0;
    }
    for (auto& w : waits_) w.state.store(kRankRunning, std::memory_order_relaxed);
    progress_.store(0, std::memory_order_relaxed);
    watchdogFired_.store(false);
    aborted_.store(false);
    resultSet_.store(false);

    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(size()));
    std::mutex errM;
    std::exception_ptr firstErr;

    for (int r = 0; r < size(); ++r) {
        threads.emplace_back([&, r] {
            try {
                body(r);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(errM);
                    if (!firstErr) firstErr = std::current_exception();
                }
                abort();
            }
            waits_[static_cast<size_t>(r)].state.store(kRankDone, std::memory_order_release);
        });
    }

    // Stall watchdog: samples twice per quantum and fires on StallRule —
    // the world cannot advance on its own. Disabled with quantum 0.
    std::thread watchdog;
    std::mutex wdM;
    std::condition_variable wdCv;
    bool wdStop = false;
    const int quantum = watchdogMs;
    if (quantum > 0) {
        watchdog = std::thread([&] {
            std::unique_lock<std::mutex> lk(wdM);
            StallRule rule;
            const auto tick = std::chrono::milliseconds(std::max(1, quantum / 2));
            for (;;) {
                if (wdCv.wait_for(lk, tick, [&] { return wdStop; })) return;
                if (aborted_.load()) return;
                const bool stalled =
                    rule.sample(progress_.load(std::memory_order_relaxed), size(), [&](int r) {
                        return waits_[static_cast<size_t>(r)].state.load(
                            std::memory_order_acquire);
                    });
                if (stalled) {
                    watchdogFired_.store(true);
                    auto err = std::make_exception_ptr(ExecError(
                        stallReport(quantum, "threads", size(), [&](int r) {
                            return waits_[static_cast<size_t>(r)].wait();
                        })));
                    {
                        std::lock_guard<std::mutex> lock(errM);
                        if (!firstErr) firstErr = std::move(err);
                    }
                    abort();
                    return;
                }
            }
        });
    }

    for (auto& t : threads) t.join();
    if (watchdog.joinable()) {
        {
            std::lock_guard<std::mutex> lock(wdM);
            wdStop = true;
        }
        wdCv.notify_all();
        watchdog.join();
    }
    if (firstErr) std::rethrow_exception(firstErr);
}

} // namespace

std::unique_ptr<Transport> makeThreadTransport(int size) {
    return std::make_unique<ThreadTransport>(size);
}

} // namespace wj::minimpi

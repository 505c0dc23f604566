// Transport: the address-space strategy under MiniMPI's World/Comm facade.
//
// The paper's generated code runs under mpirun, where every rank owns a
// private address space and the MPI library decides how bytes cross the
// gap. MiniMPI grew up with exactly one strategy — ranks as OS threads in
// one process, messages through shared tag-matched mailboxes — which is
// the fastest possible "interconnect" but makes every fault-tolerance
// claim gentler than reality: a "killed" rank is a cooperative throw, the
// watchdog never meets a genuinely dead peer, and checkpoints never face a
// real SIGKILL.
//
// This interface splits the strategy from the semantics:
//
//   * ThreadTransport (thread_transport.cpp) — the original in-process
//     path: the sender's message is moved straight into the destination's
//     Mailbox, a condition-variable barrier, and the in-thread stall
//     watchdog. The fast path.
//   * ProcTransport (proc_transport.cpp) — ranks are forked child
//     processes. Point-to-point bytes travel through single-producer/
//     single-consumer byte rings in anonymous MAP_SHARED memory (one ring
//     per ordered (src,dest) pair, condvar-free, spin-with-backoff); a
//     frame larger than the free space streams through in chunks, so every
//     message of any size takes the one ring path and FIFO per source
//     holds. Each child's drainer thread delivers completed frames into
//     the child's own Mailbox. A parent supervisor reaps children with
//     waitpid, so a rank that dies by real SIGKILL is reported with its pid
//     and signal, and the same two-sample stall watchdog runs against
//     shared-memory wait states.
//
// The semantic layer (Comm: collectives layered on point-to-point, fault
// hooks) lives above this interface in minimpi.cpp and is identical for
// both transports — that is the determinism contract that lets tests
// compare checksums across transports bitwise. Tag matching (Mailbox), the
// stall rule (StallRule) and the per-rank wait dump (waitDump) are shared
// the same way: one definition each, in minimpi.cpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wj::minimpi {

/// Matches any source rank in recv().
inline constexpr int kAnySource = -1;

/// Which address-space strategy a World uses.
enum class TransportKind { Threads, Proc };

/// $WJ_TRANSPORT ("threads" | "proc"), defaulting to Threads. Throws
/// UsageError on any other value.
TransportKind defaultTransportKind();

/// $WJ_NP when set and positive, else `fallback` — how `wjrun -np N`
/// communicates the rank count to examples it launches.
int configuredRanks(int fallback);

/// Traffic accounting snapshot (World::stats()): every message and
/// payload byte posted, collective internals included.
struct CommStats {
    int64_t messages = 0;
    int64_t bytes = 0;
};

struct Message {
    int src = 0;
    int tag = 0;
    int channel = 0;  // 0 = user point-to-point, 1 = collective internals
    std::vector<uint8_t> data;
};

/// Watchdog-visible wait states of a rank (shared by both transports'
/// per-rank stall dumps).
inline constexpr int kRankRunning = 0;
inline constexpr int kRankBlockedRecv = 1;
inline constexpr int kRankBlockedBarrier = 2;
inline constexpr int kRankDone = 3;

/// "ANY" for kAnySource, else the rank number (wait dumps, recv errors).
std::string srcName(int src);

/// The stall watchdog's two-sample rule, shared by both transports. Feed
/// it one sample per half quantum: a stall is declared when global
/// progress stood still across two consecutive samples in each of which
/// some rank was blocked in recv/barrier and none was running.
class StallRule {
public:
    /// `stateOf(r)` is rank r's wait state; a rank that can no longer act
    /// (a reaped child) reports kRankDone. True when the world stalled.
    bool sample(uint64_t progress, int size, const std::function<int(int)>& stateOf);

private:
    uint64_t lastProgress_ = ~uint64_t{0};
    bool stalledOnce_ = false;
};

/// One rank's wait state as a per-rank wait dump shows it.
struct RankWait {
    int state = kRankRunning;
    int src = 0;
    int tag = 0;
    int channel = 0;
    long long depth = 0;  // messages waiting in the rank's mailbox
    std::string peer;     // appended as " [peer]" when set (proc: pid and fate)
};

/// One rank's watchdog-visible wait state: what it is blocked on and how
/// many messages wait in its mailbox. Every field is atomic because the
/// watchdog samples it while the rank runs — from its own thread (threads
/// transport) or from the parent process through shared memory (proc).
struct alignas(64) RankCell {
    std::atomic<int32_t> state{kRankRunning};
    std::atomic<int32_t> src{0};
    std::atomic<int32_t> tag{0};
    std::atomic<int32_t> channel{0};
    std::atomic<int32_t> depth{0};

    /// The cell as a wait dump shows it (no peer text).
    RankWait wait() const;
};

class Transport;

/// A rank's tag-matched inbox, the one matching engine of both transports:
/// the threads transport moves each message straight into the destination
/// rank's mailbox, the proc transport's drainer thread delivers completed
/// ring frames into its child's own. FIFO per (src, tag, channel);
/// kAnySource matches every sender.
class Mailbox {
public:
    /// Binds the transport named in error texts (kind and peer), the wait
    /// cell take() publishes into, and the progress counter push() and
    /// take() bump for the stall watchdog.
    void attach(const Transport* owner, RankCell* cell, std::atomic<uint64_t>* progress) {
        owner_ = owner;
        cell_ = cell;
        progress_ = progress;
    }

    /// Appends `msg` — twice when `duplicate` (an injected duplicate, the
    /// one payload copy) — and wakes the waiting rank.
    void push(Message msg, bool duplicate = false);
    /// Fails every blocked and later take() with `text` until clear(); the
    /// first abort's text wins.
    void abort(std::string text);
    /// Drops queued messages and any abort: the start of a run.
    void clear();
    /// Blocks until a message matching (src|ANY, tag, channel) arrives for
    /// rank `me`, showing `blockedState` (kRankBlockedRecv or
    /// kRankBlockedBarrier) in the cell while it waits. `timeoutMs < 0`
    /// waits forever, otherwise throws ExecError after the deadline.
    Message take(int me, int src, int tag, int channel, int timeoutMs, int blockedState);

private:
    std::mutex m_;
    std::condition_variable cv_;
    std::deque<Message> q_;
    bool aborted_ = false;
    std::string abortText_;
    const Transport* owner_ = nullptr;
    RankCell* cell_ = nullptr;
    std::atomic<uint64_t>* progress_ = nullptr;
};

/// The per-rank wait dump: one "\n  rank N: ..." line per rank.
std::string waitDump(int size, const std::function<RankWait(int)>& waitOf);

/// The watchdog's abort error: headline plus waitDump().
std::string stallReport(int quantumMs, const char* transport, int size,
                        const std::function<RankWait(int)>& waitOf);

class Transport {
public:
    explicit Transport(int size) : size_(size) {}
    virtual ~Transport() = default;

    int size() const noexcept { return size_; }

    virtual TransportKind kindId() const noexcept = 0;
    const char* kind() const noexcept {
        return kindId() == TransportKind::Proc ? "proc" : "threads";
    }

    /// Runs `body(rank)` once per rank — on dedicated threads (threads
    /// transport) or in forked child processes (proc transport). Blocks
    /// until every rank finished or the world aborted, then rethrows the
    /// first rank error / dead-child report / watchdog stall report.
    /// `watchdogMs` is the stall quantum (0 disables).
    virtual void run(const std::function<void(int)>& body, int watchdogMs) = 0;

    // ---- data plane (called from a rank's own thread/process) ----------
    // Ranks are validated by the caller (Comm): 0 <= dest < size(), and
    // src is kAnySource or a rank.
    /// Enqueues `msg` for `dest`. Accounting and fault injection happen
    /// here so collective-internal traffic is counted like user traffic.
    virtual void post(int dest, Message msg) = 0;
    /// Mailbox::take on rank `me`'s mailbox.
    virtual Message take(int me, int src, int tag, int channel, int timeoutMs) = 0;
    /// Collective barrier over all ranks for rank `me`.
    virtual void barrier(int me) = 0;

    // ---- result slot ---------------------------------------------------
    /// Publishes rank 0's 64-bit result so the launching process can read
    /// it after run() — the threads transport stores it in a member, the
    /// process transport writes it to shared memory (lambda captures cannot
    /// cross the fork boundary). The caller knows the type (see
    /// JitCode::invokeWith).
    virtual void publishResult(int64_t bits) = 0;
    /// Reads and clears the published result; false when none was set.
    virtual bool takeResult(int64_t* bits) = 0;

    // ---- introspection -------------------------------------------------
    virtual CommStats stats() const = 0;
    virtual bool watchdogFired() const noexcept = 0;
    /// Human-readable peer identity for error dumps: "" on the threads
    /// transport, "pid 1234 (running)" / "pid 1234 (killed by signal 9)"
    /// on the process transport.
    virtual std::string peerDescription(int rank) const { (void)rank; return ""; }
    /// Post-run hook on the launching process (the proc transport merges
    /// per-child trace files here, after the parent's own flush).
    virtual void finishRun() {}

private:
    int size_;
};

std::unique_ptr<Transport> makeThreadTransport(int size);
std::unique_ptr<Transport> makeProcTransport(int size);

} // namespace wj::minimpi

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
//     path: unbounded mailboxes the sender's message is moved into,
//     condvar blocking, a condition-variable barrier, and the in-thread
//     stall watchdog. The fast path.
//   * ProcTransport (proc_transport.cpp) — ranks are forked child
//     processes. Point-to-point bytes travel through single-producer/
//     single-consumer byte rings in anonymous MAP_SHARED memory (one ring
//     per ordered (src,dest) pair, condvar-free, spin-with-backoff);
//     payloads too large for a ring fall back to Unix-domain stream
//     sockets. A parent supervisor reaps children with waitpid, so a rank
//     that dies by real SIGKILL is reported with its pid and signal, and
//     the same two-sample stall watchdog runs against shared-memory wait
//     states.
//
// The semantic layer (Comm: tag matching, FIFO per source, collectives
// layered on point-to-point, fault hooks) lives above this interface in
// minimpi.cpp and is identical for both transports — that is the
// determinism contract that lets tests compare checksums across
// transports bitwise. The stall rule and the per-rank wait dump are
// shared the same way (StallRule, waitDump below).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

/// The per-rank wait dump: one "\n  rank N: ..." line per rank.
std::string waitDump(int size, const std::function<RankWait(int)>& waitOf);

/// The watchdog's abort error: headline plus waitDump().
std::string stallReport(int quantumMs, const char* transport, int size,
                        const std::function<RankWait(int)>& waitOf);

class Transport {
public:
    virtual ~Transport() = default;

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
    /// Enqueues `msg` for `dest`. Accounting and fault injection happen
    /// here so collective-internal traffic is counted like user traffic.
    virtual void post(int dest, Message msg) = 0;
    /// Blocks until a message matching (src|ANY, tag, channel) arrives for
    /// rank `me`; FIFO per (src, tag, channel). `timeoutMs < 0` waits
    /// forever, otherwise throws ExecError after the deadline.
    virtual Message take(int me, int src, int tag, int channel, int timeoutMs) = 0;
    /// Collective barrier over all ranks for rank `me`.
    virtual void barrier(int me) = 0;

    // ---- result slot ---------------------------------------------------
    /// Publishes rank 0's primitive result so the launching process can
    /// read it after run() — the threads transport stores it in a member,
    /// the process transport writes it to shared memory (lambda captures
    /// cannot cross the fork boundary). `kind`/`bits` encoding is the
    /// caller's (see JitCode::invokeWith).
    virtual void publishResult(int kind, int64_t bits) = 0;
    /// Reads and clears the published result; false when none was set.
    virtual bool takeResult(int* kind, int64_t* bits) = 0;

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
};

std::unique_ptr<Transport> makeThreadTransport(int size);
std::unique_ptr<Transport> makeProcTransport(int size);

} // namespace wj::minimpi

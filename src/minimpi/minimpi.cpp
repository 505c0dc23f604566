// Transport-agnostic MiniMPI semantics: the Comm surface (rank checks,
// collectives layered on point-to-point, fault hooks), the World facade,
// and the pieces both transports share — the tag-matched Mailbox, the
// stall rule and the wait dump. Everything address-space-specific lives in
// thread_transport.cpp / proc_transport.cpp behind transport.h.
#include "minimpi/minimpi.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "fault/fault.h"
#include "support/diagnostics.h"
#include "support/env.h"
#include "support/strings.h"
#include "trace/trace.h"

namespace wj::minimpi {

namespace {
// Collective operations use distinct tags on the system channel so that
// overlapping collectives (e.g. bcast inside allreduce) cannot cross-match.
constexpr int kTagBcast = 1;
constexpr int kTagReduceUp = 2;
constexpr int kTagReduceDown = 3;

constexpr int kDefaultWatchdogMs = 30000;

int watchdogDefaultMs() { return static_cast<int>(envInt("WJ_WATCHDOG_MS", kDefaultWatchdogMs)); }

/// Builds a message from a raw region (the one payload copy on the send
/// side) and posts it on `channel`.
void postBytes(Transport& t, int me, const void* buf, size_t bytes, int dest, int tag,
               int channel) {
    if (dest < 0 || dest >= t.size()) {
        throw ExecError(
            format("MPI send to invalid rank %d (from rank %d, tag %d)", dest, me, tag));
    }
    Message msg;
    msg.src = me;
    msg.tag = tag;
    msg.channel = channel;
    msg.data.assign(static_cast<const uint8_t*>(buf), static_cast<const uint8_t*>(buf) + bytes);
    t.post(dest, std::move(msg));
}

/// Takes the matching message off `channel`, checks that it carries exactly
/// `bytes` and copies it into `buf`. `what` names the operation in the
/// size-mismatch error; `span` (if any) gets the resolved source. Returns
/// the actual source rank.
int takeInto(Transport& t, int me, void* buf, size_t bytes, int src, int tag, int channel,
             int timeoutMs, const char* what, trace::Span* span) {
    if (src != kAnySource && (src < 0 || src >= t.size())) {
        throw ExecError(format("rank %d: MPI recv from invalid rank %d (tag %d)", me, src, tag));
    }
    const Message msg = t.take(me, src, tag, channel, timeoutMs);
    if (span) span->arg(0, "peer", msg.src);  // resolve ANY to the actual source
    if (msg.data.size() != bytes) {
        throw ExecError(format(
            "MPI %s size mismatch at rank %d (src %d, tag %d, transport=%s): expected %zu "
            "bytes, got %zu",
            what, me, msg.src, tag, t.kind(), bytes, msg.data.size()));
    }
    if (bytes > 0) std::memcpy(buf, msg.data.data(), bytes);  // empty data() may be null
    return msg.src;
}

} // namespace

TransportKind defaultTransportKind() {
    const std::string v = envStr("WJ_TRANSPORT");
    if (v.empty() || v == "threads") return TransportKind::Threads;
    if (v == "proc") return TransportKind::Proc;
    throw UsageError("WJ_TRANSPORT must be 'threads' or 'proc', got '" + v + "'");
}

int configuredRanks(int fallback) { return static_cast<int>(envInt("WJ_NP", fallback, 1)); }

std::string srcName(int src) {
    return src == kAnySource ? std::string("ANY") : std::to_string(src);
}

// ---------------------------------------------------------------- Mailbox

void Mailbox::push(Message msg, bool duplicate) {
    {
        std::lock_guard<std::mutex> lock(m_);
        if (duplicate) q_.push_back(msg);
        q_.push_back(std::move(msg));
        cell_->depth.store(static_cast<int32_t>(q_.size()), std::memory_order_relaxed);
    }
    progress_->fetch_add(1, std::memory_order_relaxed);
    // Notifying after the unlock is safe: a receiver can only be between
    // its predicate check and its wait while holding m_, which the enqueue
    // above also required — so the message is either seen by the check or
    // the wakeup arrives after the wait began.
    cv_.notify_all();
}

void Mailbox::abort(std::string text) {
    // Under the lock: a rank that has just checked aborted_ but not yet
    // blocked would otherwise miss the wakeup and hang forever.
    std::lock_guard<std::mutex> lock(m_);
    if (aborted_) return;
    aborted_ = true;
    abortText_ = std::move(text);
    cv_.notify_all();
}

void Mailbox::clear() {
    std::lock_guard<std::mutex> lock(m_);
    q_.clear();
    aborted_ = false;
    abortText_.clear();
    cell_->depth.store(0, std::memory_order_relaxed);
}

Message Mailbox::take(int me, int src, int tag, int channel, int timeoutMs, int blockedState) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
    bool timedOut = false;
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        if (aborted_) {
            const std::string where =
                blockedState == kRankBlockedBarrier
                    ? std::string("barrier")
                    : format("recv src=%s tag=%d", srcName(src).c_str(), tag);
            throw ExecError(format("%s (rank %d was in %s, transport=%s)", abortText_.c_str(),
                                   me, where.c_str(), owner_->kind()));
        }
        auto it = std::find_if(q_.begin(), q_.end(), [&](const Message& m) {
            return m.channel == channel && m.tag == tag && (src == kAnySource || m.src == src);
        });
        if (it != q_.end()) {
            Message msg = std::move(*it);
            q_.erase(it);
            cell_->depth.store(static_cast<int32_t>(q_.size()), std::memory_order_relaxed);
            progress_->fetch_add(1, std::memory_order_relaxed);
            return msg;
        }
        if (timedOut) {
            const std::string peer =
                src == kAnySource ? std::string() : owner_->peerDescription(src);
            throw ExecError(format(
                "MPI recv timeout at rank %d after %d ms (src=%s, tag=%d, transport=%s%s)", me,
                timeoutMs, srcName(src).c_str(), tag, owner_->kind(),
                peer.empty() ? "" : (", peer " + peer).c_str()));
        }
        // Publish what this rank is waiting for, then block: the watchdog
        // reads these fields to build its per-rank stall dump.
        cell_->src.store(src, std::memory_order_relaxed);
        cell_->tag.store(tag, std::memory_order_relaxed);
        cell_->channel.store(channel, std::memory_order_relaxed);
        cell_->state.store(blockedState, std::memory_order_release);
        if (timeoutMs < 0) {
            cv_.wait(lock);
        } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
            timedOut = true;  // one more pass over the queue before throwing
        }
        cell_->state.store(kRankRunning, std::memory_order_release);
    }
}

// --------------------------------------------------------- stall watchdog

bool StallRule::sample(uint64_t progress, int size, const std::function<int(int)>& stateOf) {
    bool anyBlocked = false, anyRunning = false;
    for (int r = 0; r < size; ++r) {
        const int s = stateOf(r);
        if (s == kRankBlockedRecv || s == kRankBlockedBarrier) anyBlocked = true;
        else if (s != kRankDone) anyRunning = true;
    }
    const bool stalled = anyBlocked && !anyRunning && progress == lastProgress_;
    const bool fire = stalled && stalledOnce_;
    stalledOnce_ = stalled;
    lastProgress_ = progress;
    return fire;
}

RankWait RankCell::wait() const {
    RankWait w;
    w.state = state.load(std::memory_order_acquire);
    w.src = src.load(std::memory_order_relaxed);
    w.tag = tag.load(std::memory_order_relaxed);
    w.channel = channel.load(std::memory_order_relaxed);
    w.depth = depth.load(std::memory_order_relaxed);
    return w;
}

std::string waitDump(int size, const std::function<RankWait(int)>& waitOf) {
    std::string out;
    for (int r = 0; r < size; ++r) {
        const RankWait w = waitOf(r);
        switch (w.state) {
        case kRankBlockedRecv:
            out += format("\n  rank %d: blocked in recv(src=%s, tag=%d, %s channel), "
                          "mailbox depth %lld",
                          r, srcName(w.src).c_str(), w.tag,
                          w.channel == 0 ? "user" : "collective", w.depth);
            break;
        case kRankBlockedBarrier:
            out += format("\n  rank %d: blocked in barrier, mailbox depth %lld", r, w.depth);
            break;
        case kRankDone:
            out += format("\n  rank %d: finished", r);
            break;
        default:
            out += format("\n  rank %d: running, mailbox depth %lld", r, w.depth);
            break;
        }
        if (!w.peer.empty()) out += " [" + w.peer + "]";
    }
    return out;
}

std::string stallReport(int quantumMs, const char* transport, int size,
                        const std::function<RankWait(int)>& waitOf) {
    return format("MiniMPI watchdog: global stall — no progress for ~%d ms with every live "
                  "rank blocked (transport=%s); aborting world. Per-rank wait state:",
                  quantumMs, transport) +
           waitDump(size, waitOf);
}

// ------------------------------------------------------------------ World

World::World(int size, TransportKind kind)
    : size_(size), watchdogMs_(watchdogDefaultMs()) {
    if (size <= 0) throw UsageError("MPI world size must be positive");
    transport_ = kind == TransportKind::Proc ? makeProcTransport(size)
                                             : makeThreadTransport(size);
}

void World::run(const std::function<void(Comm&)>& fn) {
    std::exception_ptr err;
    try {
        transport_->run(
            [&](int r) {
                Comm comm(this, r);
                trace::setThreadRank(r);
                try {
                    fn(comm);
                } catch (...) {
                    trace::setThreadRank(-1);
                    throw;
                }
                trace::setThreadRank(-1);
            },
            watchdogMs_);
    } catch (...) {
        err = std::current_exception();
    }
    // All ranks are joined/reaped (quiesced), so this is a safe point to
    // merge their rings — and it runs even when a rank threw or died, so a
    // crashing multi-rank program still leaves a trace of what it did.
    trace::Tracer::instance().flushIfArmed();
    transport_->finishRun();
    if (err) std::rethrow_exception(err);
}

// ------------------------------------------------------------------- Comm

int Comm::size() const noexcept { return world_->size(); }

void Comm::faultHook() {
    if (fault::FaultPlan::active()) fault::FaultPlan::instance().onCommOp(rank_);
}

void Comm::send(const void* buf, size_t bytes, int dest, int tag) {
    trace::Span span("comm", "send", "peer", dest, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    postBytes(*world_->transport_, rank_, buf, bytes, dest, tag, 0);
}

int Comm::recv(void* buf, size_t bytes, int src, int tag) {
    trace::Span span("comm", "recv", "peer", src, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    return takeInto(*world_->transport_, rank_, buf, bytes, src, tag, 0, -1, "recv", &span);
}

int Comm::recvTimeout(void* buf, size_t bytes, int src, int tag, int timeoutMs) {
    if (timeoutMs < 0) throw UsageError("recvTimeout: timeout must be >= 0 ms");
    trace::Span span("comm", "recvTimeout", "peer", src, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    return takeInto(*world_->transport_, rank_, buf, bytes, src, tag, 0, timeoutMs, "recv",
                    &span);
}

int Comm::sendrecv(const void* sbuf, size_t sbytes, int dest,
                   void* rbuf, size_t rbytes, int src, int tag) {
    send(sbuf, sbytes, dest, tag);
    return recv(rbuf, rbytes, src, tag);
}

void Comm::barrier() {
    trace::Span span("comm", "barrier");
    faultHook();
    world_->transport_->barrier(rank_);
}

void Comm::publishResult(int64_t bits) { world_->transport_->publishResult(bits); }

namespace {

/// Collective-internal send/recv on the system channel (channel 1).
void sendSys(Transport& t, int me, const void* buf, size_t bytes, int dest, int tag) {
    postBytes(t, me, buf, bytes, dest, tag, 1);
}

void recvSys(Transport& t, int me, void* buf, size_t bytes, int src, int tag) {
    takeInto(t, me, buf, bytes, src, tag, 1, -1, "collective", nullptr);
}

} // namespace

/// Binomial-tree fan-out from `root` (MPICH's bcast shape): relabel ranks
/// so the root is virtual rank 0, receive from the parent (clear the
/// lowest set bit of the virtual rank), then forward down the remaining
/// subtrees. size-1 messages in ceil(log2(size)) rounds instead of the
/// root pushing size-1 sends serially.
void Comm::treeBcast(void* buf, size_t bytes, int root, int tag) {
    Transport& t = *world_->transport_;
    const int size = world_->size_;
    const int vrank = (rank_ - root + size) % size;
    int mask = 1;
    while (mask < size) {
        if (vrank & mask) {
            const int parent = ((vrank & ~mask) + root) % size;
            recvSys(t, rank_, buf, bytes, parent, tag);
            break;
        }
        mask <<= 1;
    }
    // `mask` is now the lowest set bit of vrank (past the top for the
    // root); everything below it is this node's subtree to forward to.
    mask >>= 1;
    while (mask > 0) {
        if (vrank + mask < size) {
            const int child = ((vrank + mask) + root) % size;
            sendSys(t, rank_, buf, bytes, child, tag);
        }
        mask >>= 1;
    }
}

void Comm::bcast(void* buf, size_t bytes, int root) {
    trace::Span span("comm", "bcast", "peer", root, "bytes",
                     static_cast<int64_t>(bytes));
    faultHook();
    if (root < 0 || root >= world_->size_) {
        throw ExecError(format("bcast: invalid root %d at rank %d", root, rank_));
    }
    treeBcast(buf, bytes, root, kTagBcast);
    world_->transport_->barrier(rank_);  // keep successive collectives from overtaking
}

void Comm::allreduceF64(double* buf, int n, bool isMax) {
    trace::Span span(
        "comm", isMax ? "allreduceMax" : "allreduceSum", "bytes",
        static_cast<int64_t>(sizeof(double)) * std::max(n, 0));
    faultHook();
    if (n < 0) throw ExecError(format("allreduce: negative count %d at rank %d", n, rank_));
    Transport& t = *world_->transport_;
    const size_t bytes = sizeof(double) * static_cast<size_t>(n);
    // Gather to rank 0 in rank order (deterministic floating-point result),
    // reduce element-wise, then binomial-tree broadcast of the reduced
    // buffer — the textbook layering over point-to-point.
    if (rank_ == 0) {
        std::vector<double> other(static_cast<size_t>(n));
        for (int r = 1; r < world_->size_; ++r) {
            recvSys(t, 0, other.data(), bytes, r, kTagReduceUp);
            for (int i = 0; i < n; ++i) {
                buf[i] = isMax ? std::max(buf[i], other[static_cast<size_t>(i)])
                               : buf[i] + other[static_cast<size_t>(i)];
            }
        }
    } else {
        sendSys(t, rank_, buf, bytes, 0, kTagReduceUp);
    }
    treeBcast(buf, bytes, 0, kTagReduceDown);
    world_->transport_->barrier(rank_);
}

void Comm::allreduceSumF64(double* buf, int n) { allreduceF64(buf, n, false); }

void Comm::allreduceMaxF64(double* buf, int n) { allreduceF64(buf, n, true); }

double Comm::allreduceSum(double v) {
    allreduceF64(&v, 1, false);
    return v;
}

double Comm::allreduceMax(double v) {
    allreduceF64(&v, 1, true);
    return v;
}

} // namespace wj::minimpi

/**
 * @file
 * Shared worker-thread machinery: fork-join SPMD sessions for the
 * cycle engine and the serve daemon, an indexed pool built on them for
 * embarrassingly parallel index spaces (the sweep orchestrator), and
 * the engine's phase barrier.
 *
 * It lives below src/sim and src/sweep so the simulation engine and
 * the sweep layer draw workers from one abstraction — `--threads N`
 * on a sweep splits into `--engine-threads` per engine times
 * N / engine-threads sweep workers, all built on this file.
 */

#ifndef DALOREX_COMMON_PARALLEL_HH
#define DALOREX_COMMON_PARALLEL_HH

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

namespace dalorex
{

/**
 * Fork-join SPMD: run fn(member) once for every member in
 * [0, members) and return after the last one finishes. The calling
 * thread is member 0; members 1..n-1 each get a fresh thread, joined
 * before return. members <= 1 runs fn(0) inline and spawns nothing.
 * An exception escaping fn in a multi-member session ends the program:
 * the other members could not finish a lockstep loop without it.
 *
 * Both long-running owners call it exactly once per session: the
 * cycle engine (one member per shard, looping through the cycle in
 * lockstep on a PhaseBarrier) and the serve daemon (one member per
 * worker, looping on the scheduler queue).
 */
void runSpmd(unsigned members,
             const std::function<void(unsigned)>& fn);

/**
 * Invoke `job(i)` for every i in [0, n) on up to `threads` workers.
 * Workers pull indices from a shared atomic counter and each invokes
 * the job on its own stack; results written into pre-sized slot `i`
 * are identical regardless of the thread count or scheduling order.
 * threads <= 1 (or n <= 1) runs inline on the calling thread. Blocks
 * until all jobs finish.
 */
void runIndexed(std::size_t n, unsigned threads,
                const std::function<void(std::size_t)>& job);

/** The host core count (>= 1): the default worker-pool size. */
unsigned defaultWorkerThreads();

/**
 * A reusable rendezvous for a fixed crew of members running the same
 * phase sequence in lockstep (the cycle engine's SPMD loop), built on
 * std::barrier.
 *
 * sync(member) blocks until every member has arrived, then releases
 * them all; sync(member, serial) additionally runs `*serial` exactly
 * once between the last arrival and the first release — the engine's
 * per-cycle serial section (delta merge, idle/termination decision)
 * rides inside the barrier instead of costing a second rendezvous.
 * It runs as the std::barrier completion step, on whichever member
 * arrived last. A one-member barrier never touches std::barrier:
 * sync is an inline call of `*serial`.
 *
 * Contract: all members pass the same `serial` pointer at a given
 * sync point (the call sites are lockstep by construction). Memory
 * ordering is full-barrier semantics: every member's pre-sync writes
 * happen-before the serial function, whose writes happen-before every
 * member's return.
 */
class PhaseBarrier
{
  public:
    using SerialFn = std::function<void()>;

    explicit PhaseBarrier(unsigned members);

    /** Arrive and wait; the completing member runs `*serial` (when
     *  non-null and non-empty) before anyone is released. */
    void
    sync(unsigned member, const SerialFn* serial = nullptr)
    {
        if (members_ == 1) {
            if (serial != nullptr && *serial)
                (*serial)();
            return;
        }
        arriveAndWait(member, serial);
    }

  private:
    struct Completion
    {
        PhaseBarrier* self;
        void operator()() noexcept;
    };

    void arriveAndWait(unsigned member, const SerialFn* serial);

    unsigned members_;
    /** The current sync point's serial section; member 0 stores it
     *  before arriving, so its write happens-before the completion
     *  step (which follows every arrival). */
    const SerialFn* serial_ = nullptr;
    std::barrier<Completion> barrier_;
};

/**
 * A monotonic-clock deadline watchdog: arm() registers an atomic flag
 * to be set once std::chrono::steady_clock passes `when`; disarm()
 * withdraws it (the common case — the run finished in time). One
 * background thread, started lazily on the first arm, sleeps until
 * the earliest armed deadline, so an idle watchdog costs nothing and
 * a process full of deadline-carrying runs costs one thread total.
 *
 * The flag outlives the engine poll site that reads it: the engine's
 * serial tail checks it once per cycle, so expiry unwinds the run
 * within one simulated cycle of wall work. Callers must disarm before
 * destroying the flag.
 */
class DeadlineWatchdog
{
  public:
    using Clock = std::chrono::steady_clock;

    DeadlineWatchdog() = default;
    ~DeadlineWatchdog();

    DeadlineWatchdog(const DeadlineWatchdog&) = delete;
    DeadlineWatchdog& operator=(const DeadlineWatchdog&) = delete;

    /** Set `*flag` when the clock passes `when`; returns a token for
     *  disarm(). `flag` must stay valid until disarmed or fired. */
    std::uint64_t arm(Clock::time_point when, std::atomic<bool>* flag);

    /** Withdraw an armed deadline (no-op if it already fired). */
    void disarm(std::uint64_t token);

    /** Deadlines currently armed (test introspection). */
    std::size_t armed() const;

  private:
    struct Entry
    {
        Clock::time_point when;
        std::atomic<bool>* flag = nullptr;
    };

    void loop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Entry> entries_;
    std::uint64_t nextToken_ = 1;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * The process-wide watchdog every deadline-carrying run shares
 * (`--deadline-ms` on the CLI, per-request `deadline_ms` in serve,
 * per-row budgets on sweep). One thread for the whole process.
 */
DeadlineWatchdog& processDeadlineWatchdog();

} // namespace dalorex

#endif // DALOREX_COMMON_PARALLEL_HH

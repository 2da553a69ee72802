/**
 * @file
 * Shared worker-thread machinery: fork-join SPMD sessions for the
 * cycle engine and the serve daemon, an indexed pool built on them for
 * embarrassingly parallel index spaces (the sweep orchestrator), the
 * engine's phase barrier, and the saturating wall-clock arithmetic
 * behind run deadlines and retry backoff.
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
#include <cstddef>
#include <cstdint>
#include <functional>

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
 * The steady-clock instant `ms` milliseconds after `start` (a clock
 * reading), saturating: a budget too large for steady_clock to
 * represent yields time_point::max(), which every user reads as "no
 * deadline" rather than overflowing std::chrono's arithmetic. Every
 * wall-clock budget goes through it: run deadlines (`--deadline-ms`
 * from engine start, a serve request's `deadline_ms` from acceptance)
 * and retry backoff sleeps.
 */
std::chrono::steady_clock::time_point
deadlineAfter(std::chrono::steady_clock::time_point start,
              std::uint64_t ms);

/**
 * The wait before retry `retry` (0-based) of a transiently failing
 * run: baseMs doubled per retry (at most 2^16 times), saturating at
 * the largest u64 instead of dropping high bits.
 */
std::uint64_t retryBackoffMs(std::uint64_t baseMs, unsigned retry);

/**
 * Sleep `ms` milliseconds, returning early once `*stop` (may be
 * nullptr) is set: a retry backoff must not hold a Ctrl-C'd sweep or
 * a shutting-down daemon hostage. Polls every 10 ms.
 */
void backoffSleep(std::uint64_t ms, const std::atomic<bool>* stop);

} // namespace dalorex

#endif // DALOREX_COMMON_PARALLEL_HH

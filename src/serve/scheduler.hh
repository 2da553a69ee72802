/**
 * @file
 * Priority + fair-share request queue for `dalorex serve`.
 *
 * Two-level policy: strict priority first (higher `priority` runs
 * first, always), stride-scheduled fair share within a priority
 * level. Each client owns a virtual clock that advances by 1/weight
 * per job it gets scheduled; the pending client with the smallest
 * clock goes next, so over time clients receive service proportional
 * to their weights regardless of how fast they submit. Within one
 * client and priority, jobs stay FIFO. A client whose queue was empty
 * re-enters at the scheduler's global clock (never earlier), so idling
 * does not bank credit to starve others with later.
 *
 * The queue is the producer/consumer seam of the daemon: connection
 * reader threads push, the server's worker threads block in pop().
 * close() wakes every popper; jobs already queued still drain (pop keeps
 * returning them) so a graceful shutdown finishes accepted work.
 */

#ifndef DALOREX_SERVE_SCHEDULER_HH
#define DALOREX_SERVE_SCHEDULER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace dalorex
{
namespace serve
{

/** One schedulable unit: a run request plus its reply route. */
struct Job
{
    Request request;
    /** Server connection the responses go back to. */
    std::uint64_t connection = 0;
    /** Stamped by push(). A request's deadline_ms counts from here —
     *  the moment it was accepted — not from when a worker dequeues
     *  it, so queueing delay spends the budget too and an expired job
     *  answers promptly instead of running a full scenario first. */
    std::chrono::steady_clock::time_point enqueuedAt{};
};

/** Snapshot of one client's accounting (for `stats` responses). */
struct ClientStats
{
    std::string client;
    double weight = 1.0;
    std::uint64_t submitted = 0; //!< jobs pushed, lifetime
    std::uint64_t scheduled = 0; //!< jobs handed to workers, lifetime
    std::uint64_t queued = 0;    //!< jobs waiting right now
};

class FairScheduler
{
  public:
    /**
     * Set a client's fair-share weight (creating the client). Weight
     * is sticky until changed again; unknown clients default to 1.
     */
    void setWeight(const std::string& client, double weight);

    /**
     * Enqueue a job; returns the number of jobs ahead of it (its
     * queue position, echoed in the `accepted` response). A non-zero
     * request.weight updates the client's weight first.
     */
    std::uint64_t push(Job job);

    /**
     * Block until a job is available or the queue is closed. False
     * only when closed *and* drained — queued jobs always come out.
     */
    bool pop(Job& out);

    /** Wake every popper; push() becomes a no-op returning 0. */
    void close();

    /** Jobs waiting right now (all priorities, all clients). */
    std::uint64_t depth() const;

    /** Per-client accounting, sorted by client name. */
    std::vector<ClientStats> clientStats() const;

  private:
    /** One client's pending work and virtual clock. */
    struct ClientQueue
    {
        double weight = 1.0;
        double vtime = 0.0; //!< virtual clock, advanced on schedule
        std::uint64_t submitted = 0;
        std::uint64_t scheduled = 0;
        /** Pending jobs per priority, FIFO within one priority. */
        std::map<int, std::deque<Job>> pending;
        std::uint64_t queued = 0;

        /** Highest priority with pending work (queued > 0 only). */
        int
        topPriority() const
        {
            return pending.rbegin()->first;
        }
    };

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::map<std::string, ClientQueue> clients_;
    std::uint64_t depth_ = 0;
    /** Global virtual clock: the vtime of the last scheduled job.
     *  Floors re-activating clients so idle time is not credit. */
    double clock_ = 0.0;
    bool closed_ = false;
};

} // namespace serve
} // namespace dalorex

#endif // DALOREX_SERVE_SCHEDULER_HH

/**
 * @file
 * The `dalorex serve` daemon core, transport-agnostic.
 *
 * A Server owns the FairScheduler and a crew of worker threads;
 * transports (stdin, Unix socket — see serve_cli.cc) own the bytes.
 * A transport registers each client as a connection with a write sink,
 * feeds request lines to handleLine(), and the server pushes response
 * lines back through the sink — from the reader thread for `accepted`/
 * `stats`/`error`, from whichever crew member ran the scenario for
 * `result`. Per-connection write locks keep concurrent lines whole
 * (interleaved but never torn).
 *
 * serve() runs the crew as one runSpmd session, blocking until
 * shutdown is requested (a `shutdown` request, transport EOF, or a
 * signal) and every already-accepted job has drained. Datasets stay
 * resident across requests in the process-wide cache; each run builds
 * its own machine, whose tile queues allocate host storage only as
 * they fill.
 *
 * Keeping the core free of fds/sockets is what makes the protocol
 * robustness tests cheap: serve_test drives handleLine() directly and
 * asserts on captured sink output, no processes or sockets involved.
 */

#ifndef DALOREX_SERVE_SERVER_HH
#define DALOREX_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/scheduler.hh"
#include "sim/machine.hh"

namespace dalorex
{
namespace serve
{

class Server
{
  public:
    /** Receives one complete response line (with trailing newline). */
    using Sink = std::function<void(const std::string& line)>;

    /** @param workers Crew size; run requests execute `workers` at a
     *                 time (the caller of serve() is worker 0). */
    explicit Server(unsigned workers);

    /** Register a client; the returned id routes handleLine(). */
    std::uint64_t openConnection(Sink sink);

    /** Unregister a client. In-flight results for it are dropped. */
    void closeConnection(std::uint64_t connection);

    /**
     * Process one request line from a connection (thread-safe). Every
     * line gets at least one response line; a run request gets
     * `accepted` now and `result`/`error` when it executes.
     */
    void handleLine(std::uint64_t connection, const std::string& line);

    /**
     * Run the crew until shutdown is requested and every accepted job
     * has drained. Blocks the caller (it serves as worker 0).
     */
    void serve();

    /** Stop accepting run requests and end serve() once drained. */
    void requestShutdown();

    bool
    shutdownRequested() const
    {
        return shutdown_.load(std::memory_order_acquire);
    }

    /** The `stats` response line for request `id`. */
    std::string statsLine(const std::string& id) const;

    /**
     * Retry transiently failing runs (dataset-file I/O) up to
     * `retries` extra times, sleeping backoffMs << attempt between
     * tries (saturating, see retryBackoffMs), before the error is
     * answered. Deadline expiries are never retried — their budget is
     * already spent. Once shutdown is requested, a backoff ends early
     * and the run answers its last error instead of retrying.
     */
    void setRetries(unsigned retries, std::uint64_t backoffMs = 250);

    /**
     * Answer a line the transport refused to buffer (an unterminated
     * line past the hard cap) with the standard oversized-line error,
     * naming the observed byte count, before the caller drops the
     * peer. No request id was parseable, so the error carries none.
     */
    void rejectOversized(std::uint64_t connection,
                         std::size_t observedBytes);

    unsigned workers() const { return workers_; }

  private:
    struct Connection
    {
        Sink sink;
        std::mutex writeMutex; //!< keeps concurrent lines whole
        bool open = true;
    };

    /** Send one line to a connection (dropped if it closed). */
    void respond(std::uint64_t connection, const std::string& line);

    /** Crew-member body: pop + execute until closed and drained. */
    void workerLoop();

    const unsigned workers_;
    const std::chrono::steady_clock::time_point start_;
    FairScheduler scheduler_;
    std::atomic<bool> shutdown_{false};

    mutable std::mutex connMutex_;
    std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
    std::uint64_t nextConnection_ = 1;

    /** Serve-side retry policy (set before serve() starts). */
    unsigned retries_ = 0;
    std::uint64_t backoffMs_ = 250;

    mutable std::mutex statsMutex_;
    std::uint64_t rejected_ = 0;  //!< lines answered with `error`
    std::uint64_t completed_ = 0; //!< runs that produced a `result`
    std::uint64_t failed_ = 0;    //!< runs that produced an `error`
    // Fault-layer counters (the stats `fault` object).
    std::uint64_t timeouts_ = 0;      //!< deadline-expired results
    std::uint64_t cancellations_ = 0; //!< cancelled-run results
    std::uint64_t retriedRuns_ = 0;   //!< extra attempts performed
    std::uint64_t quarantined_ = 0;   //!< permanent failures answered
    std::map<std::string, std::uint64_t> completedPerClient_;
};

} // namespace serve
} // namespace dalorex

#endif // DALOREX_SERVE_SERVER_HH

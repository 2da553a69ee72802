#include "serve/server.hh"

#include <sstream>
#include <utility>

#include "cli/cli.hh"
#include "common/parallel.hh"
#include "graph/dataset_cache.hh"
#include "serve/json.hh"

namespace dalorex
{
namespace serve
{

Server::Server(unsigned workers)
    : workers_(workers == 0 ? 1 : workers),
      start_(std::chrono::steady_clock::now())
{
}

std::uint64_t
Server::openConnection(Sink sink)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    const std::uint64_t id = nextConnection_++;
    auto conn = std::make_shared<Connection>();
    conn->sink = std::move(sink);
    connections_.emplace(id, std::move(conn));
    return id;
}

void
Server::closeConnection(std::uint64_t connection)
{
    std::shared_ptr<Connection> conn;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        auto it = connections_.find(connection);
        if (it == connections_.end())
            return;
        conn = it->second;
        connections_.erase(it);
    }
    // Flip under the write lock so no sink call can still be running
    // when the transport tears the peer down.
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    conn->open = false;
}

void
Server::respond(std::uint64_t connection, const std::string& line)
{
    std::shared_ptr<Connection> conn;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        auto it = connections_.find(connection);
        if (it == connections_.end())
            return;
        conn = it->second;
    }
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (conn->open)
        conn->sink(line);
}

void
Server::handleLine(std::uint64_t connection, const std::string& line)
{
    // Blank lines are keep-alive noise, not requests.
    if (line.find_first_not_of(" \t\r") == std::string::npos)
        return;

    ParsedRequest parsed = parseRequestLine(line);
    if (!parsed.ok) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++rejected_;
        }
        respond(connection,
                errorLine(parsed.request.id, parsed.error));
        return;
    }
    Request& request = parsed.request;

    switch (request.type) {
    case Request::Type::stats:
        respond(connection, statsLine(request.id));
        return;
    case Request::Type::shutdown:
        respond(connection,
                acceptedLine(request.id, scheduler_.depth()));
        requestShutdown();
        return;
    case Request::Type::run:
        break;
    }

    if (shutdownRequested()) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++rejected_;
        }
        respond(connection,
                errorLine(request.id, "daemon is shutting down"));
        return;
    }

    // `accepted` is sent before the job is visible to workers so it
    // always precedes the `result` line for the same id.
    respond(connection,
            acceptedLine(request.id, scheduler_.depth()));
    scheduler_.push(Job{std::move(request), connection});
}

void
Server::setRetries(unsigned retries, std::uint64_t backoffMs)
{
    retries_ = retries;
    backoffMs_ = backoffMs;
}

void
Server::workerLoop()
{
    Job job;
    while (scheduler_.pop(job)) {
        cli::Options options = job.request.options;
        RunControl control;
        if (options.deadlineMs > 0)
            // The budget counts from acceptance, so queueing delay
            // spends it too; an already-expired deadline unwinds the
            // engine on its first cycle.
            control.deadline =
                deadlineAfter(job.enqueuedAt, options.deadlineMs);
        options.deadlineMs = 0; // `control` owns expiry

        cli::RunOutcome outcome;
        for (unsigned attempt = 0;; ++attempt) {
            outcome = cli::runScenario(options, control);
            // Retry only still-retriable transients (dataset I/O). A
            // timed-out run is transient to *callers*, but its budget
            // is spent here — answer it now.
            if (outcome.ok || attempt >= retries_ ||
                !outcome.transient ||
                outcome.status != RunStatus::completed)
                break;
            backoffSleep(retryBackoffMs(backoffMs_, attempt),
                         &shutdown_);
            if (shutdownRequested())
                break; // answer the last error; do not hold the drain
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++retriedRuns_;
            }
        }

        if (!outcome.ok && outcome.status == RunStatus::completed) {
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++failed_;
                if (!outcome.transient)
                    ++quarantined_;
            }
            respond(job.connection, errorLine(job.request.id,
                                              outcome.error,
                                              outcome.transient));
            continue;
        }
        // Early-unwound runs still answer with a `result`: the payload
        // carries status/partial stats, and the requester decides what
        // a timeout means for it.
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            if (outcome.ok) {
                ++completed_;
                ++completedPerClient_[job.request.client];
            } else if (outcome.status == RunStatus::timeout) {
                ++timeouts_;
            } else if (outcome.status == RunStatus::cancelled) {
                ++cancellations_;
            } else {
                ++failed_;
            }
        }
        respond(job.connection,
                resultLine(job.request.id,
                           cli::renderJson(outcome.report)));
    }
}

void
Server::rejectOversized(std::uint64_t connection,
                        std::size_t observedBytes)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++rejected_;
    }
    respond(connection,
            errorLine("", "request line of " +
                              std::to_string(observedBytes) +
                              " bytes exceeds the " +
                              std::to_string(maxRequestBytes) +
                              "-byte limit"));
}

void
Server::serve()
{
    runSpmd(workers_, [this](unsigned) { workerLoop(); });
}

void
Server::requestShutdown()
{
    shutdown_.store(true, std::memory_order_release);
    scheduler_.close();
}

std::string
Server::statsLine(const std::string& id) const
{
    const auto uptime =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const DatasetCacheStats cache = datasetCacheStats();
    const std::vector<ClientStats> clients =
        scheduler_.clientStats();

    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t cancellations = 0;
    std::uint64_t retried = 0;
    std::uint64_t quarantined = 0;
    std::map<std::string, std::uint64_t> perClient;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        rejected = rejected_;
        completed = completed_;
        failed = failed_;
        timeouts = timeouts_;
        cancellations = cancellations_;
        retried = retriedRuns_;
        quarantined = quarantined_;
        perClient = completedPerClient_;
    }

    std::ostringstream out;
    out << "{\"type\":\"stats\",\"id\":" << jsonQuote(id)
        << ",\"stats\":{"
        << "\"uptime_seconds\":" << uptime
        << ",\"workers\":" << workers_
        << ",\"queue_depth\":" << scheduler_.depth()
        << ",\"runs_completed\":" << completed
        << ",\"runs_failed\":" << failed
        << ",\"requests_rejected\":" << rejected
        << ",\"dataset_cache\":{\"builds\":" << cache.builds
        << ",\"hits\":" << cache.hits << "}"
        << ",\"fault\":{\"timeouts\":" << timeouts
        << ",\"cancellations\":" << cancellations
        << ",\"retries\":" << retried
        << ",\"quarantined\":" << quarantined << "}"
        << ",\"clients\":[";
    bool first = true;
    for (const ClientStats& c : clients) {
        if (!first)
            out << ",";
        first = false;
        const auto done = perClient.find(c.client);
        out << "{\"client\":" << jsonQuote(c.client)
            << ",\"weight\":" << c.weight
            << ",\"submitted\":" << c.submitted
            << ",\"scheduled\":" << c.scheduled
            << ",\"queued\":" << c.queued << ",\"completed\":"
            << (done != perClient.end() ? done->second : 0) << "}";
    }
    out << "]}}\n";
    return out.str();
}

} // namespace serve
} // namespace dalorex

#include "serve/server.hh"

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include <sys/stat.h>

#include "cli/cli.hh"
#include "common/parallel.hh"
#include "graph/dataset_cache.hh"
#include "serve/json.hh"

namespace dalorex
{
namespace serve
{
namespace
{

/** Client names become journal file names; keep them path-safe. */
std::string
sanitizeClientName(const std::string& client)
{
    std::string out;
    out.reserve(client.size());
    for (char c : client) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' ||
                          c == '.' || c == '_';
        out += safe ? c : '_';
    }
    return out.empty() ? std::string("_") : out;
}

} // namespace

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

bool
Server::enableJournal(const std::string& dir, std::string& err)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
        err = "cannot create journal directory " + dir + ": " +
              std::strerror(errno);
        return false;
    }
    journalDir_ = dir;
    return true;
}

Server::ClientJournal*
Server::clientJournal(const std::string& client)
{
    auto it = journals_.find(client);
    if (it != journals_.end())
        return it->second.get();

    auto cj = std::make_unique<ClientJournal>();
    const std::string path =
        journalDir_ + "/" + sanitizeClientName(client) + ".journal";
    // A serve journal has no sweep plan to bind to: plan hash 0 and
    // point count 0 are its fixed header, and every reopen appends the
    // same header (replay verifies repeated headers agree).
    const journal::Replay replayed = journal::replay(path);
    if (replayed.ok) {
        for (const journal::Record& r : replayed.records) {
            if (r.status == journal::RowStatus::ok)
                cj->payloads[r.pointHash] = r.payload;
            cj->nextRow = std::max(cj->nextRow, r.row + 1);
        }
    }
    std::string err;
    cj->writer.open(path, 0, 0, err); // failure: journaling degrades
                                      // to in-memory for this client
    ClientJournal* raw = cj.get();
    journals_.emplace(client, std::move(cj));
    return raw;
}

bool
Server::replayFromJournal(const Job& job, std::uint64_t point)
{
    std::string payload;
    {
        std::lock_guard<std::mutex> lock(journalMutex_);
        ClientJournal* cj = clientJournal(job.request.client);
        const auto hit = cj->payloads.find(point);
        if (hit == cj->payloads.end())
            return false;
        payload = hit->second;
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++completed_;
        ++journalReplayed_;
        ++completedPerClient_[job.request.client];
    }
    respond(job.connection, resultLine(job.request.id, payload));
    return true;
}

void
Server::recordInJournal(const std::string& client,
                        std::uint64_t point,
                        const std::string& payload)
{
    bool written = false;
    {
        std::lock_guard<std::mutex> lock(journalMutex_);
        ClientJournal* cj = clientJournal(client);
        if (cj->payloads.count(point) != 0)
            return; // a concurrent duplicate already recorded it
        journal::Record record;
        record.row = cj->nextRow++;
        record.pointHash = point;
        record.status = journal::RowStatus::ok;
        record.payload = payload;
        cj->payloads[point] = payload;
        written = cj->writer.append(record);
    }
    if (written) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++journalWritten_;
    }
}

void
Server::workerLoop()
{
    Job job;
    while (scheduler_.pop(job)) {
        const std::uint64_t point = pointHash(job.request.options);
        if (!journalDir_.empty() && replayFromJournal(job, point))
            continue;

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

        if (outcome.status != RunStatus::completed) {
            // Early-unwound runs still answer with a `result`: the
            // payload carries status/partial stats, and the requester
            // decides what a timeout means for it.
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                if (outcome.status == RunStatus::timeout)
                    ++timeouts_;
                else if (outcome.status == RunStatus::cancelled)
                    ++cancellations_;
                else
                    ++failed_;
            }
            respond(job.connection,
                    resultLine(job.request.id,
                               cli::renderJson(outcome.report)));
            continue;
        }
        if (!outcome.ok) {
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++failed_;
                if (!outcome.transient)
                    ++quarantined_;
            }
            respond(job.connection,
                    errorLine(job.request.id, outcome.error));
            continue;
        }

        std::string payload = cli::renderJson(outcome.report);
        while (!payload.empty() && payload.back() == '\n')
            payload.pop_back();
        if (!journalDir_.empty())
            recordInJournal(job.request.client, point, payload);
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++completed_;
            ++completedPerClient_[job.request.client];
        }
        respond(job.connection, resultLine(job.request.id, payload));
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
    std::uint64_t journal_written = 0;
    std::uint64_t journal_replayed = 0;
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
        journal_written = journalWritten_;
        journal_replayed = journalReplayed_;
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
        << ",\"quarantined\":" << quarantined
        << ",\"journal_written\":" << journal_written
        << ",\"journal_replayed\":" << journal_replayed << "}"
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

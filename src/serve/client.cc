#include "serve/client.hh"

#include <unistd.h>

#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/socket_io.hh"

namespace dalorex
{
namespace serve
{
namespace
{

/** Row index from a "p<index>" request id; false on junk. */
bool
rowFromId(const std::string& id, std::size_t rows, std::size_t& out)
{
    if (id.size() < 2 || id[0] != 'p')
        return false;
    std::uint64_t v = 0;
    for (std::size_t i = 1; i < id.size(); ++i) {
        if (id[i] < '0' || id[i] > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(id[i] - '0');
        if (v >= rows)
            return false;
    }
    out = static_cast<std::size_t>(v);
    return true;
}

/**
 * The id of a result line, read from its fixed prefix
 * {"type":"result","id":"<id>" so a payload that does not parse still
 * reaches its row; "" when the id is not a plain string.
 */
std::string
resultId(const std::string& line)
{
    const std::string prefix = "{\"type\":\"result\",\"id\":\"";
    const std::size_t end = line.find('"', prefix.size());
    if (line.rfind(prefix, 0) != 0 || end == std::string::npos)
        return "";
    return line.substr(prefix.size(), end - prefix.size());
}

} // namespace

bool
runViaSocket(const std::string& socketPath, const std::string& client,
             const std::vector<cli::Options>& points,
             std::vector<cli::RunOutcome>& outcomes, std::string& err,
             const std::atomic<bool>* cancel,
             const std::vector<char>* skip,
             const std::function<void(std::size_t,
                                      const cli::RunOutcome&)>& onRow)
{
    outcomes.assign(points.size(), cli::RunOutcome{});
    // The rows to submit, in order; the caller's journal owns the rest.
    std::vector<std::size_t> rows;
    std::vector<bool> resolved(points.size(), true);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (skip == nullptr || i >= skip->size() || (*skip)[i] == 0) {
            rows.push_back(i);
            resolved[i] = false;
        }
    }
    std::size_t remaining = rows.size();
    if (remaining == 0)
        return true;

    const int fd = connectUnix(socketPath, err);
    if (fd < 0)
        return false;

    // The daemon counts a row's deadline from acceptance, so keep at
    // most one row unanswered per daemon worker (its `stats` answer
    // says how many): no row waits in its queue behind this sweep's
    // own rows, and the socket buffers cannot fill. A row's successor
    // goes out as soon as its answer is read, before the answer is
    // parsed and recorded. Sends go unchecked, as a broken socket
    // shows in the reads below.
    std::size_t window = 0;
    std::size_t sent = 0;
    auto topUp = [&] {
        for (; sent < rows.size() &&
               sent - (rows.size() - remaining) < window;
             ++sent) {
            sendAll(fd, renderRunRequest(points[rows[sent]],
                                         "p" + std::to_string(rows[sent]),
                                         client) +
                            "\n");
        }
    };
    // True while `row` is sent and unanswered (rows ascend).
    auto awaited = [&](std::size_t row) {
        return !resolved[row] && (sent == rows.size() || row < rows[sent]);
    };
    sendAll(fd, "{\"type\":\"stats\",\"id\":\"w\"}\n");
    bool transportOk = true;
    bool interrupted = false;
    LineReader reader(fd);
    std::string line;
    while (transportOk && remaining > 0) {
        const ReadStatus status = reader.readLine(line);
        if (status == ReadStatus::interrupted) {
            if (cancel != nullptr && cancel->load()) {
                interrupted = true;
                break;
            }
            continue;
        }
        if (status == ReadStatus::eof || status == ReadStatus::error) {
            transportOk = false;
            err = "daemon connection closed with " +
                  std::to_string(remaining) + " of " +
                  std::to_string(points.size()) +
                  " rows outstanding";
            break;
        }

        std::string payload;
        if (extractResultPayload(line, payload)) {
            std::size_t row = 0;
            if (!rowFromId(resultId(line), points.size(), row) ||
                !awaited(row))
                continue; // not ours; ignore
            resolved[row] = true;
            --remaining;
            topUp();
            cli::RunOutcome& outcome = outcomes[row];
            std::string perr;
            if (!parseReportPayload(payload, points[row],
                                    outcome.report, perr)) {
                outcome.ok = false;
                outcome.error = perr;
            } else if (outcome.report.stats.status !=
                       RunStatus::completed) {
                // The daemon unwound the run early (deadline, cancel)
                // and answered with a partial-report result; that
                // fails the row here exactly like a local unwind.
                outcome.ok = false;
                outcome.status = outcome.report.stats.status;
                outcome.transient =
                    outcome.status == RunStatus::timeout;
                outcome.error =
                    std::string(toString(outcome.status)) +
                    ": daemon run unwound early";
            }
            if (onRow)
                onRow(row, outcome);
            continue;
        }

        const JsonParseResult parsed = parseJson(line);
        if (!parsed.ok || !parsed.value.isObject())
            continue; // daemon noise; not fatal
        const JsonValue* type = parsed.value.find("type");
        const JsonValue* id = parsed.value.find("id");
        if (type == nullptr || !type->isString() || id == nullptr ||
            !id->isString())
            continue;
        if (id->text == "w") { // the answer to the stats request
            const JsonValue* stats = parsed.value.find("stats");
            const JsonValue* workers =
                stats != nullptr ? stats->find("workers") : nullptr;
            std::uint64_t n = 0;
            if (type->text != "stats" || workers == nullptr ||
                !workers->asU64(n) || n == 0) {
                transportOk = false;
                err = "daemon answered its stats request without a "
                      "worker count";
            }
            window = static_cast<std::size_t>(n);
            topUp();
            continue;
        }
        std::size_t row = 0;
        if (!rowFromId(id->text, points.size(), row) || !awaited(row))
            continue;
        if (type->text == "error") {
            resolved[row] = true;
            --remaining;
            topUp();
            const JsonValue* message = parsed.value.find("error");
            const JsonValue* transient = parsed.value.find("transient");
            outcomes[row].ok = false;
            outcomes[row].error =
                message != nullptr && message->isString()
                    ? message->text
                    : "daemon error";
            outcomes[row].transient = transient != nullptr &&
                                      transient->isBool() &&
                                      transient->boolean;
            if (onRow)
                onRow(row, outcomes[row]);
        }
        // "accepted" lines carry no outcome; skip.
    }

    ::close(fd);

    if (interrupted) {
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (resolved[i])
                continue;
            outcomes[i].ok = false;
            outcomes[i].error = "interrupted";
        }
        return true; // partial results are the point of SIGINT flush
    }
    return transportOk;
}

} // namespace serve
} // namespace dalorex

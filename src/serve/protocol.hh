/**
 * @file
 * The `dalorex serve` wire protocol: newline-delimited JSON both ways.
 *
 * Requests (one JSON object per line):
 *   {"type":"run","id":"r1","kernel":"bfs","dataset":"rmat10",
 *    "width":4,"height":4,...,"client":"alice","priority":1,
 *    "weight":2}                        -> accepted + result|error
 *   {"type":"stats","id":"s1"}          -> stats snapshot
 *   {"type":"shutdown","id":"q1"}       -> accepted; daemon drains
 *
 * Responses:
 *   {"type":"accepted","id":...,"queued":N}
 *   {"type":"result","id":...,"report":{...}}   (see below)
 *   {"type":"error","id":...,"error":"one line"}
 *   {"type":"error","id":...,"error":"one line","transient":true}
 *   {"type":"stats","id":...,"stats":{...}}
 *
 * The `report` payload of a result is the *exact* cli::renderJson
 * output of the scenario — byte-identical to what a standalone
 * `dalorex --json` run of the same scenario prints — embedded
 * verbatim. extractResultPayload() recovers those bytes, so clients
 * (and CI) can diff serve-backed runs against standalone runs without
 * any re-serialization. An `error` for a failed run carries
 * "transient":true when the failure may pass on a retry (dataset file
 * I/O), so a `sweep --via` journals the row as retriable, exactly as
 * a local sweep does; the key is absent otherwise.
 *
 * The scenario fields are the request keys of the axis table in
 * cli/scenario.hh, the table behind the `dalorex` and `dalorex sweep`
 * flags too: a field parses, range-checks and renders exactly as its
 * flag does, and cli::finishScenario() applies the same cross-axis
 * rules. Where a front end differs (a key with no flag, such as
 * dataset_scale; the "" and 0 spellings that leave a field unset),
 * the table row says so. Unknown fields are an error: a typoed knob
 * must fail the request, not silently run a default scenario.
 */

#ifndef DALOREX_SERVE_PROTOCOL_HH
#define DALOREX_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "cli/cli.hh"

namespace dalorex
{
namespace serve
{

/** Request line length cap: an oversized line is refused with an
 *  `error` response instead of being buffered without bound. */
constexpr std::size_t maxRequestBytes = 64 * 1024;

/** One parsed request. */
struct Request
{
    enum class Type
    {
        run,      //!< execute a scenario
        stats,    //!< report daemon counters
        shutdown, //!< drain in-flight work and exit
    };

    Type type = Type::run;
    std::string id;              //!< echoed on every response
    std::string client = "anon"; //!< fair-share accounting key
    int priority = 0;            //!< higher runs first [-100, 100]
    /** Fair-share weight for this client (sticky; 0 = leave as is). */
    double weight = 0.0;
    cli::Options options;        //!< run requests only
};

/** Outcome of parsing one request line. */
struct ParsedRequest
{
    Request request;
    bool ok = true;
    /** One line, set when !ok. The id is still recovered on a
     *  best-effort basis so the error response can carry it. */
    std::string error;
};

/**
 * Parse one request line. Malformed JSON, unknown types/fields, bad
 * values and oversized lines all come back ok == false with a
 * one-line error; request.id carries whatever id could be recovered.
 */
ParsedRequest parseRequestLine(const std::string& line);

/**
 * Render a run request for `options` (the sweep client's serializer).
 * Every CLI-settable scenario field is emitted explicitly, so the
 * server parses exactly the submitted scenario regardless of its own
 * defaults.
 */
std::string renderRunRequest(const cli::Options& options,
                             const std::string& id,
                             const std::string& client,
                             int priority = 0);

/**
 * Canonical scenario identity hash: the FNV-1a of the options'
 * renderRunRequest bytes with empty id/client and run-control knobs
 * (deadline_ms) zeroed. The sweep journal keys rows by it, so a row
 * hashes identically whether it ran locally or via a daemon, with or
 * without a deadline.
 */
std::uint64_t pointHash(const cli::Options& options);

// --- responses -------------------------------------------------------

/** {"type":"accepted","id":...,"queued":N} */
std::string acceptedLine(const std::string& id, std::uint64_t queued);

/** {"type":"error","id":...,"error":...}, plus "transient":true when
 *  `transient` is set. */
std::string errorLine(const std::string& id, const std::string& error,
                      bool transient = false);

/**
 * {"type":"result","id":...,"report":PAYLOAD} where PAYLOAD is the
 * cli::renderJson output (sans trailing newline) embedded verbatim.
 */
std::string resultLine(const std::string& id,
                       const std::string& reportJson);

/**
 * Recover the verbatim report payload from a result line (the bytes
 * cli::renderJson produced, with its trailing newline restored).
 * False when the line is not a well-formed result.
 */
bool extractResultPayload(const std::string& line, std::string& out);

/**
 * Rebuild a cli::Report from a result payload. `submitted` must be
 * the options the request was built from — the report's scenario
 * identity (kernel, machine, seed, labels) comes from it, while the
 * measured facts (dataset name/size, every counted row of
 * runCounters and nocCounters, the status and the validated flag)
 * parse out of the payload; its `execution` object is not read. A
 * missing counter or a status this build does not know fails the
 * parse; a missing status means completed. Derived quantities (energy,
 * seconds, bandwidth, utilization) are recomputed locally from those
 * integers, so a reconstructed report aggregates byte-identically to
 * one produced in-process and renders the same bytes up to its
 * execution object (cli::withoutExecution).
 */
bool parseReportPayload(const std::string& payload,
                        const cli::Options& submitted,
                        cli::Report& out, std::string& err);

} // namespace serve
} // namespace dalorex

#endif // DALOREX_SERVE_PROTOCOL_HH

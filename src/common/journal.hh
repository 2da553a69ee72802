/**
 * @file
 * The durable run journal: an append-only, per-record-checksummed
 * JSONL file recording the outcome of every sweep row, whether the
 * row ran in-process or on a `dalorex serve` daemon (`--via`). It is
 * the only durable record of results: the daemon keeps none, so a
 * restarted daemon recomputes what it is sent, and a resumed sweep
 * sends it only the rows its journal lacks.
 *
 * Each line is one self-contained JSON object whose last member is a
 * checksum over the preceding bytes of the line (graphfile's FNV-1a
 * via hashBytes), so a crash mid-append — the expected failure mode;
 * the writer is kill -9'd, not closed — leaves at most one torn
 * trailing line, which replay() detects and drops. A record of status
 * `ok` embeds the row's *verbatim* renderJson report bytes; resuming
 * replays them through serve::parseReportPayload, the same
 * reconstruction path `--via SOCKET` sweeps use, which is what makes
 * a resumed sweep's table/CSV/JSONL byte-identical to an
 * uninterrupted run.
 *
 * Rows are keyed by (row index, point hash): the point hash is a hash
 * of the row's canonical serialized scenario (deadline knobs
 * excluded), so a journal can never replay a record into a different
 * plan — the header additionally binds the whole file to a plan hash.
 */

#ifndef DALOREX_COMMON_JOURNAL_HH
#define DALOREX_COMMON_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dalorex
{
namespace journal
{

/** Terminal state of one journaled row. */
enum class RowStatus : std::uint8_t
{
    ok,          //!< ran and validated; `payload` holds the report
    failed,      //!< transient failure (retriable; re-run on resume)
    quarantined, //!< permanent failure (validation, bad scenario):
                 //!< resume replays the error instead of re-running
    skipped,     //!< interrupted/cancelled before completing
};

const char* toString(RowStatus status);
bool parseRowStatus(std::string_view text, RowStatus& out);

/** One journaled row outcome. */
struct Record
{
    std::uint64_t row = 0;       //!< expansion-order index
    std::uint64_t pointHash = 0; //!< hash of the canonical scenario
    RowStatus status = RowStatus::ok;
    std::uint32_t attempts = 1;  //!< runs performed incl. retries
    std::string error;           //!< non-ok: the row's one-line error
    std::string payload;         //!< ok: verbatim renderJson bytes
};

/** A parsed journal line: a header or a row record. */
struct ParsedLine
{
    bool isHeader = false;
    std::uint64_t planHash = 0;  //!< header only
    std::uint64_t points = 0;    //!< header only
    Record record;               //!< row only
};

/** Render the file-binding header line (no trailing newline). */
std::string renderHeader(std::uint64_t planHash, std::uint64_t points);
/** Render one row record line (no trailing newline). */
std::string renderRecord(const Record& record);
/** Parse + checksum-verify one line; false with `err` on any damage. */
bool parseLine(const std::string& line, ParsedLine& out,
               std::string& err);

/**
 * Thread-safe append-only journal writer. open() appends to `path`
 * (creating it) and writes a fresh header; append() serializes,
 * checksums and flushes one record — every record is on disk before
 * the row is considered journaled, so kill -9 never loses a
 * completed row, only at most the torn line being written.
 */
class Writer
{
  public:
    Writer() = default;

    bool open(const std::string& path, std::uint64_t planHash,
              std::uint64_t points, std::string& err);
    bool isOpen() const { return out_.is_open(); }
    /** Append one record; false once the stream has failed. */
    bool append(const Record& record);
    /** Row records appended through this writer. */
    std::uint64_t written() const;
    void close();

  private:
    mutable std::mutex mutex_;
    std::ofstream out_;
    std::uint64_t written_ = 0;
};

/** Everything recovered from one journal file. */
struct Replay
{
    bool ok = false;    //!< file opened and at least the header parsed
    std::string error;  //!< set when !ok
    std::uint64_t planHash = 0; //!< from the (first) header
    std::uint64_t points = 0;   //!< from the (first) header
    /** Valid row records in file order (duplicates kept; last wins). */
    std::vector<Record> records;
    std::uint64_t corrupt = 0; //!< damaged lines dropped (torn tail)
};

/**
 * Read back a journal. Checksum-damaged or torn lines are dropped and
 * counted, never fatal — a journal that was being appended when the
 * process died is the normal input. Repeated headers (a resumed run
 * appending into its own journal) must agree with the first.
 */
Replay replay(const std::string& path);

} // namespace journal
} // namespace dalorex

#endif // DALOREX_COMMON_JOURNAL_HH

/**
 * @file
 * The `dalorex sweep` subcommand: grid-spec flags (comma-separated
 * axis values) to a Plan, parallel execution, and aggregate output as
 * an aligned table, CSV and/or JSON-lines.
 *
 * Parsing and running are split from the dispatcher so tests can
 * drive them in-process, mirroring cli::parseArgs / cli::cliMain.
 */

#ifndef DALOREX_SWEEP_SWEEP_CLI_HH
#define DALOREX_SWEEP_SWEEP_CLI_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sweep/plan.hh"

namespace dalorex
{
namespace sweep
{

/** Everything `dalorex sweep` argv determines. */
struct SweepOptions
{
    Plan plan;
    unsigned threads = 0;  //!< 0 = host core count
    /** `--via SOCKET`: submit the expanded points to a running
     *  `dalorex serve` daemon instead of executing them in-process.
     *  Output is byte-identical either way ("" = run locally). */
    std::string via;
    std::string csvPath;   //!< write aggregate CSV here ("" = off)
    std::string jsonlPath; //!< write JSONL rows here ("" = off)
    /** `--journal PATH`: append a checksummed record per row as it
     *  resolves. A journal of the same plan already at PATH is
     *  replayed first: its completed rows are not re-run and the
     *  output is byte-identical to an uninterrupted sweep ("" = off). */
    std::string journalPath;
    /** Extra attempts per transiently failing row (I/O, timeout);
     *  local rows only, a daemon retries with `serve --retries`. */
    unsigned retries = 0;
    /** Base backoff before a retry; doubles per attempt. */
    std::uint64_t retryBackoffMs = 250;
    bool json = false;     //!< print JSONL to stdout, not the table
    bool quick = true;     //!< stand-in scale for named datasets
    bool help = false;
    bool listDatasets = false;
    bool listKernels = false;
};

/** Outcome of parsing sweep argv: options, or a diagnostic. */
struct SweepParseResult
{
    SweepOptions options;
    bool ok = true;
    std::string error; //!< set when !ok
};

/**
 * Parse `dalorex sweep` argv (argv[0], the subcommand word, is
 * skipped). Bad axis values, out-of-range --threads and malformed
 * grids yield ok == false with a one-line error.
 */
SweepParseResult parseSweepArgs(int argc, const char* const* argv);

/** The `dalorex sweep --help` text. */
std::string sweepUsageText();

/**
 * Full subcommand behavior: parse, expand, run on the worker pool,
 * aggregate, render. Diagnostics go to `err`. Returns the process
 * exit code: 0 ok, 2 usage/plan error, 1 when individual scenario
 * rows failed (their one-line errors go to `err`; the surviving rows
 * still render).
 */
int sweepMain(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

} // namespace sweep
} // namespace dalorex

#endif // DALOREX_SWEEP_SWEEP_CLI_HH

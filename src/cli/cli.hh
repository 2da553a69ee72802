/**
 * @file
 * The `dalorex` experiment front door: one binary that builds a
 * scenario (kernel + dataset + machine shape + policy knobs) from
 * argv, runs it on the cycle-level engine, and reports RunStats plus
 * the energy model as text or JSON.
 *
 * Parsing, running and rendering are split from main() so tests can
 * drive them directly and later PRs can sweep scenarios in-process.
 */

#ifndef DALOREX_CLI_CLI_HH
#define DALOREX_CLI_CLI_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "apps/kernels.hh"
#include "energy/model.hh"
#include "sim/machine.hh"

namespace dalorex
{
namespace cli
{

/** One scenario, fully determined by argv. */
struct Options
{
    /** Registry handle of the scenario's kernel (never null). */
    const KernelInfo* kernel = defaultKernel();
    MachineConfig machine; //!< width/height/topology/policy/...
    /** Named dataset ("amazon", "wiki", "rmat14", ...); empty = RMAT
     *  at `scale`. */
    std::string dataset;
    unsigned scale = 12; //!< RMAT scale when `dataset` is empty
    /** Vertex-scale override for named stand-ins (0 = native size);
     *  set by the sweep layer's quick/full and NAME@SCALE specs. */
    unsigned datasetScale = 0;
    /** Kernel parameter overrides (`--param damping=0.9,...`),
     *  applied through each kernel's KernelDefaults; keys a kernel
     *  declares unused are skipped. */
    std::vector<ParamOverride> params;
    std::uint64_t seed = 1;   //!< dataset/weight seed
    /**
     * Wall-clock budget for the engine run in milliseconds (0 =
     * none), counted from engine start, so each retry of a sweep row
     * gets a whole budget (the daemon counts a request's budget from
     * acceptance instead and runs it with this field zeroed). The
     * engine reads the clock itself and notices expiry within 64
     * stepped cycles, unwinding at a cycle boundary with
     * RunStatus::timeout instead of the run hanging or being killed;
     * a budget too large for the clock means no deadline. A run-control knob, not scenario identity:
     * it is never rendered into reports, so a completed run's bytes
     * are identical with or without a deadline.
     */
    std::uint64_t deadlineMs = 0;
    bool json = false;        //!< emit JSON instead of text
    /** Print the engine-loop wall time to stderr (one line,
     *  `engine_wall_seconds X`): perf tooling reads it without
     *  disturbing the byte-identical stdout contract. */
    bool timeEngine = false;
    bool validate = false;    //!< check against sequential reference
    bool help = false;        //!< --help was requested
    bool listDatasets = false; //!< --list-datasets was requested
    bool listKernels = false; //!< --list-kernels was requested
};

/** Outcome of parsing argv: options, or a diagnostic. */
struct ParseResult
{
    Options options;
    bool ok = true;
    std::string error; //!< set when !ok
    /** One-line advisory printed to stderr on success (e.g. the
     *  --engine-threads > tiles clamp); empty when nothing to say. */
    std::string note;
};

/**
 * Parse argv (argv[0] is skipped) through the scenario axis table
 * (cli/scenario.hh), then finishScenario(). Unknown flags, missing
 * values, out-of-range numbers and scenarios the machine cannot build
 * yield ok == false with a one-line error.
 */
ParseResult parseArgs(int argc, const char* const* argv);

/**
 * One `dalorex` subcommand. The table below is the single source of
 * truth for what subcommands exist: main() dispatches from it and
 * usageText() renders its usage lines and summaries from it, so a
 * new subcommand cannot appear in one place and not the other.
 */
struct Subcommand
{
    const char* name;    //!< argv[1] word ("sweep")
    const char* args;    //!< usage-line argument sketch
    const char* summary; //!< one line for the top-level help
};

/** Every subcommand of the `dalorex` binary, dispatch order. */
const std::vector<Subcommand>& subcommands();

/** The --help text (kernel names rendered from the registry). */
std::string usageText();

/** The --list-datasets text (shared with `dalorex sweep`). */
std::string datasetListText();

/** The --list-kernels text: every registered kernel's name, aliases,
 *  traits, defaults and tags (shared with `dalorex sweep`). */
std::string kernelListText();

/** Resolve a kernel name or alias through the registry; false on
 *  unknown names. */
bool parseKernel(const std::string& text, const KernelInfo*& out);

/** Parse a decimal unsigned integer; false on junk or overflow. */
bool parseU64(const std::string& text, std::uint64_t& out);

/** Same, bounds-checked into [min, max]. */
bool parseU32(const std::string& text, std::uint32_t min,
              std::uint32_t max, std::uint32_t& out);

/** Everything measured by one scenario run. */
struct Report
{
    Options options;
    std::string datasetName;
    VertexId numVertices = 0;
    EdgeId numEdges = 0;
    RunStats stats;
    EnergyBreakdown energy;
    double seconds = 0.0;
    double bandwidthBytesPerSec = 0.0;
    /** Host wall time of Machine::run alone (simulator speed). Not
     *  rendered in the JSON/text reports, which therefore stay
     *  byte-identical across reruns of the same scenario. */
    double engineWallSeconds = 0.0;
    bool validated = false;
};

/** One scenario run, or a one-line diagnostic. */
struct RunOutcome
{
    Report report;
    bool ok = true;
    /** Set when !ok: impossible scenario or reference mismatch. */
    std::string error;
    /**
     * How the engine run ended (mirrors report.stats.status). A
     * timeout/cancelled/deadlock run has ok == false but the report
     * is still filled with the partial stats, so callers (serve) can
     * answer with a `result` carrying status:"timeout" rather than a
     * bare error line.
     */
    RunStatus status = RunStatus::completed;
    /**
     * Whether the failure is plausibly transient (a dataset-file I/O
     * error, a wall-clock timeout) and worth retrying with backoff —
     * vs permanent (unknown scenario, validation mismatch), which the
     * sweep layer quarantines instead of re-running.
     */
    bool transient = false;
};

/**
 * Build the dataset and kernel, run the machine, derive energy.
 * Impossible scenarios (e.g. unknown dataset name) and reference
 * mismatches under options.validate come back as ok == false with a
 * one-line diagnostic instead of killing the process, so one bad
 * point fails its own sweep row, not the whole grid.
 *
 * `control` is read by the engine's serial tail: a set cancel flag
 * unwinds the run as cancelled, a passed deadline as a timeout — both
 * at a cycle boundary, with the partial report filled. A nonzero
 * options.deadlineMs adds a deadline that many milliseconds after the
 * engine starts (the earlier of the two wins); the engine reads the
 * clock itself and notices expiry within 64 stepped cycles, and a
 * budget too large for the clock means no deadline.
 */
RunOutcome runScenario(const Options& options,
                       RunControl control = {});

/**
 * Render a report as a single valid JSON object (with newline). Its
 * last member, `execution`, says how the simulator ran: the engine
 * thread count and the engine's own scan work. Everything before it
 * describes the simulated machine and its results.
 */
std::string renderJson(const Report& report);

/**
 * A renderJson report without its trailing `execution` object: the
 * bytes every identity check compares. Runs of one scenario on any
 * engine thread count render the same bytes here.
 */
std::string withoutExecution(const std::string& json);

/** Render a report as a human-readable text block. */
std::string renderText(const Report& report);

/**
 * Full program behavior: parse, run, print to `out`; diagnostics go
 * to `err`. Returns the process exit code (0 ok, 2 on a usage error
 * or an impossible/failed scenario — one-line diagnostic on err, 3
 * when the run unwound early via timeout/cancel/deadlock — the
 * partial report is still printed with its status field).
 */
int cliMain(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

} // namespace cli
} // namespace dalorex

#endif // DALOREX_CLI_CLI_HH

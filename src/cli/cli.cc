#include "cli/cli.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <vector>

#include "apps/graph_app.hh"
#include "cli/scenario.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "graph/dataset_cache.hh"
#include "graph/datasets.hh"
#include "serve/json.hh"

namespace dalorex
{
namespace cli
{
namespace
{

ParseResult
fail(const std::string& message)
{
    ParseResult result;
    result.ok = false;
    result.error = message;
    return result;
}

} // namespace

bool
parseU64(const std::string& text, std::uint64_t& out)
{
    if (text.empty() ||
        !std::all_of(text.begin(), text.end(), [](unsigned char c) {
            return std::isdigit(c);
        }))
        return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

bool
parseU32(const std::string& text, std::uint32_t min, std::uint32_t max,
         std::uint32_t& out)
{
    std::uint64_t v = 0;
    if (!parseU64(text, v) || v < min || v > max)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

bool
parseKernel(const std::string& text, const KernelInfo*& out)
{
    const KernelInfo* kernel =
        KernelRegistry::instance().find(text);
    if (kernel == nullptr)
        return false;
    out = kernel;
    return true;
}

ParseResult
parseArgs(int argc, const char* const* argv)
{
    ParseResult result;
    Options& o = result.options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            o.help = true;
        } else if (flag == "--json") {
            o.json = true;
        } else if (flag == "--time-engine") {
            o.timeEngine = true;
        } else if (flag == "--list-datasets") {
            o.listDatasets = true;
        } else if (flag == "--list-kernels") {
            o.listKernels = true;
        } else if (const Axis* axis = axisByFlag(flag)) {
            std::string value;
            std::string err;
            if (!flagValue(*axis, argc, argv, i, value))
                return fail(flag + " needs a value");
            if (!axis->parse(flag, value, o, err))
                return fail(err);
        } else {
            return fail("unknown option: " + flag + " (try --help)");
        }
    }
    const ScenarioCheck check = finishScenario(o);
    if (!check.ok)
        return fail(check.error);
    result.note = check.note;
    return result;
}

const std::vector<Subcommand>&
subcommands()
{
    static const std::vector<Subcommand> table = {
        {"sweep", "[options]",
         "expand a scenario grid and run every point on a worker "
         "pool"},
        {"convert", "[options] [INPUT]",
         "turn edge-list/MatrixMarket/DIMACS inputs into binary CSR "
         "graph files"},
        {"serve", "[options]",
         "long-lived daemon running JSON scenario requests with warm "
         "caches"},
    };
    return table;
}

std::string
usageText()
{
    std::string usage = "usage: dalorex [options]\n";
    for (const Subcommand& sub : subcommands())
        usage += std::string("       dalorex ") + sub.name + " " +
                 sub.args + "\n";
    usage +=
        "\n"
        "Runs one kernel scenario on the cycle-level Dalorex engine\n"
        "and reports runtime statistics plus the energy model.\n"
        "\n"
        "subcommands (each has its own --help):\n";
    for (const Subcommand& sub : subcommands())
        usage += std::string("  ") + sub.name + "\n      " +
                 sub.summary + "\n";
    return usage + "\nscenario:\n" + axisUsage(false) + "\noutput:\n" +
        usageLine("--json", "emit one JSON object instead of text") +
        usageLine("--time-engine",
                  "print the engine-loop wall time to stderr "
                  "(engine_wall_seconds X); the stdout report stays "
                  "byte-identical") +
        usageLine("--list-datasets", "list the named datasets and exit") +
        usageLine("--list-kernels", "list the registered kernels and exit") +
        usageLine("--help", "this text") +
        "\n"
        "examples:\n"
        "  dalorex --kernel pagerank --width 8 --height 8"
        " --topology torus --json\n"
        "  dalorex --kernel sssp --dataset amazon --width 16"
        " --height 16 --validate\n";
}

std::string
kernelListText()
{
    std::ostringstream out;
    out << "kernels (from the registry; names and aliases are "
           "case-insensitive):\n";
    for (const KernelInfo* kernel : allKernels()) {
        out << "  " << kernel->name;
        if (!kernel->aliases.empty()) {
            out << " (";
            for (std::size_t i = 0; i < kernel->aliases.size(); ++i)
                out << (i > 0 ? ", " : "") << kernel->aliases[i];
            out << ")";
        }
        out << "\n      " << kernel->summary << "\n      ";
        const KernelTraits& traits = kernel->traits;
        out << (traits.needsBarrier ? "epoch-synchronized"
                                    : "barrierless");
        if (traits.symmetrize)
            out << ", symmetrized graph";
        if (traits.needsWeights)
            out << ", edge values in [" << traits.weightMin << ", "
                << traits.weightMax << "]";
        if (traits.needsInputVector)
            out << ", input vector x";
        if (traits.needsRoot)
            out << ", root-seeded";
        out << (traits.hasFloatResult
                    ? "; float result (1e-3 rel tolerance)"
                    : "; exact integer result");
        if (kernel->defaults.usesDamping)
            out << "; damping " << kernel->defaults.damping;
        if (kernel->defaults.usesIterations)
            out << "; " << kernel->defaults.iterations
                << " epochs default";
        if (kernel->defaults.usesEpsilon)
            out << "; epsilon "
                << (kernel->defaults.epsilon > 0.0
                        ? std::to_string(kernel->defaults.epsilon)
                        : std::string("off"))
                << " (convergence stop)";
        if (!kernel->tags.empty()) {
            out << "\n      figure sets: ";
            for (std::size_t i = 0; i < kernel->tags.size(); ++i)
                out << (i > 0 ? ", " : "") << kernel->tags[i];
        }
        out << "\n";
    }
    return out.str();
}

std::string
datasetListText()
{
    std::ostringstream out;
    out << "datasets (deterministic in name and --seed):\n";
    for (const DatasetListing& ds : datasetCatalog()) {
        out << "  " << ds.name;
        if (!ds.aliases.empty())
            out << " (" << ds.aliases << ")";
        out << "\n      " << ds.note << "\n";
    }
    const DatasetCacheStats cache = datasetCacheStats();
    out << "dataset cache (this process): " << cache.builds
        << " builds, " << cache.hits << " hits\n";
    return out.str();
}

namespace
{

RunOutcome
failRun(RunOutcome outcome, const std::string& message)
{
    outcome.ok = false;
    outcome.error = message;
    return outcome;
}

/** Render `rows` of `s` as comma-separated `"key":value` members. */
template <typename S, std::size_t N>
void
putCounters(std::ostream& out, const S& s, const Counter<S> (&rows)[N])
{
    const char* sep = "";
    for (const Counter<S>& row : rows) {
        out << sep << '"' << row.key << "\":";
        if (row.field != nullptr)
            out << s.*row.field;
        else
            out << Table::num((s.*row.ratio)());
        sep = ",";
    }
}

} // namespace

RunOutcome
runScenario(const Options& options, RunControl control)
{
    RunOutcome outcome;
    Report& report = outcome.report;
    report.options = options;

    if (options.kernel == nullptr)
        return failRun(std::move(outcome), "scenario has no kernel");

    // All dataset construction flows through the process-wide
    // immutable cache: N sweep workers hitting the same (name, scale,
    // seed) share one generated or mmap-loaded graph, and any build
    // failure (unknown name, missing/corrupt graph file) fails this
    // row recoverably instead of killing the process.
    const std::string dataset_name =
        !options.dataset.empty()
            ? options.dataset
            : "rmat" + std::to_string(options.scale);
    if (!knownDataset(dataset_name))
        return failRun(std::move(outcome),
                       "unknown dataset: " + dataset_name +
                           " (try --list-datasets)");
    const CachedDataset cached = datasetCacheGet(
        dataset_name, options.datasetScale, options.seed);
    if (!cached.ok) {
        // A failed file: load is I/O and worth retrying (the cache
        // does not keep the failure); a failed generation is not.
        outcome.transient = cached.transient;
        return failRun(std::move(outcome), cached.error);
    }
    report.datasetName = !options.dataset.empty()
                             ? cached.dataset->name
                             : dataset_name;

    KernelSetup setup = makeKernelSetup(
        *options.kernel, cached.dataset->graph, options.seed);
    applyParamOverrides(setup, options.params);
    report.numVertices = setup.graph.numVertices;
    report.numEdges = setup.graph.numEdges;

    auto app = setup.makeApp();
    Machine machine(options.machine, setup.graph.numVertices,
                    setup.graph.numEdges);

    const auto engine_start = std::chrono::steady_clock::now();
    if (options.deadlineMs > 0)
        control.deadline =
            std::min(control.deadline,
                     deadlineAfter(engine_start, options.deadlineMs));
    report.stats = machine.run(*app, &control);
    report.engineWallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - engine_start)
            .count();

    // Derived quantities are computed even for an early-unwound run:
    // the partial report is the payload a timed-out serve request
    // answers with (status says how far it got). A run unwound before
    // its first cycle committed has no energy to model — leave the
    // breakdown zeroed rather than panic.
    if (report.stats.cycles > 0) {
        report.energy = dalorexEnergy(report.stats, options.machine);
        report.seconds = runSeconds(report.stats);
        report.bandwidthBytesPerSec =
            avgMemoryBandwidth(report.stats);
    }

    outcome.status = report.stats.status;
    if (outcome.status != RunStatus::completed) {
        outcome.ok = false;
        outcome.transient = outcome.status == RunStatus::timeout;
        outcome.error = std::string(toString(outcome.status)) + ": " +
                        report.stats.statusDetail;
        return outcome;
    }

    if (options.validate) {
        const ValidationResult valid =
            validateRun(setup, *app, machine);
        if (!valid)
            return failRun(std::move(outcome),
                           options.kernel->name + " on " +
                               report.datasetName + ": " +
                               valid.detail);
        report.validated = true;
    }
    return outcome;
}

std::string
renderJson(const Report& report)
{
    const Options& o = report.options;
    const RunStats& s = report.stats;
    std::ostringstream out;
    out << "{";
    out << "\"kernel\":\"" << o.kernel->name << "\",";
    out << "\"dataset\":{"
        << "\"name\":" << serve::jsonQuote(report.datasetName) << ","
        << "\"vertices\":" << report.numVertices << ","
        << "\"edges\":" << report.numEdges << ","
        << "\"seed\":" << o.seed << "},";
    out << "\"machine\":{"
        << "\"width\":" << o.machine.width << ","
        << "\"height\":" << o.machine.height << ","
        << "\"tiles\":" << o.machine.numTiles() << ","
        << "\"topology\":\"" << toString(o.machine.topology) << "\","
        << "\"ruche_factor\":" << o.machine.rucheFactor << ","
        << "\"policy\":\"" << toString(o.machine.policy) << "\","
        << "\"distribution\":\"" << toString(o.machine.distribution)
        << "\","
        << "\"barrier\":" << (o.machine.barrier ? "true" : "false")
        << ","
        << "\"invoke_overhead\":" << o.machine.invokeOverhead << "},";
    out << "\"stats\":{";
    putCounters(out, s, runCounters);
    out << ",\"noc\":{";
    putCounters(out, s.noc, nocCounters);
    out << "}},";
    out << "\"energy\":{"
        << "\"logic_j\":" << Table::num(report.energy.logicJ) << ","
        << "\"memory_j\":" << Table::num(report.energy.memoryJ) << ","
        << "\"network_j\":" << Table::num(report.energy.networkJ)
        << ","
        << "\"total_j\":" << Table::num(report.energy.totalJ()) << ","
        << "\"logic_pct\":" << Table::num(report.energy.logicPct())
        << ","
        << "\"memory_pct\":" << Table::num(report.energy.memoryPct())
        << ","
        << "\"network_pct\":" << Table::num(report.energy.networkPct())
        << "},";
    out << "\"seconds\":" << Table::num(report.seconds) << ",";
    out << "\"memory_bandwidth_bytes_per_sec\":"
        << Table::num(report.bandwidthBytesPerSec) << ",";
    out << "\"status\":\"" << toString(s.status) << "\",";
    out << "\"validated\":" << (report.validated ? "true" : "false")
        << ",";
    // How the simulator ran, not what it simulated: the engine thread
    // count and the engine's own work. Last, so withoutExecution()
    // cuts it off and every identity check compares the rest of the
    // report as is.
    out << "\"execution\":{"
        << "\"engine_threads\":" << std::max(1u, o.machine.engineThreads)
        << ",";
    putCounters(out, s, executionCounters);
    out << "}}\n";
    return out.str();
}

std::string
withoutExecution(const std::string& json)
{
    const std::size_t at = json.rfind(",\"execution\":{");
    if (at == std::string::npos)
        return json;
    return json.substr(0, at) + "}\n";
}

std::string
renderText(const Report& report)
{
    const Options& o = report.options;
    const RunStats& s = report.stats;
    std::ostringstream out;
    out << "kernel            " << o.kernel->display << " on "
        << report.datasetName << " (V=" << report.numVertices
        << ", E=" << report.numEdges << ", seed=" << o.seed << ")\n";
    out << "machine           " << o.machine.width << "x"
        << o.machine.height << " " << toString(o.machine.topology)
        << ", " << toString(o.machine.policy) << ", "
        << toString(o.machine.distribution)
        << (o.machine.barrier ? ", barrier" : "") << "\n";
    out << "cycles            " << s.cycles << " (" << s.epochs
        << " epoch" << (s.epochs == 1 ? "" : "s") << ", "
        << Table::num(report.seconds * 1e3) << " ms at 1 GHz)\n";
    out << "invocations       " << s.invocations << "\n";
    out << "edges processed   " << s.edgesProcessed << "\n";
    out << "PU utilization    "
        << Table::num(100.0 * s.utilization()) << " %\n";
    out << "mem accesses      " << s.memAccesses() << " words ("
        << Table::num(report.bandwidthBytesPerSec / 1e9) << " GB/s)\n";
    out << "NoC               " << s.noc.messagesDelivered
        << " msgs, " << s.noc.flitHops << " flit-hops, "
        << s.noc.deliveryStalls << " stalls\n";
    out << "engine            " << s.engineSteppedCycles << " of "
        << s.cycles
        << " cycles stepped, tile occupancy "
        << Table::num(100.0 * s.tileScanOccupancy())
        << " %, router occupancy "
        << Table::num(100.0 * s.routerScanOccupancy()) << " %\n";
    out << "energy            "
        << Table::num(report.energy.totalJ() * 1e3) << " mJ (logic "
        << Table::num(report.energy.logicPct()) << " %, memory "
        << Table::num(report.energy.memoryPct()) << " %, network "
        << Table::num(report.energy.networkPct()) << " %)\n";
    if (s.status != RunStatus::completed)
        out << "status            " << toString(s.status) << " ("
            << s.statusDetail << "); stats above are partial\n";
    if (report.validated)
        out << "validated         output matches the sequential"
               " reference\n";
    return out.str();
}

int
cliMain(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err)
{
    const ParseResult parsed = parseArgs(argc, argv);
    if (!parsed.ok) {
        err << "dalorex: " << parsed.error << "\n";
        return 2;
    }
    if (!parsed.note.empty())
        err << "dalorex: " << parsed.note << "\n";
    if (parsed.options.help) {
        out << usageText();
        return 0;
    }
    if (parsed.options.listDatasets) {
        out << datasetListText();
        return 0;
    }
    if (parsed.options.listKernels) {
        out << kernelListText();
        return 0;
    }
    const RunOutcome outcome = runScenario(parsed.options);
    if (!outcome.ok && outcome.status == RunStatus::completed) {
        err << "dalorex: " << outcome.error << "\n";
        return 2;
    }
    if (parsed.options.timeEngine)
        err << "engine_wall_seconds "
            << outcome.report.engineWallSeconds << "\n";
    out << (parsed.options.json ? renderJson(outcome.report)
                                : renderText(outcome.report));
    if (outcome.status != RunStatus::completed) {
        // Timeout / cancel / deadlock: the partial report above says
        // how far the run got; a distinct exit code says it's partial.
        err << "dalorex: " << outcome.error << "\n";
        return 3;
    }
    return 0;
}

} // namespace cli
} // namespace dalorex

#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <unistd.h>

#include "baseline/tesseract.hh"
#include "cli/scenario.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "graph/datasets.hh"
#include "sweep/sweep.hh"

namespace dalorex
{
namespace bench
{

BenchOptions
BenchOptions::parse(int argc, char** argv)
{
    BenchOptions opts;
    opts.program = std::filesystem::path(argv[0]).filename();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--full") {
            opts.full = true;
        } else if (arg == "--quick") {
            opts.full = false;
        } else if ((arg == "--csv" || arg == "--seed") && i + 1 >= argc) {
            opts.fail(arg + " needs a value", 2);
        } else if (arg == "--csv") {
            opts.csvDir = argv[++i];
            // Checked now, so a bad directory fails before any cell runs.
            std::error_code ec;
            if (!std::filesystem::is_directory(opts.csvDir, ec) ||
                ::access(opts.csvDir.c_str(), W_OK) != 0)
                opts.fail("--csv needs a writable directory, got " +
                              opts.csvDir,
                          2);
        } else if (arg == "--seed") {
            const std::string text = argv[++i];
            if (!cli::parseU64(text, opts.seed))
                opts.fail("--seed must be a non-negative integer, got " +
                              text,
                          2);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "options:\n"
                "  --quick      small stand-ins (default)\n"
                "  --full       paper-scale stand-ins (slower)\n"
                "  --csv DIR    also write each table as CSV\n"
                "  --seed N     dataset seed (default 1)\n");
            std::exit(0);
        } else {
            opts.fail("unknown option: " + arg + " (try --help)", 2);
        }
    }
    return opts;
}

void
BenchOptions::writeCsv(const Table& table, const std::string& name) const
{
    if (!csvDir.empty())
        table.writeCsv(csvDir + "/" + name + ".csv");
}

void
BenchOptions::fail(const std::string& message, int code) const
{
    std::fprintf(stderr, "%s: %s\n", program.c_str(), message.c_str());
    std::exit(code);
}

const char*
toString(AblationStep step)
{
    switch (step) {
      case AblationStep::tesseract:
        return "Tesseract";
      case AblationStep::tesseractLc:
        return "Tesseract-LC";
      case AblationStep::dataLocal:
        return "Data-Local";
      case AblationStep::basicTsu:
        return "Basic-TSU";
      case AblationStep::uniformDistr:
        return "Uniform-Distr";
      case AblationStep::trafficAware:
        return "Traffic-Aware";
      case AblationStep::torusNoc:
        return "Torus-NoC";
      case AblationStep::dalorexFull:
        return "Dalorex";
    }
    return "?";
}

cli::Options
ablationCell(const BenchOptions& opts, AblationStep step)
{
    cli::Options cell;
    cell.seed = opts.seed;
    MachineConfig& config = cell.machine;
    config.width = 16;
    config.height = 16;
    // The figures' per-tile scratchpad, 4.2MB (Sec. IV-B: "a 16x16
    // Dalorex grid with 4.2MB of memory per tile"); bench/figures/
    // spells it --scratchpad-bytes 4404019.
    config.scratchpadProvisionBytes =
        static_cast<std::uint64_t>(4.2 * 1024 * 1024);

    // Start from the Data-Local point: array chunking and task
    // splitting on the Dalorex fabric, but Tesseract's program flow —
    // interrupting invocations, blocked (high-order) placement,
    // round-robin arbitration, mesh NoC, per-epoch barriers.
    config.distribution = Distribution::highOrder;
    config.policy = SchedPolicy::roundRobin;
    config.topology = NocTopology::mesh;
    config.barrier = true;
    config.invokeOverhead = 50;

    switch (step) {
      case AblationStep::dataLocal:
        break;
      case AblationStep::basicTsu:
        config.invokeOverhead = 0;
        break;
      case AblationStep::uniformDistr:
        config.invokeOverhead = 0;
        config.distribution = Distribution::lowOrder;
        break;
      case AblationStep::trafficAware:
        config.invokeOverhead = 0;
        config.distribution = Distribution::lowOrder;
        config.policy = SchedPolicy::trafficAware;
        break;
      case AblationStep::torusNoc:
        config.invokeOverhead = 0;
        config.distribution = Distribution::lowOrder;
        config.policy = SchedPolicy::trafficAware;
        config.topology = NocTopology::torus;
        break;
      case AblationStep::dalorexFull:
        config.invokeOverhead = 0;
        config.distribution = Distribution::lowOrder;
        config.policy = SchedPolicy::trafficAware;
        config.topology = NocTopology::torus;
        config.barrier = false;
        break;
      default:
        panic("not a Dalorex ablation step: ", toString(step));
    }
    return cell;
}

std::vector<cli::Report>
runCells(const BenchOptions& opts, std::vector<cli::Options> cells)
{
    sweep::ExpandResult batch;
    for (cli::Options& cell : cells) {
        cell.validate = true;
        const cli::ScenarioCheck check = cli::finishScenario(cell);
        if (!check.ok)
            opts.fail(check.error);
        batch.points.push_back(std::move(cell));
    }
    const unsigned threads = defaultWorkerThreads();
    std::fprintf(stderr, "[%s] %zu cells on %u worker threads\n",
                 opts.program.c_str(), batch.points.size(), threads);
    const sweep::RunResult result = sweep::run(batch, threads);
    const std::vector<std::string> errors = result.rowErrors();
    if (!errors.empty())
        opts.fail(errors.front());
    return result.okReports();
}

RunCost
runTesseractBaseline(const BenchOptions& opts, const KernelSetup& setup,
                     bool large_cache)
{
    baseline::TesseractConfig config;
    config.largeCache = large_cache;
    const baseline::TesseractResult result =
        baseline::runTesseract(setup, config);
    const ValidationResult valid =
        setup.floatResult() ? validateFloats(setup, result.floatValues)
                            : validateWords(setup, result.values);
    if (!valid)
        opts.fail("Tesseract " + setup.kernel->name + ": " +
                  valid.detail);
    return {static_cast<double>(result.cycles) / TechParams{}.freqHz,
            result.energyJ(config)};
}

std::vector<FigDataset>
figDatasets(const BenchOptions& opts)
{
    auto stand_in = [&opts](const char* label, const char* name) {
        return FigDataset{
            label, {name, opts.full ? 18u : defaultQuickScale(name)}};
    };
    // R22s: a scaled stand-in for the paper's RMAT-22.
    return {stand_in("AZ", "amazon"), stand_in("WK", "wiki"),
            stand_in("LJ", "livejournal"),
            {"R22s", {opts.full ? "rmat18" : "rmat13", 0}}};
}

} // namespace bench
} // namespace dalorex

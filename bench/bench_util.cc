#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "apps/graph_app.hh"
#include "cli/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace dalorex
{
namespace bench
{

BenchOptions
BenchOptions::parse(int argc, char** argv)
{
    const std::string program = std::filesystem::path(argv[0]).filename();
    auto fail = [&program](const std::string& message) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(), message.c_str());
        std::exit(2);
    };
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--full") {
            opts.full = true;
        } else if (arg == "--quick") {
            opts.full = false;
        } else if ((arg == "--csv" || arg == "--seed") && i + 1 >= argc) {
            fail(arg + " needs a value");
        } else if (arg == "--csv") {
            opts.csvDir = argv[++i];
        } else if (arg == "--seed") {
            const std::string text = argv[++i];
            if (!cli::parseU64(text, opts.seed))
                fail("--seed must be a non-negative integer, got " + text);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "options:\n"
                "  --quick      small stand-ins (default)\n"
                "  --full       paper-scale stand-ins (slower)\n"
                "  --csv DIR    also write each table as CSV\n"
                "  --seed N     dataset seed (default 1)\n");
            std::exit(0);
        } else {
            fail("unknown option: " + arg + " (try --help)");
        }
    }
    return opts;
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

std::vector<AblationStep>
dalorexSteps()
{
    return {AblationStep::dataLocal,    AblationStep::basicTsu,
            AblationStep::uniformDistr, AblationStep::trafficAware,
            AblationStep::torusNoc,     AblationStep::dalorexFull};
}

MachineConfig
ablationConfig(AblationStep step, std::uint32_t width,
               std::uint32_t height)
{
    MachineConfig config;
    config.width = width;
    config.height = height;
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
    return config;
}

DalorexRun
runDalorex(const KernelSetup& setup, const MachineConfig& config)
{
    auto app = setup.makeApp();
    Machine machine(config, setup.graph.numVertices,
                    setup.graph.numEdges);
    DalorexRun run;
    run.stats = machine.run(*app);
    const ValidationResult valid = validateRun(setup, *app, machine);
    fatal_if(!valid, valid.detail);
    run.energy = dalorexEnergy(run.stats, config);
    run.seconds = runSeconds(run.stats);
    run.joules = run.energy.totalJ();
    return run;
}

BaselineRun
runTesseractBaseline(const KernelSetup& setup, bool large_cache)
{
    baseline::TesseractConfig config;
    config.largeCache = large_cache;
    BaselineRun run;
    run.result = baseline::runTesseract(setup, config);
    const ValidationResult valid =
        setup.floatResult()
            ? validateFloats(setup, run.result.floatValues)
            : validateWords(setup, run.result.values);
    fatal_if(!valid, valid.detail);
    run.seconds =
        static_cast<double>(run.result.cycles) / TechParams{}.freqHz;
    run.joules = run.result.energyJ(config);
    return run;
}

std::vector<Dataset>
figDatasets(const BenchOptions& opts)
{
    std::vector<Dataset> datasets;
    if (opts.full) {
        datasets.push_back(makeDatasetAt("amazon", 18, opts.seed));
        datasets.push_back(makeDatasetAt("wiki", 18, opts.seed));
        datasets.push_back(makeDatasetAt("livejournal", 18,
                                         opts.seed));
        Dataset rmat = makeDataset("rmat18", opts.seed);
        rmat.name = "R22s"; // scaled stand-in for the paper's RMAT-22
        datasets.push_back(std::move(rmat));
    } else {
        for (const char* name : {"amazon", "wiki", "livejournal"})
            datasets.push_back(makeDatasetAt(
                name, defaultQuickScale(name), opts.seed));
        Dataset rmat = makeDataset("rmat13", opts.seed);
        rmat.name = "R22s";
        datasets.push_back(std::move(rmat));
    }
    return datasets;
}

} // namespace bench
} // namespace dalorex

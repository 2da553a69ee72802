/**
 * @file
 * Fig. 5 reproduction: performance and energy improvements over
 * Tesseract for the eight-step ablation ladder, four applications
 * (BFS, WCC, PageRank, SSSP) and four datasets, all at 256 processing
 * cores (16x16 Dalorex grid vs 16-cube HMC).
 *
 * Prints one improvement table per application for performance and for
 * energy (factors over the Tesseract baseline, the paper's Y-axis),
 * then the in-text geomean ladder summary (Sec. V-A: Data-Local 6.2x,
 * TSU 4.7x, Uniform-Distr 2.6x, Traffic-Aware 1.7x, NoC+barrierless
 * 1.8x -> 221x; energy 16x / 5.2x / 3.9x -> 325x).
 */

#include <cstdio>
#include <map>
#include <memory>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "graph/dataset_cache.hh"

using namespace dalorex;
using namespace dalorex::bench;

namespace
{

/** results[step][dataset] for one kernel. */
using Ladder = std::map<AblationStep, std::vector<RunCost>>;

/** The ladder, left to right. */
constexpr AblationStep ladderSteps[] = {
    AblationStep::tesseract,    AblationStep::tesseractLc,
    AblationStep::dataLocal,    AblationStep::basicTsu,
    AblationStep::uniformDistr, AblationStep::trafficAware,
    AblationStep::torusNoc,     AblationStep::dalorexFull};

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    const std::vector<FigDataset> datasets = figDatasets(opts);
    // The paper's Fig. 5 kernels lead; the "fig5-extra" kernels
    // (k-core, histogram — no Tesseract model exists for them)
    // follow with an explicit Dalorex-only ladder — normalized to
    // the Data-Local step — instead of being silently dropped from
    // the comparison.
    std::vector<const KernelInfo*> kernels = fig5Kernels();
    for (const KernelInfo* kernel :
         KernelRegistry::instance().tagged("fig5-extra")) {
        kernels.push_back(kernel);
    }
    // PageRank epochs (bench budget), on both machines.
    const std::vector<ParamOverride> params = {{"iterations", 5}};

    std::printf("Fig. 5: improvement over Tesseract, 256 cores "
                "(%s scale)\n"
                "Kernels without a Tesseract model are reported "
                "Dalorex-only,\nnormalized to the Data-Local step.\n\n",
                opts.full ? "full" : "quick");
    // The Tesseract baseline's graphs; the Dalorex cells share them
    // through the same cache.
    std::vector<std::shared_ptr<const Dataset>> graphs;
    for (const FigDataset& ds : datasets) {
        const CachedDataset cached =
            datasetCacheGet(ds.spec.name, ds.spec.scale, opts.seed);
        if (!cached.ok)
            opts.fail(cached.error);
        std::printf("  %-5s %s (V=%u, E=%u)\n", ds.label.c_str(),
                    cached.dataset->provenance.c_str(),
                    cached.dataset->graph.numVertices,
                    cached.dataset->graph.numEdges);
        graphs.push_back(cached.dataset);
    }
    std::printf("\n");

    // Every Dalorex cell, kernel x dataset x step, in one batch.
    std::vector<cli::Options> cells;
    for (const KernelInfo* kernel : kernels) {
        for (const FigDataset& ds : datasets) {
            for (const AblationStep step : ladderSteps) {
                if (step < AblationStep::dataLocal)
                    continue; // Tesseract's steps
                cli::Options cell = ablationCell(opts, step);
                cell.kernel = kernel;
                cell.dataset = ds.spec.name;
                cell.datasetScale = ds.spec.scale;
                cell.params = params;
                cells.push_back(std::move(cell));
            }
        }
    }
    const std::vector<cli::Report> reports =
        runCells(opts, std::move(cells));
    auto report = reports.begin(); // the next cell's, in cell order

    // Geomean accumulators across (kernel, dataset) for the summary.
    std::map<AblationStep, std::vector<double>> perf_gains;
    std::map<AblationStep, std::vector<double>> energy_gains;

    for (const KernelInfo* kernel : kernels) {
        const bool has_tesseract =
            kernel->traits.tesseract != TesseractModel::none;
        Ladder ladder;
        for (const std::shared_ptr<const Dataset>& graph : graphs) {
            if (has_tesseract) {
                // HMC baseline and its large-cache variant.
                KernelSetup setup =
                    makeKernelSetup(*kernel, graph->graph, opts.seed);
                applyParamOverrides(setup, params);
                ladder[AblationStep::tesseract].push_back(
                    runTesseractBaseline(opts, setup, false));
                ladder[AblationStep::tesseractLc].push_back(
                    runTesseractBaseline(opts, setup, true));
            }
            // The six Dalorex-engine steps.
            for (const AblationStep step : ladderSteps) {
                if (step < AblationStep::dataLocal)
                    continue;
                ladder[step].push_back(
                    {report->seconds, report->energy.totalJ()});
                ++report;
            }
        }

        std::vector<std::string> headers = {"config"};
        for (const FigDataset& ds : datasets)
            headers.push_back(ds.label);
        Table perf(headers);
        Table energy(headers);
        // Dalorex-only kernels normalize to the ladder's first
        // Dalorex rung; the Tesseract rows render as "-".
        const auto& base = has_tesseract
                               ? ladder[AblationStep::tesseract]
                               : ladder[AblationStep::dataLocal];
        for (const AblationStep step : ladderSteps) {
            std::vector<std::string> prow = {toString(step)};
            std::vector<std::string> erow = {toString(step)};
            const bool have_row = ladder.count(step) > 0;
            for (std::size_t d = 0; d < datasets.size(); ++d) {
                if (!have_row) {
                    prow.push_back("-");
                    erow.push_back("-");
                    continue;
                }
                const double pgain =
                    base[d].seconds / ladder[step][d].seconds;
                const double egain =
                    base[d].joules / ladder[step][d].joules;
                prow.push_back(Table::fmt(pgain, 2));
                erow.push_back(Table::fmt(egain, 2));
                // The in-text geomean ladder compares against
                // Tesseract, so only its kernels feed the summary.
                if (has_tesseract) {
                    perf_gains[step].push_back(pgain);
                    energy_gains[step].push_back(egain);
                }
            }
            perf.addRow(std::move(prow));
            energy.addRow(std::move(erow));
        }

        const char* vs = has_tesseract
                             ? "improvement over Tesseract"
                             : "Dalorex-only: improvement over "
                               "Data-Local";
        std::printf("== %s: performance %s (higher is better) ==\n",
                    kernel->display.c_str(), vs);
        perf.print();
        opts.writeCsv(perf, "fig5_perf_" + kernel->name);
        std::printf("\n== %s: energy %s (higher is better) ==\n",
                    kernel->display.c_str(), vs);
        energy.print();
        opts.writeCsv(energy, "fig5_energy_" + kernel->name);
        std::printf("\n");
    }

    // In-text ladder summary: geomean step-over-step factors.
    Table summary({"step", "perf x (geomean)", "paper perf x",
                   "energy x (geomean)", "paper energy x"});
    struct StepRef
    {
        AblationStep from;
        AblationStep to;
        const char* paper_perf;
        const char* paper_energy;
    };
    const StepRef refs[] = {
        {AblationStep::tesseract, AblationStep::tesseractLc, "-",
         "16 (SRAM)"},
        {AblationStep::tesseract, AblationStep::dataLocal, "6.2", "-"},
        {AblationStep::dataLocal, AblationStep::basicTsu, "4.7",
         "3.9 (TSU)"},
        {AblationStep::basicTsu, AblationStep::uniformDistr, "2.6",
         "-"},
        {AblationStep::uniformDistr, AblationStep::trafficAware,
         "1.7", "-"},
        {AblationStep::trafficAware, AblationStep::torusNoc,
         "~1.4 (torus, Fig.8)", "-"},
        {AblationStep::torusNoc, AblationStep::dalorexFull,
         "~1.3 (barrierless)", "-"},
        {AblationStep::trafficAware, AblationStep::dalorexFull,
         "1.8 (NoC+barrierless)", "-"},
        {AblationStep::tesseract, AblationStep::dalorexFull, "221",
         "325"},
    };
    for (const StepRef& ref : refs) {
        std::vector<double> pf;
        std::vector<double> ef;
        for (std::size_t i = 0; i < perf_gains[ref.to].size(); ++i) {
            pf.push_back(perf_gains[ref.to][i] /
                         perf_gains[ref.from][i]);
            ef.push_back(energy_gains[ref.to][i] /
                         energy_gains[ref.from][i]);
        }
        summary.addRow({std::string(toString(ref.from)) + " -> " +
                            toString(ref.to),
                        Table::fmt(geomean(pf), 2), ref.paper_perf,
                        Table::fmt(geomean(ef), 2),
                        ref.paper_energy});
    }
    std::printf("== Sec. V-A in-text geomean ladder ==\n");
    summary.print();
    opts.writeCsv(summary, "fig5_summary");
    return 0;
}

/**
 * @file
 * TSU scheduling ablation (README "Modelling substitutions"):
 * round-robin vs the occupancy-based traffic-aware policy, and a
 * sweep of the policy's two thresholds (IQ-high, OQ-low). The paper
 * reports that the occupancy-based priority beat every static priority
 * and round-robin scheme it was tested against (Sec. III-E).
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"

using namespace dalorex;
using namespace dalorex::bench;

int
main(int argc, char** argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    const char* const kernels[] = {"bfs", "sssp", "wcc"};
    const double iq_highs[] = {0.5, 0.75, 0.9};
    const double oq_lows[] = {0.125, 0.25, 0.5};

    // Cells 0-8: the SSSP threshold grid, row-major. Then each
    // kernel's round-robin and traffic-aware cells at the paper's
    // defaults (0.75, 0.25); SSSP's traffic-aware one is the grid's.
    std::vector<cli::Options> cells;
    auto add = [&](const char* kernel, SchedPolicy policy,
                   double iq_high, double oq_low) {
        cli::Options cell = ablationCell(opts);
        cell.kernel = kernelOrDie(kernel);
        cell.dataset = "wiki";
        cell.datasetScale = opts.full ? 17 : 15;
        cell.machine.policy = policy;
        cell.machine.thresholds = {iq_high, oq_low};
        cells.push_back(std::move(cell));
        return cells.size() - 1;
    };
    std::size_t sssp_defaults = 0;
    for (const double iq_high : iq_highs) {
        for (const double oq_low : oq_lows) {
            const std::size_t cell =
                add("sssp", SchedPolicy::trafficAware, iq_high, oq_low);
            if (iq_high == 0.75 && oq_low == 0.25)
                sssp_defaults = cell;
        }
    }
    std::vector<std::pair<std::size_t, std::size_t>> policy_cells;
    for (const char* kernel : kernels) {
        const std::size_t rr =
            add(kernel, SchedPolicy::roundRobin, 0.75, 0.25);
        policy_cells.emplace_back(
            rr, std::string(kernel) == "sssp"
                    ? sssp_defaults
                    : add(kernel, SchedPolicy::trafficAware, 0.75, 0.25));
    }
    const std::vector<cli::Report> reports =
        runCells(opts, std::move(cells));

    const cli::Report& first = reports.front();
    std::printf("TSU scheduling ablation on %s (V=%u, E=%u), 16x16\n\n",
                first.datasetName.c_str(), first.numVertices,
                first.numEdges);

    Table table({"kernel", "round-robin cyc", "traffic-aware cyc",
                 "speedup"});
    for (const auto& [rr_cell, ta_cell] : policy_cells) {
        const cli::Report& rr = reports[rr_cell];
        const Cycle ta = reports[ta_cell].stats.cycles;
        table.addRow({rr.options.kernel->display,
                      std::to_string(rr.stats.cycles),
                      std::to_string(ta),
                      Table::fmt(double(rr.stats.cycles) / double(ta),
                                 3)});
    }
    table.print();
    opts.writeCsv(table, "ablation_tsu_policy");

    std::printf("\nThreshold sweep (SSSP): cycles per "
                "(IQ-high, OQ-low) pair\n\n");
    Table threshold_table({"iqHigh\\oqLow", "0.125", "0.25", "0.5"});
    for (std::size_t row = 0; row < 3; ++row) {
        std::vector<std::string> cols = {Table::fmt(iq_highs[row], 2)};
        for (std::size_t col = 0; col < 3; ++col)
            cols.push_back(
                std::to_string(reports[row * 3 + col].stats.cycles));
        threshold_table.addRow(std::move(cols));
    }
    threshold_table.print();
    opts.writeCsv(threshold_table, "ablation_tsu_thresholds");
    std::printf("\nThe paper's defaults are iqHigh=0.75, oqLow=0.25 "
                "(nearly full / nearly empty).\n");
    return 0;
}

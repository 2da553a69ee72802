/**
 * @file
 * Fig. 10 reproduction: heatmaps of PU and router utilization (as a
 * percentage of runtime) while running SSSP on the RMAT-22 stand-in
 * over a 16x16 grid, with a mesh versus a torus NoC.
 *
 * Expected shapes (Sec. V-C): the mesh shows router contention toward
 * the center of the grid, starving the PUs; the torus is uniform,
 * "unleashing the full potential of the PUs".
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace dalorex;
using namespace dalorex::bench;

namespace
{

/** Render one utilization grid as an ASCII heatmap + CSV table. */
void
printHeatmap(const BenchOptions& opts, const char* title,
             const std::string& csv_name,
             const std::vector<Cycle>& per_tile, Cycle total,
             std::uint32_t width, std::uint32_t height)
{
    std::printf("%s\n", title);
    const char shades[] = " .:-=+*#%@";
    Table csv([&] {
        std::vector<std::string> headers = {"y\\x"};
        for (std::uint32_t x = 0; x < width; ++x)
            headers.push_back(std::to_string(x));
        return headers;
    }());
    double sum = 0.0;
    double peak = 0.0;
    for (std::uint32_t y = 0; y < height; ++y) {
        std::vector<std::string> row = {std::to_string(y)};
        std::printf("  ");
        for (std::uint32_t x = 0; x < width; ++x) {
            const double pct =
                100.0 *
                static_cast<double>(per_tile[y * width + x]) /
                static_cast<double>(total);
            sum += pct;
            peak = std::max(peak, pct);
            const int shade = std::min<int>(
                9, static_cast<int>(pct / 10.0));
            std::printf("%c%c", shades[shade], shades[shade]);
            row.push_back(Table::fmt(pct, 1));
        }
        std::printf("\n");
        csv.addRow(std::move(row));
    }
    std::printf("  mean %.1f%%, peak %.1f%% "
                "(scale: ' '=0-10%% ... '@'=90-100%%)\n\n",
                sum / (width * height), peak);
    opts.writeCsv(csv, csv_name);
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);

    const std::uint32_t side = 16;
    std::vector<cli::Options> cells;
    for (const NocTopology topology :
         {NocTopology::mesh, NocTopology::torus}) {
        cli::Options cell = ablationCell(opts);
        cell.kernel = kernelOrDie("sssp");
        cell.dataset = opts.full ? "rmat18" : "rmat16";
        cell.machine.topology = topology;
        cells.push_back(std::move(cell));
    }
    const std::vector<cli::Report> reports =
        runCells(opts, std::move(cells));

    std::printf("Fig. 10: PU and router utilization heatmaps, SSSP "
                "on %s (R22 stand-in), %ux%u\n\n",
                reports.front().datasetName.c_str(), side, side);

    for (const cli::Report& run : reports) {
        const std::string tag = toString(run.options.machine.topology);
        std::printf("== %s: %llu cycles ==\n", tag.c_str(),
                    static_cast<unsigned long long>(run.stats.cycles));
        printHeatmap(opts, "PU utilization (% of runtime)",
                     "fig10_pu_" + tag, run.stats.puBusyPerTile,
                     run.stats.cycles, side, side);
        printHeatmap(opts, "Router utilization (% of runtime)",
                     "fig10_router_" + tag,
                     run.stats.routerActivePerTile, run.stats.cycles,
                     side, side);
    }

    std::printf("Expected shape: mesh routers congest toward the "
                "center and PUs starve;\ntorus utilization is "
                "uniform.\n");
    return 0;
}

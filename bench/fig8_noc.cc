/**
 * @file
 * Fig. 8 reproduction: performance improvement of the 2D torus and
 * torus+ruche NoCs over the 2D mesh, per application and dataset.
 *
 * Expected shapes (Sec. V-C): the torus is ~2x the mesh at 16x16
 * (uniform router utilization instead of center contention); ruche
 * channels only pay off on the large grid, where bisection bandwidth
 * is the constraint.
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

    // Paper: WK, LJ, R22 on 16x16; RMAT-26 on 64x64. The large-grid
    // entry scales to 32x32 (64x64 with --full).
    std::vector<FigDataset> datasets = figDatasets(opts);
    datasets.erase(datasets.begin()); // drop AZ (not in Fig. 8)
    datasets.push_back({"R26s", {opts.full ? "rmat17" : "rmat15", 0}});
    const std::uint32_t big_side = opts.full ? 64 : 32;
    const std::uint32_t small_side = 16;

    std::printf("Fig. 8: Torus and Torus-Ruche speedup over Mesh "
                "(%s scale)\n",
                opts.full ? "full" : "quick");
    std::printf("Datasets on %ux%u; %s on %ux%u\n\n", small_side,
                small_side, datasets.back().label.c_str(), big_side,
                big_side);

    // One table row per (kernel, dataset): its mesh, torus and
    // torus-ruche cells. The first three datasets run on the small
    // grid with ruche channels that hop 2 tiles, R26s on the large
    // grid hopping 4.
    const NocTopology topologies[] = {
        NocTopology::mesh, NocTopology::torus, NocTopology::torusRuche};
    std::vector<cli::Options> cells;
    std::vector<std::string> row_datasets; // each row's dataset label
    for (const KernelInfo* kernel : paperKernels()) {
        for (const FigDataset& ds : datasets) {
            const bool big = &ds == &datasets.back();
            row_datasets.push_back(ds.label);
            for (const NocTopology topology : topologies) {
                cli::Options cell = ablationCell(opts);
                cell.kernel = kernel;
                cell.dataset = ds.spec.name;
                cell.datasetScale = ds.spec.scale;
                cell.params = {{"iterations", 5}}; // PageRank budget
                cell.machine.width = cell.machine.height =
                    big ? big_side : small_side;
                cell.machine.topology = topology;
                cell.machine.rucheFactor = big ? 4 : 2;
                cells.push_back(std::move(cell));
            }
        }
    }
    const std::vector<cli::Report> reports =
        runCells(opts, std::move(cells));

    Table table({"kernel", "dataset", "tiles", "mesh cyc",
                 "torus x", "torus-ruche x"});
    for (std::size_t row = 0; row < row_datasets.size(); ++row) {
        const cli::Report& mesh = reports[row * 3];
        const double cycles[3] = {
            double(mesh.stats.cycles),
            double(reports[row * 3 + 1].stats.cycles),
            double(reports[row * 3 + 2].stats.cycles)};
        table.addRow({mesh.options.kernel->display, row_datasets[row],
                      std::to_string(mesh.options.machine.numTiles()),
                      Table::fmt(cycles[0], 0),
                      Table::fmt(cycles[0] / cycles[1], 2),
                      Table::fmt(cycles[0] / cycles[2], 2)});
    }

    table.print();
    opts.writeCsv(table, "fig8_noc");
    std::printf("\nExpected shape: torus ~2x mesh on 16x16; ruche "
                "only helps on the large grid.\n");
    return 0;
}

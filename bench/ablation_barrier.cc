/**
 * @file
 * Barrier ablation (Sec. III-C: "We characterize performance with and
 * without epoch synchronization"): barrierless vs epoch-synchronized
 * execution per kernel across dataset scales, reporting both cycles
 * and edges processed.
 *
 * This bench is also the evidence record for a shape deviation from
 * the paper: in our model the barrier costs little (exact idle
 * detection), while asynchronous label-correcting execution pays a
 * work-inefficiency tax from stale-label re-exploration. At --quick
 * (64 and 256 vertices per tile, seed 1) that tax grows with
 * vertices per tile — the BFS work ratio goes from 1.76 to 2.39 —
 * and the async speedup falls with it, from 1.19, 1.22 and 0.98 to
 * 0.73, 0.60 and 0.78 for BFS, SSSP and WCC. The paper finds WCC
 * benefits the most from barrierless processing; whether it wins at
 * larger tiles (--full adds 1K vertices per tile) is not settled
 * here.
 */

#include <cstdio>
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

    std::vector<unsigned> scales = {14, 16};
    if (opts.full)
        scales.push_back(18);
    // One table row per (kernel, scale): its synchronized cell, then
    // its barrierless one.
    std::vector<cli::Options> cells;
    for (const char* kernel : {"bfs", "sssp", "wcc"}) {
        for (const unsigned scale : scales) {
            for (const bool barrier : {true, false}) {
                cli::Options cell = ablationCell(opts);
                cell.kernel = kernelOrDie(kernel);
                cell.dataset = "amazon";
                cell.datasetScale = scale;
                cell.machine.barrier = barrier;
                cells.push_back(std::move(cell));
            }
        }
    }
    const std::vector<cli::Report> reports =
        runCells(opts, std::move(cells));

    std::printf("Barrierless vs epoch-synchronized execution, "
                "16x16 grid\n\n");

    Table table({"kernel", "scale", "verts/tile", "sync cyc",
                 "async cyc", "async speedup", "sync edges",
                 "async edges", "work ratio"});
    for (std::size_t i = 0; i < reports.size(); i += 2) {
        const cli::Report& sync = reports[i];
        const cli::Report& async = reports[i + 1];
        table.addRow(
            {sync.options.kernel->display,
             std::to_string(sync.options.datasetScale),
             std::to_string(sync.numVertices / 256),
             std::to_string(sync.stats.cycles),
             std::to_string(async.stats.cycles),
             Table::fmt(double(sync.stats.cycles) /
                            double(async.stats.cycles),
                        3),
             std::to_string(sync.stats.edgesProcessed),
             std::to_string(async.stats.edgesProcessed),
             Table::fmt(double(async.stats.edgesProcessed) /
                            double(sync.stats.edgesProcessed),
                        3)});
    }

    table.print();
    opts.writeCsv(table, "ablation_barrier");
    std::printf(
        "\nasync speedup > 1: barrier removal wins. The work ratio\n"
        "(async/sync edges) is the staleness tax of asynchronous\n"
        "label-correcting execution; in this model it grows with\n"
        "vertices/tile, and the async speedup falls as it does.\n");
    return 0;
}

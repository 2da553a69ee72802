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

    std::printf("Barrierless vs epoch-synchronized execution, "
                "16x16 grid\n\n");

    Table table({"kernel", "scale", "verts/tile", "sync cyc",
                 "async cyc", "async speedup", "sync edges",
                 "async edges", "work ratio"});

    for (const char* kernel_name : {"bfs", "sssp", "wcc"}) {
        const KernelInfo* kernel = kernelOrDie(kernel_name);
        for (const unsigned scale : scales) {
            const Dataset ds = makeDatasetAt("amazon", scale,
                                             opts.seed);
            const KernelSetup setup =
                makeKernelSetup(*kernel, ds.graph, opts.seed);

            MachineConfig sync_config =
                ablationConfig(AblationStep::dalorexFull, 16, 16);
            sync_config.barrier = true;
            const DalorexRun sync = runDalorex(setup, sync_config);

            const MachineConfig async_config =
                ablationConfig(AblationStep::dalorexFull, 16, 16);
            const DalorexRun async = runDalorex(setup, async_config);

            table.addRow(
                {kernel->display, std::to_string(scale),
                 std::to_string(ds.graph.numVertices / 256),
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
    }

    table.print();
    sweep::writeCsvIfEnabled(opts.csvDir, table, "ablation_barrier");
    std::printf(
        "\nasync speedup > 1: barrier removal wins. The work ratio\n"
        "(async/sync edges) is the staleness tax of asynchronous\n"
        "label-correcting execution; in this model it grows with\n"
        "vertices/tile, and the async speedup falls as it does.\n");
    return 0;
}

/**
 * @file
 * Fig. 7 reproduction: throughput (edges/s and operations/s) and
 * average utilized memory bandwidth while strong-scaling the largest
 * RMAT dataset across grid sizes, for all five kernels.
 *
 * A thin wrapper over the sweep orchestrator: one Plan covering all
 * kernels on the torus grids (plus a ruche Plan for the 64x64 point
 * under --full), aggregated against the 16x16 baseline.
 *
 * Expected shape (Sec. V-B): both throughput and memory bandwidth keep
 * growing to the largest simulated grid — memory bandwidth scales with
 * the tile count (one more tile = one more memory port) and never
 * saturates, unlike DRAM-based designs.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "sweep/sweep.hh"

using namespace dalorex;
using namespace dalorex::bench;

int
main(int argc, char** argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);

    // Stand-in for the paper's RMAT-26 (67M vertices).
    const std::string name = opts.full ? "rmat18" : "rmat15";

    std::printf("Fig. 7: throughput scaling, %s, %s scale\n\n",
                name.c_str(), opts.full ? "full" : "quick");

    sweep::Plan plan;
    plan.kernels = paperKernels(); // the paper's five (tag-selected)
    plan.datasets = {{name, 0}};
    plan.grids = {{16, 16}, {32, 32}};
    plan.base.seed = opts.seed;
    plan.base.validate = true; // as the old loop: every run checked
    plan.base.params.push_back({"iterations", 5}); // bench budget
    plan.base.machine.scratchpadProvisionBytes = figProvisionBytes();

    std::vector<cli::Report> reports;
    {
        const sweep::RunResult run =
            sweep::run(sweep::expand(plan), opts.workerThreads());
        fatal_if(!run.ok, "fig7 sweep: ", run.error);
        fatal_if(!run.allRowsOk(), "fig7 sweep: ",
                 run.rowErrors().front());
        reports = run.okReports();
    }
    if (opts.full) {
        // The paper adds ruche channels above 32x32 (Sec. IV-A).
        sweep::Plan ruche = plan;
        ruche.grids = {{64, 64}};
        ruche.topologies = {NocTopology::torusRuche};
        ruche.base.machine.rucheFactor = 4;
        const sweep::RunResult run =
            sweep::run(sweep::expand(ruche), opts.workerThreads());
        fatal_if(!run.ok, "fig7 sweep: ", run.error);
        fatal_if(!run.allRowsOk(), "fig7 sweep: ",
                 run.rowErrors().front());
        const std::vector<cli::Report> ok = run.okReports();
        reports.insert(reports.end(), ok.begin(), ok.end());
    }

    const sweep::AggregateResult agg = sweep::aggregate(
        reports, {16, 16}, sweep::MissingBaseline::skip);
    fatal_if(!agg.ok, "fig7 aggregate: ", agg.error);
    const Table table = sweep::toTable(agg.rows);
    table.print();
    sweep::writeCsvIfEnabled(opts.csvDir, table, "fig7_throughput");
    std::printf("\nExpected shape: edges/s, ops/s and memory "
                "bandwidth all grow with the grid\n(no saturation: "
                "memory ports scale with tiles).\n");
    return 0;
}

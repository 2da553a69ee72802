/**
 * @file
 * Fig. 9 reproduction: breakdown of the energy consumed by computing
 * logic, SRAM cells and network communication (routing + wires), per
 * application and dataset, as a percentage of the total.
 *
 * A thin wrapper over the sweep orchestrator: all kernels over the
 * WK/LJ/R22 stand-ins at 16x16 plus the large-grid RMAT point, with
 * the logic/memory/network percentage columns of the shared aggregate
 * schema.
 *
 * Expected shapes (Sec. V-C): the network dominates — Dalorex pairs
 * energy-efficient memories and very simple PUs with a NoC whose share
 * grows with grid size (longer average distance per vertex update on
 * the large grid).
 */

#include <cstdio>
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

    std::printf("Fig. 9: energy breakdown (%% of total), %s scale\n\n",
                opts.full ? "full" : "quick");

    // Fig. 9 uses WK, LJ, R22 (no AZ) on 16x16...
    sweep::Plan plan;
    plan.kernels = paperKernels(); // the paper's five (tag-selected)
    plan.datasets = {{"wiki", opts.full ? 0 : defaultQuickScale("wiki")},
                     {"livejournal",
                      opts.full ? 0 : defaultQuickScale("livejournal")},
                     {opts.full ? "rmat18" : "rmat13", 0}};
    plan.grids = {{16, 16}};
    plan.base.seed = opts.seed;
    plan.base.validate = true; // as the old loop: every run checked
    plan.base.params.push_back({"iterations", 5}); // bench budget
    plan.base.machine.scratchpadProvisionBytes = figProvisionBytes();

    // ...plus the large-grid RMAT-26 stand-in (ruche above 32x32).
    sweep::Plan big = plan;
    big.datasets = {{opts.full ? "rmat17" : "rmat15", 0}};
    big.grids = {opts.full ? sweep::GridShape{64, 64}
                           : sweep::GridShape{32, 32}};
    if (opts.full) {
        big.topologies = {NocTopology::torusRuche};
        big.base.machine.rucheFactor = 4;
    }

    std::vector<cli::Report> reports;
    for (const sweep::Plan* p : {&plan, &big}) {
        const sweep::RunResult run =
            sweep::run(sweep::expand(*p), opts.workerThreads());
        fatal_if(!run.ok, "fig9 sweep: ", run.error);
        fatal_if(!run.allRowsOk(), "fig9 sweep: ",
                 run.rowErrors().front());
        const std::vector<cli::Report> ok = run.okReports();
        reports.insert(reports.end(), ok.begin(), ok.end());
    }

    // Every group is its own baseline grid; no cross-grid speedup.
    const sweep::AggregateResult agg = sweep::aggregate(
        reports, {16, 16}, sweep::MissingBaseline::skip);
    fatal_if(!agg.ok, "fig9 aggregate: ", agg.error);
    const Table table = sweep::toTable(agg.rows);
    table.print();
    sweep::writeCsvIfEnabled(opts.csvDir, table,
                             "fig9_energy_breakdown");
    std::printf("\nExpected shape: network is the largest share and "
                "grows with grid size.\n");
    return 0;
}

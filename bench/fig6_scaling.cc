/**
 * @file
 * Fig. 6 reproduction: strong scaling of BFS over RMAT datasets —
 * runtime (cycles) and total energy (J) for grids from 1 tile up to
 * 32x32 (64x64 with --full), with the per-tile memory the paper
 * prints next to each energy point.
 *
 * A thin wrapper over the sweep orchestrator: one Plan per dataset
 * (its grid axis stops where tiles starve), executed on the worker
 * pool and rendered through the shared aggregate schema — speedup and
 * parallel efficiency are measured against the 1-tile baseline.
 *
 * Expected shapes (Sec. V-B): runtime scales close to linearly until a
 * tile holds ~1,000 vertices ("tiles starving for work", not memory
 * bandwidth); energy reaches its minimum around ~10,000 vertices per
 * tile and rises past it as PU/SRAM leakage of underutilized tiles
 * accumulates.
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

    // Stand-ins for the paper's RMAT-16/22/25/26 ladder.
    const std::vector<std::string> names =
        opts.full
            ? std::vector<std::string>{"rmat12", "rmat14", "rmat16",
                                       "rmat18"}
            : std::vector<std::string>{"rmat10", "rmat12", "rmat14",
                                       "rmat16"};
    std::vector<std::uint32_t> grid_sides = {1, 2, 4, 8, 16, 32};
    if (opts.full)
        grid_sides.push_back(64);

    std::printf("Fig. 6: strong scaling of BFS on RMAT datasets "
                "(%s scale)\n\n",
                opts.full ? "full" : "quick");

    std::vector<cli::Report> reports;
    for (const std::string& name : names) {
        const unsigned scale =
            static_cast<unsigned>(std::stoul(name.substr(4)));
        const std::uint32_t vertices = 1u << scale;

        sweep::Plan plan;
        plan.kernels = {kernelOrDie("bfs")};
        plan.datasets = {{name, 0}};
        plan.base.seed = opts.seed;
        plan.base.validate = true; // as the old loop: every run checked
        plan.base.machine.scratchpadProvisionBytes = figProvisionBytes();
        // The paper uses a regular torus up to 32x32 and adds ruche
        // channels above (Sec. IV-A).
        sweep::Plan ruche = plan;
        ruche.topologies = {NocTopology::torusRuche};
        ruche.base.machine.rucheFactor = 4;
        for (const std::uint32_t side : grid_sides) {
            // The paper stops a line once tiles starve (well past the
            // ~1K vertices/tile knee); we stop below 16 vertices/tile.
            if (side > 1 && vertices / (side * side) < 16)
                break;
            (side <= 32 ? plan : ruche)
                .grids.push_back({side, side});
        }

        for (const sweep::Plan* p : {&plan, &ruche}) {
            if (p->grids.empty())
                continue;
            const sweep::RunResult run =
                sweep::run(sweep::expand(*p), opts.workerThreads());
            fatal_if(!run.ok, "fig6 sweep: ", run.error);
            fatal_if(!run.allRowsOk(), "fig6 sweep: ",
                     run.rowErrors().front());
            const std::vector<cli::Report> ok = run.okReports();
            reports.insert(reports.end(), ok.begin(), ok.end());
        }
    }

    // The ruche tail has no 1x1 row in its group; skip its speedup.
    const sweep::AggregateResult agg = sweep::aggregate(
        reports, {1, 1}, sweep::MissingBaseline::skip);
    fatal_if(!agg.ok, "fig6 aggregate: ", agg.error);
    const Table table = sweep::toTable(agg.rows);
    table.print();
    sweep::writeCsvIfEnabled(opts.csvDir, table, "fig6_scaling");

    // Engine-work companion table: scan-occupancy counters next to
    // the simulated cycles, so the figure distinguishes "the machine
    // simulated faster" (cycles) from "the simulator ran faster"
    // (stepped cycles / scan occupancy under active-set stepping).
    Table engine({"dataset", "grid", "cycles", "stepped_cycles",
                  "tile_scan_occ", "router_scan_occ",
                  "tile_visits_saved", "router_visits_saved"});
    for (const sweep::Row& row : agg.rows) {
        const cli::Report& r = row.report;
        const RunStats& s = r.stats;
        engine.addRow(
            {r.datasetName,
             sweep::toString({r.options.machine.width,
                              r.options.machine.height}),
             std::to_string(s.cycles),
             std::to_string(s.engineSteppedCycles),
             Table::num(s.tileScanOccupancy()),
             Table::num(s.routerScanOccupancy()),
             std::to_string(s.activeTileCyclesSaved),
             std::to_string(s.activeRouterCyclesSaved)});
    }
    std::printf("\nEngine scan work (simulator metric, not "
                "simulated time):\n");
    engine.print();
    sweep::writeCsvIfEnabled(opts.csvDir, engine,
                             "fig6_scaling_engine");
    std::printf("\nExpected shape: near-linear runtime scaling until "
                "~1K vertices/tile;\nenergy minimum near ~10K "
                "vertices/tile (leakage of starving tiles past "
                "it).\n");
    return 0;
}

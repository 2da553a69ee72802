/**
 * @file
 * TSU scheduling ablation (README "Modelling substitutions"):
 * round-robin vs the occupancy-based traffic-aware policy, and a
 * sweep of the policy's two thresholds (IQ-high, OQ-low). The paper
 * reports that the occupancy-based priority beat every static priority
 * and round-robin scheme it was tested against (Sec. III-E).
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"

using namespace dalorex;
using namespace dalorex::bench;

namespace
{

Cycle
runWith(const KernelSetup& setup, SchedPolicy policy, double iq_high,
        double oq_low)
{
    MachineConfig config =
        ablationConfig(AblationStep::dalorexFull, 16, 16);
    config.policy = policy;
    config.thresholds.iqHigh = iq_high;
    config.thresholds.oqLow = oq_low;
    return runDalorex(setup, config).stats.cycles;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    const Dataset ds =
        makeDatasetAt("wiki", opts.full ? 17 : 15, opts.seed);

    std::printf("TSU scheduling ablation on %s (V=%u, E=%u), 16x16\n\n",
                ds.name.c_str(), ds.graph.numVertices,
                ds.graph.numEdges);

    Table table({"kernel", "round-robin cyc", "traffic-aware cyc",
                 "speedup"});
    std::vector<double> gains;
    for (const char* kernel_name : {"bfs", "sssp", "wcc"}) {
        const KernelInfo* kernel = kernelOrDie(kernel_name);
        const KernelSetup setup =
            makeKernelSetup(*kernel, ds.graph, opts.seed);
        const Cycle rr =
            runWith(setup, SchedPolicy::roundRobin, 0.75, 0.25);
        const Cycle ta =
            runWith(setup, SchedPolicy::trafficAware, 0.75, 0.25);
        table.addRow({kernel->display, std::to_string(rr),
                      std::to_string(ta),
                      Table::fmt(double(rr) / double(ta), 3)});
        gains.push_back(double(rr) / double(ta));
    }
    table.print();
    sweep::writeCsvIfEnabled(opts.csvDir, table, "ablation_tsu_policy");

    std::printf("\nThreshold sweep (SSSP): cycles per "
                "(IQ-high, OQ-low) pair\n\n");
    Table threshold_table({"iqHigh\\oqLow", "0.125", "0.25", "0.5"});
    const KernelSetup setup =
        makeKernelSetup("sssp", ds.graph, opts.seed);
    for (const double iq_high : {0.5, 0.75, 0.9}) {
        std::vector<std::string> row = {Table::fmt(iq_high, 2)};
        for (const double oq_low : {0.125, 0.25, 0.5}) {
            row.push_back(std::to_string(runWith(
                setup, SchedPolicy::trafficAware, iq_high, oq_low)));
        }
        threshold_table.addRow(std::move(row));
    }
    threshold_table.print();
    sweep::writeCsvIfEnabled(opts.csvDir, threshold_table,
                             "ablation_tsu_thresholds");
    std::printf("\nThe paper's defaults are iqHigh=0.75, oqLow=0.25 "
                "(nearly full / nearly empty).\n");
    return 0;
}

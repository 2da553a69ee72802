/**
 * @file
 * Golden determinism: the same seed and config must give bit-identical
 * RunStats counters across two independent runs, for one kernel per
 * app. Guards future performance refactors against nondeterminism
 * (unordered containers, address-dependent ordering, data races).
 *
 * The sweep orchestrator inherits the same contract one level up: a
 * plan run with 1 worker thread and with 8 must render byte-identical
 * JSONL.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "apps/graph_app.hh"
#include "apps/kernels.hh"
#include "cli/cli.hh"
#include "graph/rmat.hh"
#include "sim/machine.hh"
#include "sweep/aggregate.hh"
#include "sweep/sweep.hh"

namespace dalorex
{
namespace
{

MachineConfig
goldenConfig()
{
    MachineConfig config;
    config.width = 4;
    config.height = 4;
    config.topology = NocTopology::torus;
    config.policy = SchedPolicy::trafficAware;
    config.distribution = Distribution::lowOrder;
    return config;
}

RunStats
runOnce(const KernelInfo* kernel)
{
    RmatParams params;
    params.scale = 9;
    params.edgeFactor = 8;
    params.seed = 23;
    const Csr base = rmatGraph(params);
    const KernelSetup setup = makeKernelSetup(*kernel, base, 23);

    auto app = setup.makeApp();
    Machine machine(goldenConfig(), setup.graph.numVertices,
                    setup.graph.numEdges);
    return machine.run(*app);
}

/** Every counted report row of `a` and `b` is equal, by key. */
template <typename S, std::size_t N>
void
expectSameCounters(const S& a, const S& b, const Counter<S> (&rows)[N])
{
    for (const Counter<S>& row : rows) {
        if (row.field != nullptr) {
            EXPECT_EQ(a.*row.field, b.*row.field) << row.key;
        }
    }
}

void
expectIdentical(const RunStats& a, const RunStats& b)
{
    expectSameCounters(a, b, runCounters);
    expectSameCounters(a.noc, b.noc, nocCounters);
    EXPECT_EQ(a.invocationsPerTask, b.invocationsPerTask);
    EXPECT_EQ(a.puBusyPerTile, b.puBusyPerTile);
    EXPECT_EQ(a.routerActivePerTile, b.routerActivePerTile);
}

class DeterminismTest
    : public ::testing::TestWithParam<const KernelInfo*>
{
};

TEST_P(DeterminismTest, TwoRunsBitIdentical)
{
    const RunStats first = runOnce(GetParam());
    const RunStats second = runOnce(GetParam());
    ASSERT_GT(first.cycles, 0u);
    ASSERT_GT(first.edgesProcessed, 0u);
    expectIdentical(first, second);
}

// ValuesIn(allKernels()) covers every registered kernel, so k-core
// and the degree histogram joined this suite with zero edits here.
INSTANTIATE_TEST_SUITE_P(
    AllKernels, DeterminismTest, ::testing::ValuesIn(allKernels()),
    [](const ::testing::TestParamInfo<const KernelInfo*>& info) {
        return info.param->display;
    });

/**
 * The sharded engine's core contract: RunStats — and therefore the
 * rendered stats/energy JSON — are byte-identical for every
 * --engine-threads value. Runs every registered kernel at 1, 2 and 8
 * engine threads (8 shards over 16 tiles gives 2-tile shards, the
 * most fragmented interesting split on this grid).
 */
class EngineThreadsDeterminism
    : public ::testing::TestWithParam<const KernelInfo*>
{
};

namespace
{

/**
 * Scenario JSON at `engine_threads` minus its `execution` object
 * (cli::withoutExecution): how the simulator ran is cut off,
 * everything architectural stays in the comparison.
 */
std::string
scenarioJson(const KernelInfo* kernel, unsigned engine_threads,
             RunStats* stats_out = nullptr)
{
    cli::Options options;
    options.kernel = kernel;
    options.scale = 8;
    options.seed = 23;
    options.machine.width = 4;
    options.machine.height = 4;
    options.machine.engineThreads = engine_threads;
    const cli::RunOutcome outcome = cli::runScenario(options);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    if (stats_out != nullptr)
        *stats_out = outcome.report.stats;
    return cli::withoutExecution(cli::renderJson(outcome.report));
}

} // namespace

TEST_P(EngineThreadsDeterminism, StatsAndEnergyJsonByteIdentical)
{
    RunStats serial_stats;
    const std::string serial = scenarioJson(GetParam(), 1, &serial_stats);
    ASSERT_GT(serial_stats.cycles, 0u);
    RunStats two_stats;
    const std::string two = scenarioJson(GetParam(), 2, &two_stats);
    const std::string eight = scenarioJson(GetParam(), 8);
    EXPECT_EQ(serial, two);
    EXPECT_EQ(serial, eight);
    expectIdentical(serial_stats, two_stats);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, EngineThreadsDeterminism,
    ::testing::ValuesIn(allKernels()),
    [](const ::testing::TestParamInfo<const KernelInfo*>& info) {
        return info.param->display;
    });

/** Run `plan` on `threads` workers and render JSONL. */
std::string
sweepJsonl(const sweep::Plan& plan, unsigned threads)
{
    const sweep::RunResult result =
        sweep::run(sweep::expand(plan), threads);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.allRowsOk());
    const sweep::AggregateResult agg =
        sweep::aggregate(result.okReports(), result.baseline);
    EXPECT_TRUE(agg.ok) << agg.error;
    return sweep::toJsonl(agg.rows);
}

std::vector<std::string>
sortedLines(const std::string& text)
{
    std::istringstream stream(text);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(stream, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

TEST(SweepDeterminism, JsonlByteIdenticalAcrossThreadCounts)
{
    sweep::Plan plan;
    plan.kernels = {kernelOrDie("bfs"), kernelOrDie("sssp"),
                    kernelOrDie("wcc")};
    plan.datasets = {{"", 8}};
    plan.grids = {{2, 2}, {4, 4}};
    plan.barriers = {false, true};
    plan.base.seed = 23;

    const std::string serial = sweepJsonl(plan, 1);
    const std::string parallel = sweepJsonl(plan, 8);
    ASSERT_FALSE(serial.empty());
    // Unsorted equality is the real contract: results land in their
    // expansion-order slots, so even row order is thread-invariant.
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(sortedLines(serial), sortedLines(parallel));
    // 3 kernels x 1 dataset x 2 grids x 2 barrier modes.
    EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 12);
}

} // namespace
} // namespace dalorex

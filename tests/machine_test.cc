/**
 * @file
 * Engine-level tests: idle-detection timing, determinism, barrier
 * epochs, stats conservation, local bypass, and failure modes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "apps/bfs.hh"
#include "apps/graph_app.hh"
#include "apps/kernels.hh"
#include "graph/reference.hh"
#include "graph/rmat.hh"
#include "sim/machine.hh"

namespace dalorex
{
namespace
{

Csr
testGraph(unsigned scale = 9)
{
    RmatParams params;
    params.scale = scale;
    params.edgeFactor = 6;
    params.seed = 11;
    return rmatGraph(params);
}

MachineConfig
config4x4()
{
    MachineConfig config;
    config.width = 4;
    config.height = 4;
    return config;
}

TEST(Machine, DeterministicRuns)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("sssp", graph);

    auto run_once = [&] {
        auto app = setup.makeApp();
        Machine machine(config4x4(), graph.numVertices,
                        graph.numEdges);
        return machine.run(*app);
    };
    const RunStats a = run_once();
    const RunStats b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.puOps, b.puOps);
    EXPECT_EQ(a.noc.flitHops, b.noc.flitHops);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.puBusyPerTile, b.puBusyPerTile);
}

TEST(Machine, MessageConservation)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app);
    // Every injected message is delivered; nothing is left in flight.
    EXPECT_EQ(stats.noc.messagesInjected,
              stats.noc.messagesDelivered);
    EXPECT_GT(stats.noc.messagesDelivered, 0u);
}

TEST(Machine, BarrierModeCountsEpochs)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    MachineConfig config = config4x4();
    config.barrier = true;
    Machine machine(config, graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app);
    // BFS needs one epoch per reached level.
    const std::vector<Word> dist = setup.referenceWords();
    Word max_level = 0;
    for (const Word d : dist)
        if (d != infDist)
            max_level = std::max(max_level, d);
    EXPECT_GE(stats.epochs, max_level);
    EXPECT_EQ(app->gatherValues(machine), dist);
}

TEST(Machine, BarrierlessRunsOneEpoch)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app);
    EXPECT_EQ(stats.epochs, 1u);
}

TEST(Machine, SingleTileNeedsNoNetwork)
{
    const Csr graph = testGraph(8);
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    MachineConfig config;
    config.width = 1;
    config.height = 1;
    Machine machine(config, graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app);
    EXPECT_EQ(stats.noc.flitHops, 0u);
    EXPECT_GT(stats.localBypassMsgs, 0u);
    EXPECT_EQ(app->gatherValues(machine), setup.referenceWords());
}

TEST(Machine, UtilizationBounded)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("spmv", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app);
    EXPECT_GT(stats.utilization(), 0.0);
    EXPECT_LE(stats.utilization(), 1.0);
    for (const Cycle busy : stats.puBusyPerTile)
        EXPECT_LE(busy, stats.cycles);
}

TEST(Machine, ScratchpadFootprintReported)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app);
    EXPECT_GT(stats.scratchpadBytesTotal, 0u);
    EXPECT_GE(stats.scratchpadBytesMax * 16,
              stats.scratchpadBytesTotal);
    // Footprint at least covers the dataset arrays:
    // rowBegin+rowEnd+value per vertex, edgeIdx per edge.
    EXPECT_GE(stats.scratchpadBytesTotal,
              (std::uint64_t(graph.numVertices) * 3 +
               graph.numEdges) *
                  wordBytes);
}

TEST(Machine, InvocationsSplitPerTask)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app);
    ASSERT_EQ(stats.invocationsPerTask.size(), 4u);
    std::uint64_t sum = 0;
    for (const std::uint64_t n : stats.invocationsPerTask)
        sum += n;
    EXPECT_EQ(sum, stats.invocations);
    // T3 runs once per delivered update; T2 at least once per
    // explored vertex with edges.
    EXPECT_GT(stats.invocationsPerTask[2],
              stats.invocationsPerTask[1]);
}

TEST(Machine, InterruptOverheadSlowsRun)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);

    auto cycles_with = [&](std::uint32_t overhead) {
        auto app = setup.makeApp();
        MachineConfig config = config4x4();
        config.invokeOverhead = overhead;
        Machine machine(config, graph.numVertices, graph.numEdges);
        return machine.run(*app).cycles;
    };
    const Cycle fast = cycles_with(0);
    const Cycle slow = cycles_with(50);
    EXPECT_GT(slow, fast * 2);
}

TEST(Machine, RunIsOneShot)
{
    const Csr graph = testGraph(8);
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    machine.run(*app);
    auto app2 = setup.makeApp();
    EXPECT_DEATH(machine.run(*app2), "one-shot");
}

TEST(Machine, MaxCyclesUnwindsAsTimeout)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    MachineConfig config = config4x4();
    config.maxCycles = 10; // far too small to finish
    Machine machine(config, graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app);
    EXPECT_EQ(stats.status, RunStatus::timeout);
    EXPECT_NE(stats.statusDetail.find("maxCycles"),
              std::string::npos);
    // The unwind happens at a cycle boundary. The idle fast-forward
    // may jump one event window past the budget before the check
    // fires, so the guarantee is "promptly after", not "exactly at":
    EXPECT_GT(stats.cycles, 10u);
    EXPECT_LT(stats.cycles, 100u);
}

TEST(Machine, CancelFlagUnwindsAsCancelled)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    std::atomic<bool> cancel{true}; // cancelled before the first cycle
    RunControl control;
    control.cancel = &cancel;
    const RunStats stats = machine.run(*app, &control);
    EXPECT_EQ(stats.status, RunStatus::cancelled);
    EXPECT_NE(stats.statusDetail.find("cancelled"),
              std::string::npos);
}

TEST(Machine, ExpiredDeadlineUnwindsAsTimeout)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    RunControl control;
    // Spent before the run started (e.g. waiting in the serve queue).
    control.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    const RunStats stats = machine.run(*app, &control);
    EXPECT_EQ(stats.status, RunStatus::timeout);
    EXPECT_EQ(stats.cycles, 0u);
    EXPECT_NE(stats.statusDetail.find("deadline"),
              std::string::npos);
}

TEST(Machine, UnreachableDeadlineCompletesWithValidOutput)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    RunControl control;
    control.deadline = std::chrono::steady_clock::time_point::max();
    const RunStats stats = machine.run(*app, &control);
    EXPECT_EQ(stats.status, RunStatus::completed);
    EXPECT_EQ(app->gatherValues(machine), setup.referenceWords());
}

TEST(Machine, DeadlineLapsingMidRunUnwindsPromptly)
{
    // 1000 PageRank epochs run for seconds; the deadline lapses long
    // before, after the engine has stepped cycles, and the engine must
    // notice within its clock-read stride, not at the end of the run.
    const Csr graph = testGraph();
    KernelSetup setup = makeKernelSetup("pagerank", graph);
    setup.iterations = 1000;
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    RunControl control;
    control.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(100);
    const RunStats stats = machine.run(*app, &control);
    const auto overrun =
        std::chrono::steady_clock::now() - control.deadline;
    EXPECT_EQ(stats.status, RunStatus::timeout);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_LT(stats.epochs, 1000u);
    EXPECT_LT(overrun, std::chrono::seconds(1));
}

/** One task that keeps its IQ entry and does nothing with it. */
class WedgedApp : public App
{
  public:
    const char* name() const override { return "wedged"; }

    void
    configure(Machine& machine) override
    {
        TaskDef def;
        def.name = "spin";
        def.preload = false;
        def.fn = [](Machine&, Tile&, TaskCtx&) {};
        task_ = machine.addTask(def);
    }

    void start(Machine& machine) override { machine.seed(0, task_, {0}); }

  private:
    TaskId task_ = 0;
};

TEST(Machine, ProgressWatchdogEndsAWedgedRunAsDeadlock)
{
    // The task runs every other cycle and changes nothing, so nothing
    // counts as progress after the seed and the watchdog ends the run
    // at the first stepped cycle more than 1,000,000 cycles later.
    WedgedApp app;
    Machine machine(config4x4(), 1, 1);
    const RunStats stats = machine.run(app);
    EXPECT_EQ(stats.status, RunStatus::deadlock);
    EXPECT_EQ(stats.cycles, 1'000'002u);
    EXPECT_EQ(stats.statusDetail,
              "no progress for 1000000 cycles at cycle 1000002: "
              "pendingIq=1 pendingCq=0 inFlight=0");
}

TEST(Machine, NullControlCompletesNormally)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(*app, nullptr);
    EXPECT_EQ(stats.status, RunStatus::completed);
    EXPECT_EQ(app->gatherValues(machine), setup.referenceWords());
}

TEST(Machine, NonSquareGridWorks)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("wcc", graph);
    auto app = setup.makeApp();
    MachineConfig config;
    config.width = 8;
    config.height = 2;
    Machine machine(config, setup.graph.numVertices,
                    setup.graph.numEdges);
    machine.run(*app);
    EXPECT_EQ(app->gatherValues(machine), setup.referenceWords());
}

TEST(Machine, MoreTilesThanVertices)
{
    const Csr graph = buildCsr(8, {{0, 1},
                                   {1, 2},
                                   {2, 3},
                                   {3, 4},
                                   {4, 5},
                                   {5, 6},
                                   {6, 7}});
    BfsApp app(graph, 0);
    MachineConfig config;
    config.width = 4;
    config.height = 4; // 16 tiles, 8 vertices
    Machine machine(config, graph.numVertices, graph.numEdges);
    machine.run(app);
    EXPECT_EQ(app.gatherValues(machine), referenceBfs(graph, 0));
}

TEST(Machine, EngineThreadsPreserveResultsAndStats)
{
    const Csr graph = testGraph();
    const KernelSetup setup = makeKernelSetup("sssp", graph);

    auto run_with = [&](unsigned engine_threads) {
        auto app = setup.makeApp();
        MachineConfig config = config4x4();
        config.engineThreads = engine_threads;
        Machine machine(config, graph.numVertices, graph.numEdges);
        const RunStats stats = machine.run(*app);
        EXPECT_EQ(app->gatherValues(machine), setup.referenceWords());
        return stats;
    };
    const RunStats serial = run_with(1);
    // 5 does not divide 16 tiles: shards are uneven, and one shard
    // spans the grid remainder — the sharding must not matter.
    const RunStats sharded = run_with(5);
    EXPECT_EQ(serial.cycles, sharded.cycles);
    EXPECT_EQ(serial.puOps, sharded.puOps);
    EXPECT_EQ(serial.noc.flitHops, sharded.noc.flitHops);
    EXPECT_EQ(serial.invocations, sharded.invocations);
    EXPECT_EQ(serial.puBusyPerTile, sharded.puBusyPerTile);
    EXPECT_EQ(serial.noc.deliveryStalls, sharded.noc.deliveryStalls);

    // On ragged shards too, the active scan visits strictly fewer
    // tiles and routers than a scan of every one each stepped cycle,
    // and its savings account for the difference exactly.
    const std::uint64_t all_tiles = sharded.engineSteppedCycles * 16;
    const std::uint64_t all_routers = sharded.nocSteppedCycles * 16;
    EXPECT_LT(sharded.tileScans, all_tiles);
    EXPECT_EQ(sharded.tileScans + sharded.activeTileCyclesSaved,
              all_tiles);
    EXPECT_LT(sharded.routerScans, all_routers);
    EXPECT_EQ(sharded.routerScans + sharded.activeRouterCyclesSaved,
              all_routers);
}

TEST(Machine, EngineThreadsClampToTileCount)
{
    // More engine threads than tiles: shards clamp to one per tile.
    const Csr graph = testGraph(8);
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();
    MachineConfig config;
    config.width = 2;
    config.height = 2;
    config.engineThreads = 64;
    Machine machine(config, graph.numVertices, graph.numEdges);
    machine.run(*app);
    EXPECT_EQ(app->gatherValues(machine), setup.referenceWords());
}

TEST(Machine, ActiveScanFastForwardsIdleWindows)
{
    // A path graph explores one vertex per BFS level: almost every
    // tile is idle at any time, and in barrier mode each epoch ends
    // in a fully-idle drain window before the host reseeds.
    std::vector<std::pair<VertexId, VertexId>> chain;
    for (VertexId v = 0; v + 1 < 48; ++v)
        chain.push_back({v, v + 1});
    const Csr graph = buildCsr(48, chain);

    BfsApp app(graph, 0);
    MachineConfig config = config4x4();
    config.barrier = true;
    Machine machine(config, graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(app);
    EXPECT_EQ(app.gatherValues(machine), referenceBfs(graph, 0));

    // The idle windows are crossed by fast-forward in one step, not
    // rediscovered cycle by cycle: far fewer loop iterations than
    // simulated cycles.
    EXPECT_LT(stats.engineSteppedCycles, stats.cycles / 2);
    // The wall work of the stepped cycles shrinks with the active
    // set: a 16-tile grid with a 1-vertex frontier runs far below
    // half of what a scan of every tile would visit.
    EXPECT_EQ(stats.tileScans + stats.activeTileCyclesSaved,
              stats.engineSteppedCycles * 16);
    EXPECT_EQ(stats.routerScans + stats.activeRouterCyclesSaved,
              stats.nocSteppedCycles * 16);
    EXPECT_GT(stats.activeRouterCyclesSaved, 0u);
    EXPECT_LT(stats.tileScanOccupancy(), 0.5);
}

TEST(Machine, CyclesIncludeIdleDetection)
{
    // An immediately-finished app still pays the idle-tree latency.
    const Csr graph = buildCsr(2, {{0, 1}});
    BfsApp app(graph, 1); // vertex 1 has no out edges
    Machine machine(config4x4(), graph.numVertices, graph.numEdges);
    const RunStats stats = machine.run(app);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_LT(stats.cycles, 200u);
}

} // namespace
} // namespace dalorex

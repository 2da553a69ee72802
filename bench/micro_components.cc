/**
 * @file
 * google-benchmark microbenches for the hot components of the
 * simulator — regression tracking for the infrastructure itself (not
 * a paper figure): RMAT generation, CSR construction, queue
 * operations, routing, TSU arbitration, partition mapping, and a
 * small end-to-end BFS run, plus the OQT2 sizing ablation (README
 * "Modelling substitutions").
 */

#include <benchmark/benchmark.h>

#include "apps/graph_app.hh"
#include "apps/kernels.hh"
#include "common/rng.hh"
#include "graph/partition.hh"
#include "graph/rmat.hh"
#include "noc/topology.hh"
#include "sim/machine.hh"
#include "tile/queue.hh"
#include "tile/tsu.hh"

namespace
{

using namespace dalorex;

void
BM_RmatGeneration(benchmark::State& state)
{
    RmatParams params;
    params.scale = static_cast<unsigned>(state.range(0));
    params.edgeFactor = 10;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rmatEdges(params));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        (std::int64_t(params.edgeFactor) << params.scale));
}
BENCHMARK(BM_RmatGeneration)->Arg(12)->Arg(14);

void
BM_CsrBuild(benchmark::State& state)
{
    RmatParams params;
    params.scale = static_cast<unsigned>(state.range(0));
    const EdgeList edges = rmatEdges(params);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buildCsr(VertexId(1) << params.scale, edges));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_CsrBuild)->Arg(12)->Arg(14);

void
BM_QueuePushPop(benchmark::State& state)
{
    WordQueue queue;
    queue.init(2, 1024);
    const Word entry[2] = {1, 2};
    for (auto _ : state) {
        queue.push(entry);
        benchmark::DoNotOptimize(queue.front());
        queue.pop();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueuePushPop);

void
BM_TopologyRoute(benchmark::State& state)
{
    const Topology topo(static_cast<NocTopology>(state.range(0)), 32,
                        32, state.range(0) == 2 ? 4u : 0u);
    Rng rng(5);
    std::vector<std::pair<TileId, TileId>> pairs;
    for (int i = 0; i < 1024; ++i)
        pairs.emplace_back(
            static_cast<TileId>(rng.below(topo.numTiles())),
            static_cast<TileId>(rng.below(topo.numTiles())));
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& [src, dst] = pairs[i++ & 1023];
        benchmark::DoNotOptimize(topo.route(src, dst));
    }
}
BENCHMARK(BM_TopologyRoute)->Arg(0)->Arg(1)->Arg(2);

void
BM_TsuPickTask(benchmark::State& state)
{
    // A tile with four tasks, two runnable.
    std::vector<TaskDef> defs(4);
    for (auto& def : defs) {
        def.paramWords = 2;
        def.iqCapacity = 64;
        def.fn = [](Machine&, Tile&, TaskCtx&) {};
    }
    Tile tile;
    tile.iqs.resize(4);
    for (auto& iq : tile.iqs) {
        iq.init(2, 64);
        iq.setHighMark(48);
    }
    const Word entry[2] = {0, 0};
    tile.iqs[1].push(entry);
    tile.iqs[3].push(entry);
    const auto policy = static_cast<SchedPolicy>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(pickTask(tile, defs, policy));
    }
}
BENCHMARK(BM_TsuPickTask)->Arg(0)->Arg(1);

void
BM_PartitionMapping(benchmark::State& state)
{
    const Partition part(1 << 20, 10 << 20, 1024,
                         static_cast<Distribution>(state.range(0)));
    Word v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(part.vertexOwner(v));
        benchmark::DoNotOptimize(part.vertexLocal(v));
        v = (v * 2654435761u + 1) & ((1u << 20) - 1);
    }
}
BENCHMARK(BM_PartitionMapping)->Arg(0)->Arg(1);

void
BM_EndToEndBfs(benchmark::State& state)
{
    RmatParams params;
    params.scale = 10;
    params.edgeFactor = 8;
    const Csr graph = rmatGraph(params);
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    RunStats stats;
    for (auto _ : state) {
        auto app = setup.makeApp();
        MachineConfig config;
        config.width = 8;
        config.height = 8;
        Machine machine(config, graph.numVertices, graph.numEdges);
        stats = machine.run(*app);
        benchmark::DoNotOptimize(stats);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        graph.numEdges);
    // Separate "simulated faster" (sim_cycles) from "simulator ran
    // faster" (stepped cycles and scan occupancy).
    state.counters["sim_cycles"] = static_cast<double>(stats.cycles);
    state.counters["stepped_cycles"] =
        static_cast<double>(stats.engineSteppedCycles);
    state.counters["tile_scan_occ"] = stats.tileScanOccupancy();
    state.counters["router_scan_occ"] = stats.routerScanOccupancy();
}
BENCHMARK(BM_EndToEndBfs)->Unit(benchmark::kMillisecond);

/** OQT2 sizing ablation (README "Modelling substitutions"): cycles
 *  vs OQT2. */
void
BM_Oqt2Sizing(benchmark::State& state)
{
    RmatParams params;
    params.scale = 11;
    params.edgeFactor = 8;
    const Csr graph = rmatGraph(params);
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    const auto oqt2 = static_cast<std::uint32_t>(state.range(0));
    RunStats stats;
    for (auto _ : state) {
        auto app = setup.makeApp();
        QueueSizing sizing;
        sizing.oqt2 = oqt2;
        sizing.cq2 = 2 * oqt2;
        app->setQueueSizing(sizing);
        MachineConfig config;
        config.width = 8;
        config.height = 8;
        Machine machine(config, graph.numVertices, graph.numEdges);
        stats = machine.run(*app);
    }
    state.counters["sim_cycles"] = static_cast<double>(stats.cycles);
    state.counters["stepped_cycles"] =
        static_cast<double>(stats.engineSteppedCycles);
    state.counters["tile_scan_occ"] = stats.tileScanOccupancy();
}
BENCHMARK(BM_Oqt2Sizing)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

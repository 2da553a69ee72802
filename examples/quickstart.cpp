/**
 * @file
 * Quickstart: build a small graph, run BFS on a Dalorex machine, and
 * read the distances back.
 *
 * Walks through the whole public API surface in ~60 lines:
 *   1. build or generate a graph (graph/),
 *   2. pick a kernel and let the factory adapt the dataset (apps/),
 *   3. configure a machine — grid size, NoC, scheduling (sim/),
 *   4. run, validate against the sequential reference, and inspect
 *      performance and energy (energy/).
 */

#include <cstdio>

#include "apps/graph_app.hh"
#include "apps/kernels.hh"
#include "energy/model.hh"
#include "graph/reference.hh"
#include "graph/rmat.hh"
#include "sim/machine.hh"

using namespace dalorex;

int
main()
{
    // 1. A small synthetic graph: 4,096 vertices, ~32K edges.
    RmatParams params;
    params.scale = 12;
    params.edgeFactor = 8;
    params.seed = 42;
    const Csr graph = rmatGraph(params);
    std::printf("graph: %u vertices, %u edges\n", graph.numVertices,
                graph.numEdges);

    // 2. BFS from the first connected vertex.
    const KernelSetup setup = makeKernelSetup("bfs", graph);
    auto app = setup.makeApp();

    // 3. An 8x8 Dalorex grid with the paper's defaults: torus NoC,
    //    low-order data placement, traffic-aware TSU, barrierless.
    MachineConfig config;
    config.width = 8;
    config.height = 8;
    Machine machine(config, graph.numVertices, graph.numEdges);

    // 4. Run and inspect.
    const RunStats stats = machine.run(*app);
    const std::vector<Word> dist = app->gatherValues(machine);
    const std::vector<Word> expected =
        referenceBfs(setup.graph, setup.root);
    std::printf("run: %llu cycles, %llu epoch(s), %.1f%% mean PU "
                "utilization\n",
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.epochs),
                100.0 * stats.utilization());
    std::printf("validation: %s\n",
                dist == expected ? "matches sequential BFS"
                                 : "MISMATCH");

    std::uint64_t reached = 0;
    Word max_dist = 0;
    for (const Word d : dist) {
        if (d == infDist)
            continue;
        ++reached;
        max_dist = std::max(max_dist, d);
    }
    std::printf("result: %llu reachable vertices, max hop distance "
                "%u\n",
                static_cast<unsigned long long>(reached), max_dist);

    const EnergyBreakdown energy = dalorexEnergy(stats, config);
    std::printf("energy: %.3e J total (logic %.1f%%, memory %.1f%%, "
                "network %.1f%%)\n",
                energy.totalJ(), energy.logicPct(),
                energy.memoryPct(), energy.networkPct());
    std::printf("traffic: %llu messages, %llu flit-hops\n",
                static_cast<unsigned long long>(
                    stats.noc.messagesDelivered),
                static_cast<unsigned long long>(stats.noc.flitHops));
    return dist == expected ? 0 : 1;
}

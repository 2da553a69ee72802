/**
 * @file
 * SSSP on a synthetic road network — the kind of planar, high-diameter
 * workload the paper's intro motivates for shortest-path queries.
 *
 * The network is a W x H grid of intersections with 4-neighbor roads
 * of random travel time plus a sprinkle of random highways. Planar
 * graphs take many more frontier epochs than RMAT inputs, which makes
 * them the stress case for Dalorex's barrierless local frontiers: the
 * example runs the same query with and without the global epoch
 * barrier and reports the speedup.
 */

#include <cstdio>

#include "apps/sssp.hh"
#include "common/rng.hh"
#include "energy/model.hh"
#include "graph/csr.hh"
#include "graph/reference.hh"
#include "sim/machine.hh"

using namespace dalorex;

namespace
{

/** Build the road network: grid roads + random highways. */
Csr
buildRoadNet(std::uint32_t grid_w, std::uint32_t grid_h, Rng& rng)
{
    const VertexId n = grid_w * grid_h;
    EdgeList roads;
    auto at = [&](std::uint32_t x, std::uint32_t y) {
        return y * grid_w + x;
    };
    for (std::uint32_t y = 0; y < grid_h; ++y) {
        for (std::uint32_t x = 0; x < grid_w; ++x) {
            if (x + 1 < grid_w) {
                roads.emplace_back(at(x, y), at(x + 1, y));
                roads.emplace_back(at(x + 1, y), at(x, y));
            }
            if (y + 1 < grid_h) {
                roads.emplace_back(at(x, y), at(x, y + 1));
                roads.emplace_back(at(x, y + 1), at(x, y));
            }
        }
    }
    // Highways: long-distance links, two per ~hundred intersections.
    const std::uint32_t highways = n / 50;
    for (std::uint32_t i = 0; i < highways; ++i) {
        const auto a = static_cast<VertexId>(rng.below(n));
        const auto b = static_cast<VertexId>(rng.below(n));
        if (a == b)
            continue;
        roads.emplace_back(a, b);
        roads.emplace_back(b, a);
    }
    Csr net = buildCsr(n, roads);
    addRandomWeights(net, rng, 1, 30); // minutes per road segment
    return net;
}

RunStats
runQuery(const Csr& net, VertexId root, bool barrier)
{
    SsspApp app(net, root);
    MachineConfig config;
    config.width = 8;
    config.height = 8;
    config.barrier = barrier;
    Machine machine(config, net.numVertices, net.numEdges);
    RunStats stats = machine.run(app);
    // Validate against Dijkstra.
    const std::vector<Word> got = app.gatherValues(machine);
    const std::vector<Word> want = referenceSssp(net, root);
    if (got != want) {
        std::printf("ERROR: SSSP result mismatch!\n");
        std::exit(1);
    }
    return stats;
}

} // namespace

int
main()
{
    Rng rng(2026);
    const Csr net = buildRoadNet(192, 192, rng);
    const VertexId root = 0; // top-left intersection
    std::printf("road network: %u intersections, %u road segments\n",
                net.numVertices, net.numEdges);

    const RunStats barrierless = runQuery(net, root, false);
    const RunStats barriered = runQuery(net, root, true);

    std::printf("shortest-path query from intersection %u "
                "(validated against Dijkstra):\n",
                root);
    std::printf("  barrierless frontiers: %10llu cycles, "
                "%3llu epoch(s), util %.1f%%\n",
                static_cast<unsigned long long>(barrierless.cycles),
                static_cast<unsigned long long>(barrierless.epochs),
                100.0 * barrierless.utilization());
    std::printf("  global epoch barrier:  %10llu cycles, "
                "%3llu epoch(s), util %.1f%%\n",
                static_cast<unsigned long long>(barriered.cycles),
                static_cast<unsigned long long>(barriered.epochs),
                100.0 * barriered.utilization());
    std::printf("  barrier removal speedup on this high-diameter "
                "graph: %.2fx\n",
                static_cast<double>(barriered.cycles) /
                    static_cast<double>(barrierless.cycles));
    std::printf("\nNote the trade the two modes make: barrierless "
                "runs at much higher PU\nutilization but re-explores "
                "intersections whose distance later improves\n"
                "(weighted grids have many near-tied paths).\n"
                "./build/ablation_barrier measures this staleness tax "
                "across dataset scales.\n");
    return 0;
}

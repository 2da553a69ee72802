/**
 * @file
 * PageRank on a synthetic web crawl — the workload PageRank was built
 * for [34]. Generates a power-law "web" graph, ranks the pages on a
 * Dalorex machine (epoch-synchronized, as PageRank requires), prints
 * the top pages, and shows how rank mass concentrates on hubs.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/pagerank.hh"
#include "energy/model.hh"
#include "graph/reference.hh"
#include "graph/rmat.hh"
#include "sim/machine.hh"

using namespace dalorex;

int
main()
{
    // A strongly skewed RMAT graph is the standard web-graph model.
    RmatParams params;
    params.scale = 13; // 8,192 pages
    params.edgeFactor = 12;
    params.a = 0.6;
    params.b = 0.18;
    params.c = 0.18;
    params.seed = 99;
    const Csr web = rmatGraph(params);
    std::printf("web graph: %u pages, %u links\n", web.numVertices,
                web.numEdges);

    const double damping = 0.85;
    const unsigned iterations = 20;
    PageRankApp app(web, damping, iterations);

    MachineConfig config;
    config.width = 8;
    config.height = 8;
    Machine machine(config, web.numVertices, web.numEdges);
    const RunStats stats = machine.run(app);
    const std::vector<double> rank = app.gatherFloats(machine);

    // Validate against the sequential reference.
    const std::vector<double> want =
        referencePageRank(web, damping, iterations);
    for (VertexId v = 0; v < web.numVertices; ++v) {
        if (std::abs(rank[v] - want[v]) >
            std::max(1e-9, 1e-3 * want[v])) {
            std::printf("ERROR: rank mismatch at page %u\n", v);
            return 1;
        }
    }

    std::printf("ran %llu synchronous epochs in %llu cycles "
                "(validated)\n\n",
                static_cast<unsigned long long>(stats.epochs),
                static_cast<unsigned long long>(stats.cycles));

    // Top pages by rank.
    std::vector<VertexId> order(web.numVertices);
    for (VertexId v = 0; v < web.numVertices; ++v)
        order[v] = v;
    std::sort(order.begin(), order.end(),
              [&](VertexId a, VertexId b) {
                  return rank[a] > rank[b];
              });
    std::printf("top 10 pages by PageRank:\n");
    std::printf("  %-6s %-12s %-10s %-10s\n", "page", "rank",
                "in-links*", "out-links");
    // In-degree is approximated by counting incoming edges.
    std::vector<std::uint32_t> indeg(web.numVertices, 0);
    for (const VertexId dst : web.colIdx)
        ++indeg[dst];
    for (int i = 0; i < 10; ++i) {
        const VertexId page = order[i];
        std::printf("  %-6u %-12.3e %-10u %-10u\n", page, rank[page],
                    indeg[page], web.degree(page));
    }

    double top_mass = 0.0;
    const auto top = static_cast<std::size_t>(web.numVertices / 100);
    for (std::size_t i = 0; i < top; ++i)
        top_mass += rank[order[i]];
    double total = 0.0;
    for (const double r : rank)
        total += r;
    std::printf("\nthe top 1%% of pages hold %.1f%% of the total rank "
                "mass\n",
                100.0 * top_mass / total);

    const EnergyBreakdown energy = dalorexEnergy(stats, config);
    std::printf("energy: %.3e J (network share %.1f%%)\n",
                energy.totalJ(), energy.networkPct());
    return 0;
}

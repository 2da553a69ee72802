/**
 * @file
 * Connected-component analysis of a fragmented social network — the
 * classic WCC use case. Builds a graph of many communities with
 * sparse bridges plus isolated users, labels the components on a
 * Dalorex machine, and reports the component-size distribution.
 *
 * WCC is also the kernel the paper finds gains most from barrierless
 * execution (it has the most epochs); the example runs both modes and
 * prints the comparison.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "apps/wcc.hh"
#include "common/rng.hh"
#include "graph/csr.hh"
#include "graph/reference.hh"
#include "graph/rmat.hh"
#include "sim/machine.hh"

using namespace dalorex;

namespace
{

/** Communities of random size, internally dense, rarely bridged. */
Csr
buildSocialNetwork(Rng& rng)
{
    const VertexId users = 40000;
    EdgeList follows;
    VertexId begin = 0;
    std::vector<std::pair<VertexId, VertexId>> communities;
    while (begin < users) {
        const auto size = static_cast<VertexId>(rng.range(3, 400));
        const VertexId end = std::min(begin + size, users);
        communities.emplace_back(begin, end);
        // Ring + random chords keep each community connected.
        for (VertexId v = begin; v + 1 < end; ++v)
            follows.emplace_back(v, v + 1);
        const VertexId span = end - begin;
        for (VertexId k = 0; k < span * 2; ++k) {
            const auto a =
                begin + static_cast<VertexId>(rng.below(span));
            const auto b =
                begin + static_cast<VertexId>(rng.below(span));
            if (a != b)
                follows.emplace_back(a, b);
        }
        begin = end;
    }
    // A few bridges merge some communities into larger components.
    for (unsigned k = 0; k < communities.size() / 6; ++k) {
        const auto& ca =
            communities[rng.below(communities.size())];
        const auto& cb =
            communities[rng.below(communities.size())];
        follows.emplace_back(
            ca.first + static_cast<VertexId>(
                           rng.below(ca.second - ca.first)),
            cb.first + static_cast<VertexId>(
                           rng.below(cb.second - cb.first)));
    }
    return buildCsr(users, follows, {.symmetrize = true});
}

RunStats
labelComponents(const Csr& net, bool barrier,
                std::vector<Word>& labels_out)
{
    WccApp app(net);
    MachineConfig config;
    config.width = 8;
    config.height = 8;
    config.barrier = barrier;
    Machine machine(config, net.numVertices, net.numEdges);
    RunStats stats = machine.run(app);
    labels_out = app.gatherValues(machine);
    return stats;
}

} // namespace

int
main()
{
    Rng rng(77);
    const Csr net = buildSocialNetwork(rng);
    std::printf("social network: %u users, %u follow edges "
                "(undirected view)\n",
                net.numVertices, net.numEdges);

    std::vector<Word> labels;
    const RunStats async = labelComponents(net, false, labels);
    std::vector<Word> labels_sync;
    const RunStats sync = labelComponents(net, true, labels_sync);

    if (labels != referenceWcc(net) || labels_sync != labels) {
        std::printf("ERROR: component labels mismatch\n");
        return 1;
    }

    std::map<Word, std::uint32_t> sizes;
    for (const Word label : labels)
        ++sizes[label];
    std::vector<std::uint32_t> by_size;
    for (const auto& [label, size] : sizes)
        by_size.push_back(size);
    std::sort(by_size.rbegin(), by_size.rend());

    std::printf("components: %zu total; largest: ", sizes.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(5, by_size.size());
         ++i)
        std::printf("%u ", by_size[i]);
    std::printf("users\n");
    std::uint32_t singletons = 0;
    for (const auto size : by_size)
        singletons += size == 1;
    std::printf("singleton users: %u\n\n", singletons);

    std::printf("barrierless:  %8llu cycles, %3llu epoch(s), util "
                "%.1f%%\n",
                static_cast<unsigned long long>(async.cycles),
                static_cast<unsigned long long>(async.epochs),
                100.0 * async.utilization());
    std::printf("synchronized: %8llu cycles, %3llu epoch(s), util "
                "%.1f%%\n",
                static_cast<unsigned long long>(sync.cycles),
                static_cast<unsigned long long>(sync.epochs),
                100.0 * sync.utilization());
    std::printf("barrier removal speedup: %.2fx (across dataset "
                "scales: ./build/ablation_barrier)\n",
                static_cast<double>(sync.cycles) /
                    static_cast<double>(async.cycles));
    return 0;
}

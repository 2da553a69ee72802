/**
 * @file
 * Unit tests for the graph substrate: CSR construction, symmetrize,
 * weights, vertex permutation, RMAT generation and the dataset
 * registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "common/stats.hh"
#include "graph/csr.hh"
#include "graph/datasets.hh"
#include "graph/rmat.hh"

namespace dalorex
{
namespace
{

TEST(Csr, BuildSortsAndIndexes)
{
    const EdgeList edges = {{2, 0}, {0, 1}, {0, 2}, {1, 2}};
    const Csr g = buildCsr(3, edges);
    EXPECT_EQ(g.numVertices, 3u);
    EXPECT_EQ(g.numEdges, 4u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.degree(2), 1u);
    // Neighbors of 0 are sorted.
    EXPECT_EQ(g.colIdx[g.rowPtr[0]], 1u);
    EXPECT_EQ(g.colIdx[g.rowPtr[0] + 1], 2u);
}

TEST(Csr, RemovesSelfLoopsByDefault)
{
    const EdgeList edges = {{0, 0}, {0, 1}, {1, 1}};
    const Csr g = buildCsr(2, edges);
    EXPECT_EQ(g.numEdges, 1u);
}

TEST(Csr, KeepsSelfLoopsWhenAsked)
{
    CsrBuildOptions opts;
    opts.removeSelfLoops = false;
    const Csr g = buildCsr(2, {{0, 0}, {0, 1}}, opts);
    EXPECT_EQ(g.numEdges, 2u);
}

TEST(Csr, DedupDropsParallelEdges)
{
    const Csr g = buildCsr(2, {{0, 1}, {0, 1}, {1, 0}});
    EXPECT_EQ(g.numEdges, 2u);
}

TEST(Csr, NoDedupKeepsParallelEdges)
{
    CsrBuildOptions opts;
    opts.dedup = false;
    const Csr g = buildCsr(2, {{0, 1}, {0, 1}}, opts);
    EXPECT_EQ(g.numEdges, 2u);
}

TEST(Csr, SymmetrizeAddsReverseEdges)
{
    const Csr g = buildCsr(3, {{0, 1}, {1, 2}});
    const Csr s = symmetrize(g);
    EXPECT_EQ(s.numEdges, 4u);
    EXPECT_EQ(s.degree(1), 2u); // 1 -> 0 and 1 -> 2
}

TEST(Csr, SymmetrizeIsIdempotent)
{
    RmatParams params;
    params.scale = 8;
    params.edgeFactor = 4;
    const Csr g = symmetrize(rmatGraph(params));
    const Csr s = symmetrize(g);
    EXPECT_EQ(g.numEdges, s.numEdges);
    EXPECT_EQ(g.rowPtr, s.rowPtr);
    EXPECT_EQ(g.colIdx, s.colIdx);
}

TEST(Csr, RandomWeightsInRange)
{
    Csr g = buildCsr(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    Rng rng(9);
    addRandomWeights(g, rng, 3, 7);
    ASSERT_TRUE(g.weighted());
    for (const Word w : g.weights) {
        EXPECT_GE(w, 3u);
        EXPECT_LE(w, 7u);
    }
}

TEST(Csr, PermutePreservesStructure)
{
    Csr g = buildCsr(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
    Rng rng(4);
    addRandomWeights(g, rng, 1, 10);
    // Reverse permutation: v -> 3 - v.
    const std::vector<VertexId> perm = {3, 2, 1, 0};
    const Csr p = permuteVertices(g, perm);
    EXPECT_EQ(p.numEdges, g.numEdges);
    // Edge (0,1,w) becomes (3,2,w).
    bool found = false;
    for (EdgeId i = p.rowPtr[3]; i < p.rowPtr[4]; ++i) {
        if (p.colIdx[i] == 2) {
            found = true;
            // Weight carried through.
            EXPECT_EQ(p.weights[i], g.weights[g.rowPtr[0]]);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Csr, InvariantsPanicOnCorruption)
{
    Csr g = buildCsr(3, {{0, 1}, {1, 2}});
    g.rowPtr[1] = 99;
    EXPECT_DEATH(g.checkInvariants(), "monoton|out of range|must");
}

TEST(Rmat, DeterministicBySeed)
{
    RmatParams params;
    params.scale = 10;
    params.edgeFactor = 4;
    const Csr a = rmatGraph(params);
    const Csr b = rmatGraph(params);
    EXPECT_EQ(a.rowPtr, b.rowPtr);
    EXPECT_EQ(a.colIdx, b.colIdx);
}

TEST(Rmat, DifferentSeedsDiffer)
{
    RmatParams params;
    params.scale = 10;
    params.edgeFactor = 4;
    const Csr a = rmatGraph(params);
    params.seed = 2;
    const Csr b = rmatGraph(params);
    EXPECT_NE(a.colIdx, b.colIdx);
}

TEST(Rmat, EdgeCountMatchesFactorBeforeCleanup)
{
    RmatParams params;
    params.scale = 9;
    params.edgeFactor = 7;
    const EdgeList edges = rmatEdges(params);
    EXPECT_EQ(edges.size(), std::size_t(7) << 9);
}

TEST(Rmat, VertexDomainRespected)
{
    RmatParams params;
    params.scale = 8;
    const Csr g = rmatGraph(params);
    EXPECT_EQ(g.numVertices, 256u);
    for (const VertexId v : g.colIdx)
        EXPECT_LT(v, 256u);
}

TEST(Rmat, GraphIsSkewed)
{
    RmatParams params;
    params.scale = 12;
    params.edgeFactor = 10;
    const Csr g = rmatGraph(params);
    std::vector<double> degrees(g.numVertices);
    for (VertexId v = 0; v < g.numVertices; ++v)
        degrees[v] = g.degree(v);
    // RMAT with a=0.57 is strongly skewed; uniform graphs sit ~0.5.
    EXPECT_GT(giniCoefficient(degrees), 0.55);
    EXPECT_GT(imbalanceFactor(degrees), 10.0);
}

TEST(Rmat, MilderParametersLessSkewed)
{
    RmatParams strong;
    strong.scale = 12;
    RmatParams mild = strong;
    mild.a = 0.3;
    mild.b = 0.25;
    mild.c = 0.25;
    auto gini = [](const Csr& g) {
        std::vector<double> d(g.numVertices);
        for (VertexId v = 0; v < g.numVertices; ++v)
            d[v] = g.degree(v);
        return giniCoefficient(d);
    };
    EXPECT_GT(gini(rmatGraph(strong)), gini(rmatGraph(mild)));
}

TEST(Datasets, AliasesResolve)
{
    const std::pair<const char*, const char*> aliases[] = {
        {"AZ", "AZ"}, {"wiki", "WK"}, {"LJ", "LJ"}};
    for (const auto& [alias, name] : aliases) {
        const DatasetResult r = tryMakeDatasetAt(alias, 10);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.dataset.name, name);
    }
    const DatasetResult rmat = tryMakeDataset("rmat8");
    ASSERT_TRUE(rmat.ok) << rmat.error;
    EXPECT_EQ(rmat.dataset.name, "R8");
}

TEST(Datasets, AverageDegreesMatchProvenance)
{
    const DatasetResult wk = tryMakeDatasetAt("wiki", 12);
    ASSERT_TRUE(wk.ok) << wk.error;
    const Csr& wk_graph = wk.dataset.graph;
    const double wk_deg =
        static_cast<double>(wk_graph.numEdges) / wk_graph.numVertices;
    EXPECT_NEAR(wk_deg, 24.0, 4.0); // Wikipedia ~24 (self loops cut)

    const DatasetResult lj = tryMakeDatasetAt("livejournal", 12);
    ASSERT_TRUE(lj.ok) << lj.error;
    const Csr& lj_graph = lj.dataset.graph;
    const double lj_deg =
        static_cast<double>(lj_graph.numEdges) / lj_graph.numVertices;
    EXPECT_NEAR(lj_deg, 15.0, 3.0); // LiveJournal ~15
}

TEST(Datasets, DeterministicAndSeedSensitive)
{
    const DatasetResult a = tryMakeDatasetAt("amazon", 10, 5);
    const DatasetResult b = tryMakeDatasetAt("amazon", 10, 5);
    const DatasetResult c = tryMakeDatasetAt("amazon", 10, 6);
    ASSERT_TRUE(a.ok && b.ok && c.ok) << a.error << b.error << c.error;
    EXPECT_EQ(a.dataset.graph.colIdx, b.dataset.graph.colIdx);
    EXPECT_NE(a.dataset.graph.colIdx, c.dataset.graph.colIdx);
}

TEST(Datasets, ProvenanceDocumented)
{
    for (const char* name : {"amazon", "wiki", "livejournal", "rmat8"}) {
        const DatasetResult r = tryMakeDataset(name);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_FALSE(r.dataset.provenance.empty()) << name;
    }
}

TEST(Datasets, UnknownNameIsAOneLineError)
{
    const DatasetResult r = tryMakeDataset("nosuchgraph");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.rfind("unknown dataset: nosuchgraph", 0), 0u)
        << r.error;
    EXPECT_EQ(r.error.find('\n'), std::string::npos) << r.error;
}

} // namespace
} // namespace dalorex

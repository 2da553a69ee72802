/**
 * @file
 * Tests for on-disk graphs: text-format ingestion (edge list,
 * MatrixMarket, DIMACS), the binary CSR file round trip and its
 * corruption diagnostics, the file:/rmat dataset-name fixes, the
 * process-wide dataset cache, and the `dalorex convert` driver.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "graph-convert/graph_convert.hh"
#include "graph/dataset_cache.hh"
#include "graph/datasets.hh"
#include "graph/graphfile.hh"
#include "graph/graphio.hh"

namespace dalorex
{
namespace
{

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + "graphio_" + name;
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out << content;
}

std::vector<char>
readAll(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string& path, const std::vector<char>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
expectSameGraph(const Csr& a, const Csr& b)
{
    EXPECT_EQ(a.numVertices, b.numVertices);
    EXPECT_EQ(a.numEdges, b.numEdges);
    EXPECT_EQ(a.rowPtr, b.rowPtr);
    EXPECT_EQ(a.colIdx, b.colIdx);
    EXPECT_EQ(a.weights, b.weights);
}

// --- text ingestion ---------------------------------------------------

TEST(GraphIo, EdgeListBasics)
{
    const std::string path = tmpPath("basic.el");
    writeFile(path, "# a comment\n% another\n// and another\n"
                    "0 1\n1 2\n2 0\n2 2\n1 2\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.dataset.name, fileStem(path));
    const Csr& g = r.dataset.graph;
    // Self loop (2,2) dropped, duplicate (1,2) deduped.
    EXPECT_EQ(g.numVertices, 3u);
    EXPECT_EQ(g.numEdges, 3u);
    EXPECT_FALSE(g.weighted());
}

TEST(GraphIo, EdgeListWeighted)
{
    const std::string path = tmpPath("weighted.el");
    writeFile(path, "0 1 5\n1 2 7\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_TRUE(r.ok) << r.error;
    const Csr& g = r.dataset.graph;
    ASSERT_TRUE(g.weighted());
    EXPECT_EQ(g.weights, (std::vector<Word>{5, 7}));
}

TEST(GraphIo, EdgeListSymmetrize)
{
    const std::string path = tmpPath("sym.el");
    writeFile(path, "0 1\n1 2\n");
    TextReadOptions opts;
    opts.symmetrize = true;
    const TextGraphResult r = readTextGraph(path, opts);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.dataset.graph.numEdges, 4u);
}

TEST(GraphIo, EdgeListRejectsJunkWithLineNumber)
{
    const std::string path = tmpPath("junk.el");
    writeFile(path, "0 1\nnot an edge\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find(":2"), std::string::npos) << r.error;
}

TEST(GraphIo, EdgeListRejectsMixedWeightedness)
{
    const std::string path = tmpPath("mixed.el");
    writeFile(path, "0 1 5\n1 2\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("mixed"), std::string::npos) << r.error;
}

TEST(GraphIo, MatrixMarketSymmetricPattern)
{
    const std::string path = tmpPath("sympat.mtx");
    writeFile(path, "%%MatrixMarket matrix coordinate pattern "
                    "symmetric\n% comment\n3 3 2\n1 2\n2 3\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_TRUE(r.ok) << r.error;
    const Csr& g = r.dataset.graph;
    EXPECT_EQ(g.numVertices, 3u);
    EXPECT_EQ(g.numEdges, 4u); // both entries mirrored
    EXPECT_FALSE(g.weighted());
}

TEST(GraphIo, MatrixMarketRealGeneral)
{
    const std::string path = tmpPath("realgen.mtx");
    writeFile(path, "%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 2 3.0\n2 1 4.5\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_TRUE(r.ok) << r.error;
    const Csr& g = r.dataset.graph;
    ASSERT_TRUE(g.weighted());
    EXPECT_EQ(g.weights, (std::vector<Word>{3, 5})); // 4.5 rounds up
}

TEST(GraphIo, MatrixMarketRejectsEntryOutsideShape)
{
    const std::string path = tmpPath("shape.mtx");
    writeFile(path, "%%MatrixMarket matrix coordinate pattern "
                    "general\n2 2 1\n3 1\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("2x2"), std::string::npos) << r.error;
}

TEST(GraphIo, DimacsGr)
{
    const std::string path = tmpPath("road.gr");
    writeFile(path, "c road network\np sp 3 2\na 1 2 4\na 2 3 6\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_TRUE(r.ok) << r.error;
    const Csr& g = r.dataset.graph;
    EXPECT_EQ(g.numVertices, 3u);
    EXPECT_EQ(g.numEdges, 2u);
    ASSERT_TRUE(g.weighted());
    EXPECT_EQ(g.weights, (std::vector<Word>{4, 6}));
}

TEST(GraphIo, DimacsRejectsArcBeforeProblemLine)
{
    const std::string path = tmpPath("noprob.gr");
    writeFile(path, "a 1 2 3\n");
    const TextGraphResult r = readTextGraph(path);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("problem line"), std::string::npos)
        << r.error;
}

TEST(GraphIo, AutoDetectsByContent)
{
    // No telling extension: MatrixMarket by banner, DIMACS by 'p'.
    const std::string mm = tmpPath("banner.txt");
    writeFile(mm, "%%MatrixMarket matrix coordinate pattern general\n"
                  "2 2 1\n1 2\n");
    ASSERT_TRUE(readTextGraph(mm).ok);
    const std::string gr = tmpPath("problem.txt");
    writeFile(gr, "p sp 2 1\na 1 2 9\n");
    const TextGraphResult r = readTextGraph(gr);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.dataset.graph.weighted());
}

TEST(GraphIo, MissingFileIsRecoverable)
{
    const TextGraphResult r = readTextGraph(tmpPath("nope.el"));
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

// --- binary graph files -----------------------------------------------

TEST(GraphFile, RoundTripsGeneratedDataset)
{
    const DatasetResult built = tryMakeDataset("rmat8");
    ASSERT_TRUE(built.ok) << built.error;
    const Dataset& ds = built.dataset;
    const std::string path = tmpPath("rmat8.dlx");
    std::string error;
    ASSERT_TRUE(saveGraphFile(path, ds, error)) << error;
    const GraphFileResult loaded = loadGraphFile(path);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.dataset.name, ds.name);
    EXPECT_EQ(loaded.dataset.provenance, ds.provenance);
    expectSameGraph(loaded.dataset.graph, ds.graph);
}

TEST(GraphFile, RoundTripsWeightedTextGraph)
{
    const std::string text = tmpPath("rt.gr");
    writeFile(text, "p sp 4 3\na 1 2 10\na 2 3 20\na 3 4 30\n");
    const TextGraphResult read = readTextGraph(text);
    ASSERT_TRUE(read.ok) << read.error;
    const std::string path = tmpPath("rt.dlx");
    std::string error;
    ASSERT_TRUE(saveGraphFile(path, read.dataset, error)) << error;
    const GraphFileResult loaded = loadGraphFile(path);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    expectSameGraph(loaded.dataset.graph, read.dataset.graph);
    const GraphFileInfoResult info = inspectGraphFile(path);
    ASSERT_TRUE(info.ok) << info.error;
    EXPECT_TRUE(info.header.weighted);
    EXPECT_EQ(info.header.numVertices, 4u);
    EXPECT_EQ(info.header.numEdges, 3u);
}

TEST(GraphFile, SaveIsDeterministic)
{
    const DatasetResult built = tryMakeDataset("rmat6");
    ASSERT_TRUE(built.ok) << built.error;
    const Dataset& ds = built.dataset;
    const std::string a = tmpPath("det_a.dlx");
    const std::string b = tmpPath("det_b.dlx");
    std::string error;
    ASSERT_TRUE(saveGraphFile(a, ds, error)) << error;
    ASSERT_TRUE(saveGraphFile(b, ds, error)) << error;
    EXPECT_EQ(readAll(a), readAll(b));
}

/** A valid saved file the corruption tests below mutate. */
std::vector<char>
validFileBytes(const std::string& path)
{
    std::string error;
    const DatasetResult built = tryMakeDataset("rmat6");
    EXPECT_TRUE(built.ok) << built.error;
    EXPECT_TRUE(saveGraphFile(path, built.dataset, error)) << error;
    return readAll(path);
}

TEST(GraphFile, LoadsFromMisalignedImage)
{
    // loadGraphFileBytes promises any-alignment parsing (every field
    // and section element goes through memcpy). Park a valid image
    // at odd offsets inside a larger buffer — offset 1 misaligns
    // every u32/u64 in the file — and expect a clean, identical
    // load. Under UBSan this doubles as the misaligned-read gate for
    // the whole header/section parse path.
    const std::string path = tmpPath("misaligned.dlx");
    const DatasetResult built = tryMakeDataset("rmat6");
    ASSERT_TRUE(built.ok) << built.error;
    const Dataset& ds = built.dataset;
    std::string error;
    ASSERT_TRUE(saveGraphFile(path, ds, error)) << error;
    const std::vector<char> bytes = readAll(path);
    for (const std::size_t offset : {1u, 3u, 7u}) {
        std::vector<std::uint8_t> buffer(bytes.size() + offset + 8,
                                         0xAB);
        std::memcpy(buffer.data() + offset, bytes.data(),
                    bytes.size());
        const GraphFileResult r = loadGraphFileBytes(
            buffer.data() + offset, bytes.size(),
            "misaligned+" + std::to_string(offset));
        ASSERT_TRUE(r.ok) << r.error;
        expectSameGraph(r.dataset.graph, ds.graph);
        EXPECT_EQ(r.dataset.name, ds.name);
    }
}

TEST(GraphFile, MisalignedImageCorruptionStillDiagnosed)
{
    // The no-crash guarantee must hold at any alignment too: flip a
    // byte in a misaligned image and expect ok == false, not UB.
    const std::string path = tmpPath("misaligned_bad.dlx");
    const std::vector<char> bytes = validFileBytes(path);
    std::vector<std::uint8_t> buffer(bytes.size() + 2, 0);
    std::memcpy(buffer.data() + 1, bytes.data(), bytes.size());
    buffer[1 + 90] ^= 0x40; // a byte past the header
    const GraphFileResult r =
        loadGraphFileBytes(buffer.data() + 1, bytes.size(), "bad");
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
}

TEST(GraphFile, RejectsTruncation)
{
    const std::string path = tmpPath("trunc.dlx");
    std::vector<char> bytes = validFileBytes(path);
    bytes.resize(40); // inside the header
    writeAll(path, bytes);
    const GraphFileResult r = loadGraphFile(path);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("truncated"), std::string::npos)
        << r.error;

    std::vector<char> shortened = validFileBytes(path);
    shortened.resize(shortened.size() - 4); // inside a section
    writeAll(path, shortened);
    const GraphFileResult r2 = loadGraphFile(path);
    ASSERT_FALSE(r2.ok);
    EXPECT_NE(r2.error.find("truncated"), std::string::npos)
        << r2.error;
}

TEST(GraphFile, RejectsForeignMagic)
{
    const std::string path = tmpPath("magic.dlx");
    std::vector<char> bytes = validFileBytes(path);
    bytes[0] = 'X';
    writeAll(path, bytes);
    const GraphFileResult r = loadGraphFile(path);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("magic"), std::string::npos) << r.error;
}

TEST(GraphFile, RejectsVersionSkew)
{
    const std::string path = tmpPath("version.dlx");
    std::vector<char> bytes = validFileBytes(path);
    bytes[8] = 99; // version field, checked before the header hash
    writeAll(path, bytes);
    const GraphFileResult r = loadGraphFile(path);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("version"), std::string::npos) << r.error;
}

TEST(GraphFile, RejectsAnyFlippedByte)
{
    const std::string path = tmpPath("flip.dlx");
    const std::vector<char> good = validFileBytes(path);
    // One flip in the header payload, one in each section region.
    for (const std::size_t offset :
         {std::size_t(20), std::size_t(90), good.size() - 2}) {
        std::vector<char> bytes = good;
        bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
        writeAll(path, bytes);
        const GraphFileResult r = loadGraphFile(path);
        ASSERT_FALSE(r.ok) << "flip at " << offset;
        EXPECT_NE(r.error.find("checksum"), std::string::npos)
            << "flip at " << offset << ": " << r.error;
    }
}

TEST(GraphFile, MissingFileIsRecoverable)
{
    const GraphFileResult r = loadGraphFile(tmpPath("missing.dlx"));
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(GraphFile, HashBytesSeparatesInputs)
{
    const std::uint8_t a[16] = {1, 2, 3};
    std::uint8_t b[16] = {1, 2, 3};
    b[15] = 1;
    EXPECT_NE(hashBytes(a, sizeof a), hashBytes(b, sizeof b));
    EXPECT_EQ(hashBytes(a, sizeof a), hashBytes(a, sizeof a));
    EXPECT_NE(hashBytes(a, 8), hashBytes(a, 9)); // length-sensitive
}

// --- dataset names: file:, rmat edge cases ----------------------------

TEST(Datasets, FileNamesAreKnownButUnlistedScaleless)
{
    EXPECT_TRUE(knownDataset("file:some/graph.dlx"));
    EXPECT_FALSE(knownDataset("file:")); // empty path
    EXPECT_TRUE(isFileDataset("file:x.dlx"));
    EXPECT_FALSE(isFileDataset("rmat8"));
    EXPECT_EQ(defaultQuickScale("file:x.dlx"), 0u);
}

TEST(Datasets, RejectsZeroPaddedRmatNames)
{
    // "rmat0016" must not alias rmat16: the canonical id is R16.
    EXPECT_FALSE(knownDataset("rmat0016"));
    EXPECT_FALSE(knownDataset("rmat08"));
    EXPECT_TRUE(knownDataset("rmat8"));
    const DatasetResult r = tryMakeDataset("rmat0016");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("leading zeros"), std::string::npos)
        << r.error;
}

TEST(Datasets, UnknownNamesFailRecoverably)
{
    const DatasetResult r = tryMakeDataset("nosuchgraph");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown dataset"), std::string::npos);
}

TEST(Datasets, RmatIgnoresScaleOverride)
{
    // defaultQuickScale() returns 0 for rmatN; the quick-mode path
    // used to feed that 0 into the [4, 31] range check and die.
    const DatasetResult r = tryMakeDatasetAt("rmat8", 0);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.dataset.name, "R8");
    EXPECT_EQ(r.dataset.graph.numVertices, 256u);
    const DatasetResult ignored = tryMakeDatasetAt("rmat8", 12);
    ASSERT_TRUE(ignored.ok) << ignored.error;
    EXPECT_EQ(ignored.dataset.graph.numVertices, 256u);
}

TEST(Datasets, LoadsFileDatasets)
{
    const std::string path = tmpPath("viads.dlx");
    std::string error;
    const DatasetResult built = tryMakeDataset("rmat7");
    ASSERT_TRUE(built.ok) << built.error;
    const Dataset& ds = built.dataset;
    ASSERT_TRUE(saveGraphFile(path, ds, error)) << error;
    const DatasetResult r = tryMakeDataset("file:" + path);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.dataset.name, "R7");
    expectSameGraph(r.dataset.graph, ds.graph);
    // The scale override is meaningless for a fixed-size file.
    const DatasetResult at = tryMakeDatasetAt("file:" + path, 12);
    ASSERT_TRUE(at.ok) << at.error;
    expectSameGraph(at.dataset.graph, ds.graph);
}

TEST(Datasets, CorruptFileDatasetFailsAsData)
{
    const std::string path = tmpPath("corrupt_ds.dlx");
    std::vector<char> bytes = validFileBytes(path);
    bytes[bytes.size() - 1] ^= 0x01;
    writeAll(path, bytes);
    const DatasetResult r = tryMakeDataset("file:" + path);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("checksum"), std::string::npos) << r.error;
}

// --- the process-wide dataset cache -----------------------------------

TEST(DatasetCache, BuildsOncePerKey)
{
    datasetCacheClear();
    const CachedDataset a = datasetCacheGet("rmat6", 0, 1);
    ASSERT_TRUE(a.ok) << a.error;
    const CachedDataset b = datasetCacheGet("rmat6", 0, 1);
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.dataset.get(), b.dataset.get()); // same object
    const DatasetCacheStats stats = datasetCacheStats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.hits, 1u);
    datasetCacheClear();
}

TEST(DatasetCache, DistinguishesScaleAndSeed)
{
    datasetCacheClear();
    ASSERT_TRUE(datasetCacheGet("rmat6", 0, 1).ok);
    ASSERT_TRUE(datasetCacheGet("rmat6", 0, 2).ok);
    ASSERT_TRUE(datasetCacheGet("amazon", 10, 1).ok);
    ASSERT_TRUE(datasetCacheGet("amazon", 11, 1).ok);
    EXPECT_EQ(datasetCacheStats().builds, 4u);
    datasetCacheClear();
}

TEST(DatasetCache, FailuresAreNotCached)
{
    datasetCacheClear();
    const std::string name = "file:" + tmpPath("cache_missing.dlx");
    const CachedDataset a = datasetCacheGet(name, 0, 1);
    ASSERT_FALSE(a.ok);
    const CachedDataset b = datasetCacheGet(name, 0, 1);
    ASSERT_FALSE(b.ok);
    EXPECT_EQ(a.error, b.error);
    const DatasetCacheStats stats = datasetCacheStats();
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.hits, 0u);
    datasetCacheClear();
}

TEST(DatasetCache, FailedBuildAnswersOnlyTheRequestsWaitingOnIt)
{
    // The build opens a FIFO, which blocks until the test opens its
    // write end; then the build fails (not a regular file). Requests
    // that arrive meanwhile (each counted as a hit once it finds the
    // build) wait on that build and get its failure; the next request
    // builds again.
    datasetCacheClear();
    const std::string path = tmpPath("cache_fifo.dlx");
    std::remove(path.c_str());
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << path;
    const std::string name = "file:" + path;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    auto await = [&deadline](auto done) {
        while (!done() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };

    constexpr std::uint64_t waiters = 3;
    std::vector<CachedDataset> answers(waiters + 1);
    std::vector<std::thread> requests;
    auto request = [&](std::size_t i) {
        requests.emplace_back([&answers, &name, i] {
            answers[i] = datasetCacheGet(name, 0, 1);
        });
    };
    request(0);
    await([] { return datasetCacheStats().builds == 1; });
    for (std::size_t i = 1; i <= waiters; ++i)
        request(i);
    await([] { return datasetCacheStats().hits == waiters; });
    // A non-blocking open of the write end succeeds once the builder
    // is blocked opening the read end, and releases it.
    int fd = -1;
    await([&] {
        fd = ::open(path.c_str(), O_WRONLY | O_NONBLOCK);
        return fd >= 0;
    });
    EXPECT_GE(fd, 0) << "the build never opened " << path;
    if (fd >= 0)
        ::close(fd);
    for (std::thread& thread : requests)
        thread.join();

    for (const CachedDataset& answer : answers) {
        EXPECT_FALSE(answer.ok);
        EXPECT_NE(answer.error.find("not a regular file"),
                  std::string::npos)
            << answer.error;
    }
    EXPECT_EQ(datasetCacheStats().builds, 1u);
    EXPECT_EQ(datasetCacheStats().hits, waiters);
    std::remove(path.c_str());
    EXPECT_FALSE(datasetCacheGet(name, 0, 1).ok);
    EXPECT_EQ(datasetCacheStats().builds, 2u);
    datasetCacheClear();
}

TEST(DatasetCache, FailedLoadHealsOnTheNextRequest)
{
    // The fault-tolerance contract: a file: load that fails once is
    // not poisoned: the next request retries the filesystem and
    // succeeds if the file has appeared in the meantime (e.g. an NFS
    // blip, or a dataset staged by another job).
    datasetCacheClear();
    const std::string path = tmpPath("cache_heal.dlx");
    std::remove(path.c_str());
    const std::string name = "file:" + path;

    const CachedDataset miss = datasetCacheGet(name, 0, 1);
    ASSERT_FALSE(miss.ok);
    EXPECT_TRUE(miss.transient) << "file I/O failures are transient";

    // Stage the file and ask again: the failure was not cached, so
    // this retries the load.
    {
        const DatasetResult built = tryMakeDataset("rmat6", 1);
        ASSERT_TRUE(built.ok) << built.error;
        std::string error;
        ASSERT_TRUE(saveGraphFile(path, built.dataset, error))
            << error;
    }
    const CachedDataset healed = datasetCacheGet(name, 0, 1);
    EXPECT_TRUE(healed.ok) << healed.error;
    EXPECT_EQ(datasetCacheStats().builds, 2u);

    std::remove(path.c_str());
    datasetCacheClear();
}

// --- the convert driver -----------------------------------------------

int
runConvert(const std::vector<std::string>& args, std::string& out_text,
           std::string& err_text)
{
    std::vector<const char*> argv = {"convert"};
    for (const std::string& arg : args)
        argv.push_back(arg.c_str());
    std::ostringstream out;
    std::ostringstream err;
    const int code = convert::convertMain(
        static_cast<int>(argv.size()), argv.data(), out, err);
    out_text = out.str();
    err_text = err.str();
    return code;
}

TEST(Convert, ConvertsEdgeListAndVerifies)
{
    const std::string in = tmpPath("cli.el");
    const std::string dlx = tmpPath("cli.dlx");
    writeFile(in, "0 1\n1 2\n2 0\n");
    std::string out;
    std::string err;
    const int code =
        runConvert({in, "-o", dlx, "--verify"}, out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_NE(out.find("converted"), std::string::npos) << out;
    EXPECT_NE(out.find("checksums         OK"), std::string::npos)
        << out;
    const GraphFileResult loaded = loadGraphFile(dlx);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.dataset.name, fileStem(in));
}

TEST(Convert, SnapshotsCatalogDatasets)
{
    const std::string dlx = tmpPath("snap.dlx");
    std::string out;
    std::string err;
    const int code =
        runConvert({"--dataset", "rmat6", "-o", dlx}, out, err);
    EXPECT_EQ(code, 0) << err;
    const GraphFileResult loaded = loadGraphFile(dlx);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    const DatasetResult want = tryMakeDataset("rmat6");
    ASSERT_TRUE(want.ok) << want.error;
    expectSameGraph(loaded.dataset.graph, want.dataset.graph);
}

TEST(Convert, VerifyModeRejectsCorruptFiles)
{
    const std::string dlx = tmpPath("cliflip.dlx");
    std::vector<char> bytes = validFileBytes(dlx);
    bytes[bytes.size() - 3] ^= 0x10;
    writeAll(dlx, bytes);
    std::string out;
    std::string err;
    const int code = runConvert({"--verify", dlx}, out, err);
    EXPECT_EQ(code, 2);
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST(Convert, RejectsBadUsage)
{
    std::string out;
    std::string err;
    EXPECT_EQ(runConvert({"--dataset", "nosuch", "-o", "x"}, out,
                         err),
              2);
    EXPECT_NE(err.find("unknown dataset"), std::string::npos) << err;
    EXPECT_EQ(runConvert({"a.el", "--dataset", "rmat6", "-o", "x"},
                         out, err),
              2);
    EXPECT_NE(err.find("mutually exclusive"), std::string::npos)
        << err;
    EXPECT_EQ(runConvert({"a.el"}, out, err), 2);
    EXPECT_NE(err.find("-o"), std::string::npos) << err;
}

} // namespace
} // namespace dalorex

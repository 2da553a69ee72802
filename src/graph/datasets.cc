#include "graph/datasets.hh"

#include <algorithm>
#include <cctype>

#include "common/text.hh"
#include "graph/graphfile.hh"
#include "graph/rmat.hh"

namespace dalorex
{

namespace
{

/** Amazon co-purchase stand-in: full paper size at scale 18. */
Dataset
makeAmazon(unsigned scale, std::uint64_t seed)
{
    RmatParams params;
    params.scale = scale;       // 18 = 262,144 vertices: real AZ size
    params.edgeFactor = 5;      // ~1.2M directed edges after cleanup
    params.a = 0.45;            // co-purchase graphs are mildly skewed
    params.b = 0.22;
    params.c = 0.22;
    params.seed = seed;
    Dataset ds;
    ds.name = "AZ";
    ds.provenance = "synthetic stand-in for SNAP amazon0302 "
                    "(paper size V=262K, E~1.2M at scale 18), "
                    "mild degree skew, crawl-ordered ids";
    ds.graph = crawlOrder(rmatGraph(params));
    return ds;
}

/** Wikipedia stand-in: average degree 24 kept. */
Dataset
makeWiki(unsigned scale, std::uint64_t seed)
{
    RmatParams params;
    params.scale = scale;       // paper: 4.2M vertices
    params.edgeFactor = 24;     // paper average degree 101M/4.2M ~ 24
    params.a = 0.57;
    params.b = 0.19;
    params.c = 0.19;
    params.seed = seed + 17;
    Dataset ds;
    ds.name = "WK";
    ds.provenance = "synthetic stand-in for Wikipedia links, scaled "
                    "down, avg degree 24, strong skew, crawl-ordered "
                    "ids";
    ds.graph = crawlOrder(rmatGraph(params));
    return ds;
}

/** LiveJournal stand-in: average degree 15 kept. */
Dataset
makeLiveJournal(unsigned scale, std::uint64_t seed)
{
    RmatParams params;
    params.scale = scale;       // paper: 5.3M vertices
    params.edgeFactor = 15;     // paper average degree 79M/5.3M ~ 15
    params.a = 0.55;
    params.b = 0.19;
    params.c = 0.19;
    params.seed = seed + 41;
    Dataset ds;
    ds.name = "LJ";
    ds.provenance = "synthetic stand-in for soc-LiveJournal1, scaled "
                    "down, avg degree 15, crawl-ordered ids";
    ds.graph = crawlOrder(rmatGraph(params));
    return ds;
}

/** Alias matching shared by the factories and knownDataset(). */
bool
isAmazon(const std::string& id)
{
    return id == "amazon" || id == "az";
}

bool
isWiki(const std::string& id)
{
    return id == "wiki" || id == "wikipedia" || id == "wk";
}

bool
isLiveJournal(const std::string& id)
{
    return id == "livejournal" || id == "lj";
}

/**
 * Scale encoded in an "rmatN" id; -1 when `id` is not rmat-shaped.
 * Zero-padded ids ("rmat0016") are rejected: they would generate the
 * same graph as "rmat16" under a display name ("R0016") that splits
 * sweep baseline matching from the canonical "R16".
 */
int
rmatScaleOf(const std::string& id)
{
    if (id.rfind("rmat", 0) != 0)
        return -1;
    const std::string digits = id.substr(4);
    if (digits.empty() || digits.size() > 4)
        return -1;
    if (digits.size() > 1 && digits[0] == '0')
        return -1;
    int scale = 0;
    for (char ch : digits) {
        if (!std::isdigit(static_cast<unsigned char>(ch)))
            return -1;
        scale = scale * 10 + (ch - '0');
    }
    return scale;
}

DatasetResult
failBuild(const std::string& message)
{
    DatasetResult result;
    result.ok = false;
    result.error = message;
    return result;
}

} // namespace

bool
isFileDataset(const std::string& name)
{
    return name.rfind("file:", 0) == 0;
}

std::vector<DatasetListing>
datasetCatalog()
{
    return {
        {"amazon", "az",
         "co-purchase stand-in, paper size V=262K E~1.2M, mild skew"},
        {"wiki", "wikipedia, wk",
         "Wikipedia-links stand-in, avg degree 24, strong skew"},
        {"livejournal", "lj",
         "soc-LiveJournal1 stand-in, avg degree 15"},
        {"rmatN", "",
         "RMAT at scale N in [4,31] (Graph500 parameters, edge "
         "factor 10), e.g. rmat16"},
        {"file:PATH", "",
         "on-disk binary CSR written by `dalorex convert` "
         "(mmap-loaded, checksum-validated)"},
    };
}

bool
knownDataset(const std::string& name)
{
    // The path after "file:" is case-sensitive: check it unlowered.
    if (isFileDataset(name))
        return name.size() > 5;
    const std::string id = toLower(name);
    if (isAmazon(id) || isWiki(id) || isLiveJournal(id))
        return true;
    const int scale = rmatScaleOf(id);
    return scale >= 4 && scale <= 31;
}

unsigned
defaultQuickScale(const std::string& name)
{
    if (isFileDataset(name))
        return 0; // files are fixed size
    const std::string id = toLower(name);
    if (isAmazon(id) || isLiveJournal(id))
        return 15;
    if (isWiki(id))
        return 14;
    return 0; // rmatN carries its scale in the name
}

DatasetResult
tryMakeDatasetAt(const std::string& name, unsigned scale,
                 std::uint64_t seed)
{
    // Names whose size is not scalable resolve before the range
    // check, so the 0 defaultQuickScale() returns for them can never
    // read as an out-of-range scale.
    const std::string id = toLower(name);
    if (isFileDataset(name) || id.rfind("rmat", 0) == 0)
        return tryMakeDataset(name, seed);
    if (scale < 4 || scale > 31)
        return failBuild("dataset scale out of [4,31]: " +
                         std::to_string(scale));
    DatasetResult result;
    if (isAmazon(id))
        result.dataset = makeAmazon(scale, seed);
    else if (isWiki(id))
        result.dataset = makeWiki(scale, seed);
    else if (isLiveJournal(id))
        result.dataset = makeLiveJournal(scale, seed);
    else
        return tryMakeDataset(name, seed);
    return result;
}

DatasetResult
tryMakeDataset(const std::string& name, std::uint64_t seed)
{
    if (isFileDataset(name)) {
        const std::string path = name.substr(5);
        if (path.empty())
            return failBuild("file: dataset needs a path");
        GraphFileResult loaded = loadGraphFile(path);
        if (!loaded.ok)
            return failBuild(loaded.error);
        DatasetResult result;
        result.dataset = std::move(loaded.dataset);
        return result;
    }
    const std::string id = toLower(name);
    DatasetResult result;
    if (isAmazon(id)) {
        result.dataset = makeAmazon(18, seed);
        return result;
    }
    if (isWiki(id)) {
        result.dataset = makeWiki(18, seed);
        return result;
    }
    if (isLiveJournal(id)) {
        result.dataset = makeLiveJournal(18, seed);
        return result;
    }
    if (id.rfind("rmat", 0) == 0) {
        const int scale = rmatScaleOf(id);
        if (scale < 0)
            return failBuild(
                "bad rmat scale in dataset name: " + name +
                " (want rmatN, N in [4,31] without leading zeros)");
        if (scale < 4 || scale > 31)
            return failBuild("rmat scale out of [4,31]: " +
                             std::to_string(scale));
        RmatParams params;
        params.scale = static_cast<unsigned>(scale);
        params.edgeFactor = 10; // paper: "average ten edges per vertex"
        params.seed = seed;
        Dataset& ds = result.dataset;
        ds.name = "R" + std::to_string(scale);
        ds.provenance = "RMAT scale " + std::to_string(scale) +
                        " per the paper (Graph500 parameters, "
                        "edge factor 10)";
        ds.graph = rmatGraph(params);
        return result;
    }
    return failBuild(
        "unknown dataset: " + name +
        " (expected amazon|wiki|livejournal|rmatN|file:PATH)");
}

} // namespace dalorex

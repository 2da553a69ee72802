/**
 * @file
 * Named evaluation datasets.
 *
 * The paper evaluates real-world graphs — Amazon (V=262K, E=1.2M),
 * Wikipedia (V=4.2M, E=101M), LiveJournal (V=5.3M, E=79M) — and RMAT
 * graphs of scale 16/22/25/26. This environment has no network access to
 * SNAP downloads, and full-scale cycle-level simulation of the largest
 * inputs exceeds the time budget, so (README "Modelling
 * substitutions"):
 *
 *  - `amazon` is generated synthetically at the paper's FULL size
 *    (V=262,144, E~1.2M) with mild degree skew matching a co-purchase
 *    network;
 *  - `wiki` and `livejournal` are power-law stand-ins scaled down ~16x
 *    with the papers' average degree preserved (24 and 15) and strong
 *    skew;
 *  - `rmatN` follows the paper exactly at any scale; the default bench
 *    scales substitute R14/R16/R18 for the paper's R16/R22/R25/R26.
 *
 * Every dataset is deterministic in (name, seed).
 */

#ifndef DALOREX_GRAPH_DATASETS_HH
#define DALOREX_GRAPH_DATASETS_HH

#include <string>
#include <vector>

#include "graph/csr.hh"

namespace dalorex
{

/** A generated dataset plus its provenance note. */
struct Dataset
{
    std::string name;       //!< short id used in result tables (AZ, ...)
    std::string provenance; //!< what it stands in for
    Csr graph;
};

/** Outcome of building a dataset: the dataset, or a diagnostic. */
struct DatasetResult
{
    Dataset dataset;
    bool ok = true;
    std::string error; //!< one line, set when !ok
};

/**
 * Build a dataset by name, recoverably.
 *
 * Names: "amazon"/"AZ", "wiki"/"WK", "livejournal"/"LJ", "rmatN" for
 * N in [4, 31] without leading zeros (e.g. "rmat16"), or
 * "file:PATH" for a binary CSR file written by `dalorex convert`.
 * Unknown names, malformed rmat ids and unreadable/corrupt graph
 * files come back as ok == false with a one-line error — a bad
 * dataset must fail one sweep row, never the process.
 */
DatasetResult tryMakeDataset(const std::string& name,
                             std::uint64_t seed = 1);

/**
 * Same, but at an explicit vertex scale (V = 2^scale): benches shrink
 * the stand-ins under --quick while preserving average degree and
 * skew. rmatN and file: names ignore the override (an rmat scale
 * lives in the name; files are fixed size), so defaultQuickScale()'s
 * 0 return for them can never trip the [4, 31] range check.
 */
DatasetResult tryMakeDatasetAt(const std::string& name, unsigned scale,
                               std::uint64_t seed = 1);

/** True for "file:PATH" dataset names (on-disk binary CSR graphs). */
bool isFileDataset(const std::string& name);

/** One --list-datasets catalog entry. */
struct DatasetListing
{
    std::string name;    //!< canonical tryMakeDataset() name
    std::string aliases; //!< accepted alternates ("az, AZ")
    std::string note;    //!< what it stands in for
};

/** The named datasets plus the rmatN family, in listing order. */
std::vector<DatasetListing> datasetCatalog();

/**
 * True when the name is well-formed: a catalog alias, "rmatN" with N
 * in [4, 31] (no leading zeros), or "file:" with a non-empty path.
 * Lets batch layers reject bad names up front; whether a file:
 * dataset actually loads is only known at build time, where failures
 * surface through DatasetResult.
 */
bool knownDataset(const std::string& name);

/**
 * The named stand-ins' quick-mode vertex scale (amazon/livejournal
 * 15, wiki 14); 0 for rmatN and file: names, whose size is fixed.
 * Single source for the benches' --quick shrink and `dalorex sweep
 * --quick`.
 */
unsigned defaultQuickScale(const std::string& name);

} // namespace dalorex

#endif // DALOREX_GRAPH_DATASETS_HH

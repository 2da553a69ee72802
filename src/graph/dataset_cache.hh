/**
 * @file
 * Process-wide immutable dataset cache.
 *
 * Datasets are deterministic in (name, scale, seed), yet every sweep
 * worker used to regenerate — or re-load — its own private copy of
 * the identical graph: a 256-point sweep over one dataset built it
 * once per point. This cache shares one immutable Dataset per key
 * across the whole process; concurrent requests for the same key
 * wait on a single builder, so N workers trigger exactly one
 * generation or file load.
 *
 * Successful entries are never evicted: a long sweep touches its few
 * datasets thousands of times, and the working set (a handful of CSR
 * graphs) is small next to the per-scenario engine state. Failed
 * builds are not cached: a failure answers the requests already
 * waiting on it, and the next request builds again, so one flaky
 * mmap or a graph file that appears later does not poison a retried
 * row.
 */

#ifndef DALOREX_GRAPH_DATASET_CACHE_HH
#define DALOREX_GRAPH_DATASET_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "graph/datasets.hh"

namespace dalorex
{

/** Outcome of a cache lookup: a shared dataset, or a diagnostic. */
struct CachedDataset
{
    /** Never null when ok; immutable and shared across workers. */
    std::shared_ptr<const Dataset> dataset;
    bool ok = true;
    std::string error; //!< one line, set when !ok
    /** !ok only: whether the failure is worth retrying later (file
     *  I/O, which the next request tries again) vs deterministic (a
     *  bad generation spec, which would fail identically forever). */
    bool transient = false;
};

/**
 * The shared dataset for (name, scale, seed), building it on first
 * use. `scale` 0 means the dataset's native size (tryMakeDataset);
 * nonzero goes through tryMakeDatasetAt. Thread-safe; build errors
 * are recoverable and not cached.
 */
CachedDataset datasetCacheGet(const std::string& name, unsigned scale,
                              std::uint64_t seed);

/** Cache traffic counters (cumulative since process start/clear). */
struct DatasetCacheStats
{
    std::uint64_t builds = 0; //!< generations/loads actually run
    std::uint64_t hits = 0;   //!< requests served from the cache
};

DatasetCacheStats datasetCacheStats();

/** Drop every entry and zero the counters (tests, memory pressure). */
void datasetCacheClear();

} // namespace dalorex

#endif // DALOREX_GRAPH_DATASET_CACHE_HH

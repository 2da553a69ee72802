#include "graph/dataset_cache.hh"

#include <condition_variable>
#include <map>
#include <mutex>

#include "common/text.hh"

namespace dalorex
{
namespace
{

/**
 * One build and the requests waiting on it. A success stays in the
 * map for good. A failure leaves the map before it is published, so
 * it answers only the requests already waiting on it and the next
 * request builds again.
 */
struct Entry
{
    std::mutex mutex;
    std::condition_variable cv;
    bool built = false; //!< `value` holds the build's outcome
    CachedDataset value;
};

struct Cache
{
    std::mutex mutex;
    std::map<std::string, std::shared_ptr<Entry>> entries;
    DatasetCacheStats stats;
};

Cache&
cache()
{
    static Cache instance;
    return instance;
}

/**
 * Canonical cache key. Catalog aliases are case-insensitive
 * ("AZ" == "amazon" at build time), so lowercase them; file: paths
 * stay case-sensitive.
 */
std::string
cacheKey(const std::string& name, unsigned scale, std::uint64_t seed)
{
    const std::string id =
        isFileDataset(name) ? name : toLower(name);
    return id + "@" + std::to_string(scale) + "#" +
           std::to_string(seed);
}

} // namespace

CachedDataset
datasetCacheGet(const std::string& name, unsigned scale,
                std::uint64_t seed)
{
    Cache& c = cache();
    const std::string key = cacheKey(name, scale, seed);
    std::shared_ptr<Entry> entry;
    bool build = false;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        std::shared_ptr<Entry>& slot = c.entries[key];
        build = slot == nullptr;
        if (build) {
            slot = std::make_shared<Entry>();
            ++c.stats.builds;
        } else {
            ++c.stats.hits;
        }
        entry = slot;
    }

    if (!build) {
        std::unique_lock<std::mutex> lock(entry->mutex);
        entry->cv.wait(lock, [&entry] { return entry->built; });
        return entry->value;
    }

    // The build runs with no lock held, so a slow generation blocks
    // only requests for this key, never the map.
    CachedDataset result;
    DatasetResult made = scale > 0
                             ? tryMakeDatasetAt(name, scale, seed)
                             : tryMakeDataset(name, seed);
    if (!made.ok) {
        result.ok = false;
        result.error = made.error;
        // File loads fail for I/O reasons that can heal (the file
        // appears, the mount recovers); generation failures are
        // deterministic in the key and never will.
        result.transient = isFileDataset(name);
        std::lock_guard<std::mutex> lock(c.mutex);
        const auto it = c.entries.find(key);
        if (it != c.entries.end() && it->second == entry)
            c.entries.erase(it);
    } else {
        result.dataset =
            std::make_shared<const Dataset>(std::move(made.dataset));
    }

    {
        std::lock_guard<std::mutex> lock(entry->mutex);
        entry->value = result;
        entry->built = true;
    }
    entry->cv.notify_all();
    return result;
}

DatasetCacheStats
datasetCacheStats()
{
    Cache& c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return c.stats;
}

void
datasetCacheClear()
{
    Cache& c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
    c.stats = DatasetCacheStats{};
}

} // namespace dalorex

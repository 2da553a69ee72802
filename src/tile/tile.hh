/**
 * @file
 * One processing tile: PU activity state, task input queues, channel
 * queues and scratchpad accounting (Fig. 4).
 */

#ifndef DALOREX_TILE_TILE_HH
#define DALOREX_TILE_TILE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "tile/queue.hh"

namespace dalorex
{

/** Base class for per-tile application state (local array chunks). */
class AppTileState
{
  public:
    virtual ~AppTileState() = default;
};

/**
 * Activity counters of the single-issue in-order Processing Unit.
 * Dynamic energy follows ops/reads/writes; the TSU clock-gates the PU
 * when idle, so only busyCycles draw clock power.
 */
struct PuState
{
    Cycle busyUntil = 0;       //!< PU executes a task until this cycle
    Cycle busyCycles = 0;      //!< total cycles spent executing tasks
    std::uint64_t ops = 0;        //!< ALU/control operations retired
    std::uint64_t sramReads = 0;  //!< scratchpad word reads
    std::uint64_t sramWrites = 0; //!< scratchpad word writes
    std::uint64_t invocations = 0;
};

/** A processing tile: queues + PU + app state. */
class Tile
{
  public:
    TileId id = 0;

    PuState pu;

    /** Input queues, indexed by TaskId. */
    std::vector<WordQueue> iqs;
    /** Outbound channel queues, indexed by ChannelId. */
    std::vector<MsgQueue> cqs;

    /** Entries across all IQs (engine idle detection). */
    std::uint32_t pendingIqEntries = 0;
    /** Entries across all CQs (engine idle detection). */
    std::uint32_t pendingCqEntries = 0;

    /** Round-robin pointer for TSU tie-breaking. */
    std::uint32_t rrNext = 0;
    /** Round-robin pointer for channel-queue injection. */
    std::uint32_t injectNext = 0;

    /**
     * Simulator fast-path flag (no architectural meaning): the TSU
     * found nothing runnable and sleeps until one of this tile's
     * queues mutates.
     */
    bool schedStalled = false;

    /** Per-task invocation counts (profile + Fig. 7 ops). */
    std::vector<std::uint64_t> taskInvocations;

    /** Application chunk data for this tile. */
    std::unique_ptr<AppTileState> state;

    /** Words of scratchpad used by application data arrays. */
    std::uint64_t dataWords = 0;

    /** True when this tile can possibly do anything this cycle. */
    bool
    quiet(Cycle now) const
    {
        return pendingIqEntries == 0 && pendingCqEntries == 0 &&
               pu.busyUntil <= now;
    }

    /** Scratchpad bytes consumed by data plus all queue storage. */
    std::uint64_t
    scratchpadBytes() const
    {
        std::uint64_t bytes = dataWords * wordBytes;
        for (const auto& iq : iqs)
            bytes += iq.storageBytes();
        for (const auto& cq : cqs)
            bytes += cq.storageBytes();
        return bytes;
    }
};

} // namespace dalorex

#endif // DALOREX_TILE_TILE_HH

/**
 * @file
 * The Dalorex machine: a 2D grid of processing tiles connected by the
 * NoC, simulated cycle by cycle.
 *
 * Each cycle the engine (1) advances the network, (2) drains channel
 * queues into the network at every tile (the router's local input
 * port), and (3) lets each idle PU's TSU pick and execute a runnable
 * task, charging its cycle cost. Termination follows the paper's
 * hierarchical idle signal: when every queue, PU and router is empty,
 * the run completes after an idle-tree detection latency; in
 * epoch-synchronized mode the host instead triggers the next epoch
 * (Sec. III-C).
 *
 * Execution is sharded: the tiles are split into contiguous ranges,
 * one per engine worker (MachineConfig::engineThreads). Each cycle the
 * NoC compute phase and the tile phase run shard-parallel; everything
 * a shard mutates is either owned by it (its tiles, their routers) or
 * staged/accumulated per shard and merged serially in fixed shard
 * order. No phase ever reads another shard's in-cycle mutations, so
 * RunStats are byte-identical for every engineThreads value — the
 * serial engine is simply the one-shard case.
 *
 * Stepping is event-driven, as the paper's tiles are: a task runs
 * only where its queue has work. Each shard keeps an intrusive
 * active-tile worklist — a tile is on it iff its PU is busy, it has
 * pending IQ entries or pending CQ entries — maintained incrementally
 * at the exact points activity is created (deliveries, seeds, host
 * epoch charges; a stepped tile's own pushes keep it non-quiet). The
 * tile phase iterates only the worklist, dropping tiles that went
 * quiet (deferred removal keeps membership O(1)), so barrier windows,
 * convergence tails and sparse frontiers cost O(active) per cycle
 * instead of O(tiles). Builds with the ownership checker assert the
 * worklist invariant of both layers and the conservation of queued
 * and in-flight work in every serial tail.
 *
 * The ablation ladder of Fig. 5 maps onto MachineConfig knobs:
 * distribution (Uniform-Distr), policy (Traffic-Aware), topology
 * (Torus-NoC), barrier + invokeOverhead (Data-Local vs Basic-TSU).
 */

#ifndef DALOREX_SIM_MACHINE_HH
#define DALOREX_SIM_MACHINE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "graph/partition.hh"
#include "noc/network.hh"
#include "sim/app.hh"
#include "tile/task.hh"
#include "tile/tile.hh"
#include "tile/tsu.hh"

namespace dalorex
{

/** Static configuration of one Dalorex machine instance. */
struct MachineConfig
{
    std::uint32_t width = 16;
    std::uint32_t height = 16;
    NocTopology topology = NocTopology::torus;
    std::uint32_t rucheFactor = 0;    //!< for torusRuche
    std::uint32_t nocBufferSlots = 4; //!< per (port, channel), messages
    SchedPolicy policy = SchedPolicy::trafficAware;
    TsuThresholds thresholds{};
    Distribution distribution = Distribution::lowOrder;
    /** Run epoch-synchronized (global barrier between epochs). */
    bool barrier = false;
    /**
     * Extra cycles charged per task invocation: 50 models Tesseract's
     * interrupting remote calls (ablation Data-Local); 0 models the
     * TSU's non-interrupting invocation.
     */
    std::uint32_t invokeOverhead = 0;
    /**
     * Engine worker threads: the tile grid is split into this many
     * contiguous shards stepped in parallel each cycle. Results are
     * byte-identical for every value (see the file comment); raising
     * it only buys wall-clock speed on large grids. Clamped to the
     * tile count; 0 behaves like 1.
     */
    unsigned engineThreads = 1;
    /** Hard cycle limit (0 = none); exceeding it ends the run with
     *  RunStatus::timeout instead of killing the process. */
    Cycle maxCycles = 0;
    /**
     * Fabrication-time scratchpad capacity per tile in bytes; 0 sizes
     * each tile to its actual usage. The figure files and the C++
     * benches provision 4.2MB per tile (Sec. IV-B), which sets SRAM
     * leakage and the tile side length (NoC wire energy) regardless
     * of dataset footprint.
     */
    std::uint64_t scratchpadProvisionBytes = 0;

    std::uint32_t numTiles() const { return width * height; }
};

/**
 * Cooperative run control for Machine::run: plain data, read by the
 * engine in the serial tail of the phase barrier, so a stop unwinds
 * the whole SPMD crew deterministically at the next cycle boundary —
 * stats stay internally consistent up to the cycle the run stopped —
 * instead of the process being SIGKILLed.
 *
 * `cancel` is an optional external flag (a SIGINT handler, a
 * sweep-wide interrupt), polled every cycle; a set flag yields
 * RunStatus::cancelled. `deadline` is the run's wall-clock limit: the
 * engine reads steady_clock itself, at the first serial tail (so a
 * budget spent before the run unwinds at cycle 0) and then every 64th
 * stepped cycle, so expiry is noticed within 64 stepped cycles and
 * yields RunStatus::timeout. time_point::max() — the default, and
 * what deadlineAfter() saturates a budget too large for the clock to —
 * means no deadline: the engine never reads the clock.
 */
struct RunControl
{
    const std::atomic<bool>* cancel = nullptr;
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
};

/** Everything measured during one run (energy model input). */
struct RunStats
{
    /** How the run ended (completed unless RunControl / the cycle
     *  watchdogs stopped it early; see RunStatus). */
    RunStatus status = RunStatus::completed;
    /** One-line diagnostic for a non-completed status ("" otherwise),
     *  e.g. the deadlock watchdog's pending-work counters. */
    std::string statusDetail;

    Cycle cycles = 0;             //!< total runtime incl. idle detect
    std::uint64_t epochs = 1;     //!< barrier mode: epochs executed
    std::uint64_t invocations = 0;
    std::vector<std::uint64_t> invocationsPerTask;

    std::uint64_t puBusyCycles = 0; //!< sum over tiles
    std::uint64_t puOps = 0;        //!< ALU/control ops, all tiles
    std::uint64_t sramReads = 0;    //!< PU scratchpad word reads
    std::uint64_t sramWrites = 0;   //!< PU scratchpad word writes
    std::uint64_t tsuReads = 0;     //!< TSU queue-port word reads
    std::uint64_t tsuWrites = 0;    //!< TSU queue-port word writes
    std::uint64_t localBypassMsgs = 0; //!< OQ->IQ same-tile deliveries
    std::uint64_t edgesProcessed = 0;  //!< app-counted edge visits

    NocStats noc;

    /**
     * Simulator execution metrics (scan-occupancy instrumentation).
     * These measure the engine's own work — cycle-loop iterations
     * actually stepped (fast-forward skips the rest), tile/router
     * visits performed, and the visits the active-set scan avoided
     * relative to visiting every tile and router each stepped cycle.
     * They are *not* architectural: the report renders them in its
     * execution object, beside engineThreads.
     */
    Cycle engineSteppedCycles = 0;   //!< cycle-loop iterations run
    Cycle nocSteppedCycles = 0;      //!< iterations with NoC traffic
    std::uint64_t tileScans = 0;     //!< tile visits, all tile phases
    std::uint64_t routerScans = 0;   //!< router visits, all NoC phases
    /** Tile visits a full scan would have done but the active-set
     *  scan skipped: engineSteppedCycles x tiles - tileScans. */
    std::uint64_t activeTileCyclesSaved = 0;
    /** Same for router visits in the NoC compute phases, against
     *  nocSteppedCycles x tiles. */
    std::uint64_t activeRouterCyclesSaved = 0;
    /** Fraction of the full tile scan actually performed in [0, 1]. */
    double tileScanOccupancy() const;
    /** Fraction of the full router scan actually performed. */
    double routerScanOccupancy() const;

    std::uint64_t scratchpadBytesTotal = 0;
    std::uint64_t scratchpadBytesMax = 0; //!< largest tile footprint

    /** Per-tile PU busy cycles (Fig. 10 heatmap). */
    std::vector<Cycle> puBusyPerTile;
    /** Per-tile router active cycles (Fig. 10 heatmap). */
    std::vector<Cycle> routerActivePerTile;

    /** Mean PU utilization in [0, 1]. */
    double utilization() const;
    /** All scratchpad word accesses (memory-bandwidth numerator). */
    std::uint64_t
    memAccesses() const
    {
        return sramReads + sramWrites + tsuReads + tsuWrites;
    }
};

/** The `stats` keys of the report ahead of `stats.noc`, in report
 *  order (nocCounters lists the NoC's). */
inline constexpr Counter<RunStats> runCounters[] = {
    {"cycles", &RunStats::cycles},
    {"epochs", &RunStats::epochs},
    {"invocations", &RunStats::invocations},
    {"edges_processed", &RunStats::edgesProcessed},
    {"pu_busy_cycles", &RunStats::puBusyCycles},
    {"pu_ops", &RunStats::puOps},
    {"sram_reads", &RunStats::sramReads},
    {"sram_writes", &RunStats::sramWrites},
    {"tsu_reads", &RunStats::tsuReads},
    {"tsu_writes", &RunStats::tsuWrites},
    {"local_bypass_msgs", &RunStats::localBypassMsgs},
    {"utilization", nullptr, &RunStats::utilization},
    {"scratchpad_bytes_total", &RunStats::scratchpadBytesTotal},
    {"scratchpad_bytes_max", &RunStats::scratchpadBytesMax},
};

/** The `execution` keys of the report after `engine_threads`, in
 *  report order: the engine's own work, not architectural. */
inline constexpr Counter<RunStats> executionCounters[] = {
    {"stepped_cycles", &RunStats::engineSteppedCycles},
    {"noc_stepped_cycles", &RunStats::nocSteppedCycles},
    {"tile_scans", &RunStats::tileScans},
    {"router_scans", &RunStats::routerScans},
    {"active_tile_cycles_saved", &RunStats::activeTileCyclesSaved},
    {"active_router_cycles_saved", &RunStats::activeRouterCyclesSaved},
    {"tile_scan_occupancy", nullptr, &RunStats::tileScanOccupancy},
    {"router_scan_occupancy", nullptr, &RunStats::routerScanOccupancy},
};

/**
 * One engine shard: a contiguous tile range plus everything its
 * worker accumulates during a cycle. Deltas and the progress flag are
 * merged (and reset) serially after the tile phase; the stat counters
 * accumulate across the whole run and fold into RunStats at the end.
 * Cache-line aligned so concurrent shard workers never false-share.
 */
struct alignas(64) ShardCtx
{
    std::uint32_t index = 0; //!< shard id (network stat routing)
    TileId beginTile = 0;
    TileId endTile = 0;

    // Per-cycle deltas against the engine's global counters.
    std::int64_t pendingIqDelta = 0;
    std::int64_t pendingCqDelta = 0;
    bool progressed = false;

    // Per-cycle idle/fast-forward aggregates over the shard's tiles,
    // refreshed by each tile phase: the busiest PU (drain tail) and
    // the earliest future event (exactness-preserving fast-forward).
    Cycle maxBusyUntil = 0;
    Cycle nextEvent = ~Cycle(0);

    /**
     * Active-tile worklist, kept as an intrusive bitmap over the
     * shard's tile range (bit t - beginTile).
     * Invariant between phases: every non-quiet tile of the shard —
     * busy PU, pending IQ entries or pending CQ entries — has its
     * bit set. Bits are set at the points where activity is created
     * (deliveries, seeds, host charges; O(1), idempotent) and
     * cleared by the removal sweep inside the tile phase once a tile
     * is quiet. A bitmap instead of an index list keeps the
     * iteration in ascending tile order — the prefetch-friendly
     * memory walk of a full scan, minus the quiet tiles. Builds with
     * the ownership checker assert the invariant in every serial
     * tail (checkWorklists).
     */
    std::vector<std::uint64_t> activeMask;
    /** Tile visits this shard performed (whole-run accumulator). */
    std::uint64_t tileScans = 0;

    // Whole-run stat accumulators (merged in shard order at the end).
    std::uint64_t tsuReads = 0;
    std::uint64_t tsuWrites = 0;
    std::uint64_t localBypassMsgs = 0;
    std::uint64_t edgesProcessed = 0;
};

/**
 * Execution context handed to a task body. All scratchpad traffic and
 * ALU work the task performs must be charged through it; the PU stays
 * busy for the accumulated cycle count.
 */
class TaskCtx
{
  public:
    TaskCtx(Machine& machine, Tile& tile, std::uint32_t task,
            ShardCtx& shard);

    /** Pre-loaded parameter i (preload tasks only). */
    Word
    param(unsigned i) const
    {
        return params_[i];
    }

    /** Peek the head entry of this task's IQ without popping (T1). */
    const Word* peek() const;
    /** Pop the head entry of this task's IQ (T1 once done). */
    void pop();

    /** Free message slots in a channel queue (T1's !CQ1.full). */
    std::uint32_t cqFree(ChannelId channel) const;

    /**
     * Emit a message on `channel`: the head flit is the *global* index
     * into the channel's distributed array (the head encoder derives
     * destination tile + local index), `rest` are the remaining
     * parameter flits. The channel queue must have space — TSU
     * guarantee or a prior cqFree() check. Charges one store per flit.
     */
    void send(ChannelId channel, Word index,
              std::initializer_list<Word> rest);

    /** Free entries in a local task's IQ (T4's !IQ1.full). */
    std::uint32_t iqFree(TaskId task) const;

    /** Enqueue into a same-tile task's IQ (T3 -> IQ4, T4 -> IQ1). */
    void enqueueLocal(TaskId task, std::initializer_list<Word> words);

    /** Charge ALU/control operations (1 cycle each). */
    void
    charge(std::uint32_t ops)
    {
        ops_ += ops;
    }

    /** Charge scratchpad word reads (1 cycle each). */
    void
    read(std::uint32_t n = 1)
    {
        reads_ += n;
    }

    /** Charge scratchpad word writes (1 cycle each). */
    void
    write(std::uint32_t n = 1)
    {
        writes_ += n;
    }

    /** Count app-level edge visits (throughput metric of Fig. 7). */
    void countEdges(std::uint64_t n);

    /** Total cycles accumulated so far. */
    std::uint32_t
    cyclesCharged() const
    {
        return ops_ + reads_ + writes_;
    }

    std::uint32_t opsCharged() const { return ops_; }
    std::uint32_t readsCharged() const { return reads_; }
    std::uint32_t writesCharged() const { return writes_; }

    /** Queue pushes/pops performed (watchdog progress signal). */
    std::uint32_t mutations() const { return mutations_; }

  private:
    friend class Machine;

    Machine& machine_;
    Tile& tile_;
    std::uint32_t task_;
    ShardCtx& shard_;
    const Word* params_ = nullptr;
    std::uint32_t ops_ = 0;
    std::uint32_t reads_ = 0;
    std::uint32_t writes_ = 0;
    std::uint32_t mutations_ = 0;
};

/** The simulated Dalorex chip. */
class Machine
{
  public:
    /**
     * @param config       Machine shape and policy knobs.
     * @param num_vertices Dataset vertex count (partitioning).
     * @param num_edges    Dataset edge count (partitioning).
     */
    Machine(const MachineConfig& config, VertexId num_vertices,
            EdgeId num_edges);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    // --- registration (App::configure) ----------------------------
    /** Register a task; returns its TaskId (registration order). */
    TaskId addTask(TaskDef def);
    /** Register a channel; returns its ChannelId. */
    ChannelId addChannel(ChannelDef def);
    /** Install per-tile app state. */
    void setTileState(TileId tile,
                      std::unique_ptr<AppTileState> state);
    /** Account `words` of scratchpad data on a tile. */
    void addDataWords(TileId tile, std::uint64_t words);

    // --- host operations (seeding / epoch control) ----------------
    /** Host-side push into a tile's IQ (program load; not charged). */
    void seed(TileId tile, TaskId task,
              std::initializer_list<Word> words);
    /** Charge host-triggered per-tile work (epoch bitmap scans). */
    void hostCharge(TileId tile, std::uint32_t ops, std::uint32_t reads,
                    std::uint32_t writes);

    // --- run -------------------------------------------------------
    /**
     * Execute the app to completion; callable once per Machine.
     * `control` (may be nullptr: run to completion) is read in the
     * per-cycle serial section, so cancellation or an expired
     * deadline unwinds the run at a cycle boundary with
     * RunStats::status reporting why (see RunControl).
     */
    RunStats run(App& app, const RunControl* control = nullptr);

#if DALOREX_OWNERSHIP_CHECKS
    /**
     * Test-only: perform a deliberate cross-shard write under a
     * parallel-phase claim so ownership_test can prove the checker
     * fires (panics). Never reached by real execution paths.
     */
    void debugInjectOwnershipViolation();
#endif

    // --- accessors ---------------------------------------------------
    const MachineConfig& config() const { return config_; }
    const Partition& partition() const { return partition_; }
    std::uint32_t numTiles() const { return config_.numTiles(); }
    Tile& tile(TileId t) { return tiles_[t]; }

    /** App state of a tile, downcast to the app's type. */
    template <typename StateT>
    StateT&
    state(TileId t)
    {
        return static_cast<StateT&>(*tiles_[t].state);
    }

    /** App state of the tile a TaskCtx runs on. */
    template <typename StateT>
    StateT&
    state(const Tile& tile)
    {
        return static_cast<StateT&>(*tiles_[tile.id].state);
    }

  private:
    friend class TaskCtx;

    /** Deliver a network message into its target task's IQ. */
    bool deliver(const Message& msg);
    /** Move at most one CQ message into the network / local IQ. */
    void injectFromCqs(Tile& tile, Cycle now, ShardCtx& shard);
    /** Let the TSU invoke one task if the PU is idle. */
    void stepPu(Tile& tile, Cycle now, ShardCtx& shard);
    /** Size all queues after registration. Each queue allocates its
     *  host storage on first use and grows it with its occupancy. */
    void finalizeQueues();
    /** Partition tiles into `shards` contiguous ranges. */
    void buildShards(unsigned shards);
    /**
     * Queue a tile on its shard's active worklist (no-op when already
     * a member). Called wherever activity is created: deliveries,
     * host seeds/charges and the initial post-start sweep. Only the
     * owning shard's worker (or a serial section) may call this.
     */
    void activateTile(TileId t);
    /** Step one tile (inject + PU) and fold its idle/fast-forward
     *  contribution into the shard aggregates. */
    void stepTile(Tile& tile, Cycle now, ShardCtx& shard);
    /** Advance one shard's active tiles one cycle (inject + PU step)
     *  and refresh its idle/fast-forward aggregates. */
    void tilePhase(unsigned shard_index, Cycle now);
#if DALOREX_OWNERSHIP_CHECKS
    /**
     * Panic unless the worklist invariants hold: every non-quiet tile
     * and every router holding a message is on its shard's worklist.
     * A tile or router missing from one would never be stepped again.
     * Run in the serial tail of every cycle.
     */
    void checkWorklists() const;
    /**
     * Panic unless work is conserved: each tile's pending IQ and CQ
     * entries equal its queues' summed counts, pendingIq_ and
     * pendingCq_ equal the sums over tiles, and the messages injected
     * and not yet delivered equal those buffered in the routers'
     * FIFOs. A queue changed behind the counters' back would end a
     * run with work left or never let it end. Run in the serial tail
     * of every cycle.
     */
    void checkConservation() const;
#endif
    /** Global idle check (exact outstanding-work counters). */
    bool
    allIdle() const
    {
        return pendingIq_ == 0 && pendingCq_ == 0 &&
               network_ && network_->quiescent();
    }

    MachineConfig config_;
    Partition partition_;
    std::vector<TaskDef> taskDefs_;
    std::vector<ChannelDef> channelDefs_;
    std::vector<Tile> tiles_;
    std::unique_ptr<Network> network_;

    // Execution shards: contiguous tile ranges plus per-shard
    // accumulators; tileShard_ maps tile -> owning shard.
    std::vector<ShardCtx> shards_;
    std::vector<std::uint32_t> tileShard_;

    bool finalized_ = false;
    bool ran_ = false;
    Cycle now_ = 0;

    // Exact outstanding-work accounting for idle detection.
    std::uint64_t pendingIq_ = 0;
    std::uint64_t pendingCq_ = 0;
    Cycle lastProgress_ = 0;

    RunStats stats_;
};

} // namespace dalorex

#endif // DALOREX_SIM_MACHINE_HH

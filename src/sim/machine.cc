#include "sim/machine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/ownership.hh"

namespace dalorex
{

namespace
{
constexpr Cycle neverCycle = ~Cycle(0);
/** A run that makes no progress for this many cycles ends with
 *  RunStatus::deadlock (a kernel bug) instead of spinning forever. */
constexpr Cycle watchdogCycles = 1'000'000;
/**
 * The serial tail reads the clock for RunControl::deadline every this
 * many stepped cycles. One steady_clock::now() costs over half a
 * stepped cycle of a 1x1 grid (about 40 ns vs 55-70 ns on a 4-vCPU
 * Xeon), so a read per cycle would slow small runs by well over half;
 * one per 64 costs about 1%.
 */
constexpr Cycle deadlinePollStride = 64;
} // namespace

double
RunStats::utilization() const
{
    if (cycles == 0 || puBusyPerTile.empty())
        return 0.0;
    return static_cast<double>(puBusyCycles) /
           (static_cast<double>(cycles) *
            static_cast<double>(puBusyPerTile.size()));
}

double
RunStats::tileScanOccupancy() const
{
    const std::uint64_t denominator = tileScans + activeTileCyclesSaved;
    if (denominator == 0)
        return 0.0;
    return static_cast<double>(tileScans) /
           static_cast<double>(denominator);
}

double
RunStats::routerScanOccupancy() const
{
    const std::uint64_t denominator =
        routerScans + activeRouterCyclesSaved;
    if (denominator == 0)
        return 0.0;
    return static_cast<double>(routerScans) /
           static_cast<double>(denominator);
}

// ---------------------------------------------------------------- TaskCtx

TaskCtx::TaskCtx(Machine& machine, Tile& tile, std::uint32_t task,
                 ShardCtx& shard)
    : machine_(machine), tile_(tile), task_(task), shard_(shard)
{
}

const Word*
TaskCtx::peek() const
{
    return tile_.iqs[task_].front();
}

void
TaskCtx::pop()
{
    DLX_OWN_WRITE(&machine_, tile_.id, "TaskCtx::pop");
    tile_.iqs[task_].pop();
    --tile_.pendingIqEntries;
    --shard_.pendingIqDelta;
    ++mutations_;
    // IQ space appeared: re-arm deliveries sleeping on this tile.
    machine_.network_->wakeRouter(tile_.id);
}

std::uint32_t
TaskCtx::cqFree(ChannelId channel) const
{
    return tile_.cqs[channel].freeEntries();
}

void
TaskCtx::send(ChannelId channel, Word index,
              std::initializer_list<Word> rest)
{
    const ChannelDef& def = machine_.channelDefs_[channel];
    panic_if(rest.size() + 1 != def.numWords,
             "send on channel ", def.name, " with ", rest.size() + 1,
             " words, expected ", int(def.numWords));

    const Partition& part = machine_.partition_;
    Message msg;
    msg.channel = channel;
    msg.numWords = def.numWords;
    if (def.encode == HeadEncode::vertex) {
        msg.dest = part.vertexOwner(index);
        msg.words[0] = part.vertexLocal(index);
    } else {
        msg.dest = part.edgeOwner(index);
        msg.words[0] = part.edgeLocal(index);
    }
    unsigned w = 1;
    for (Word word : rest)
        msg.words[w++] = word;

    DLX_OWN_WRITE(&machine_, tile_.id, "TaskCtx::send");
    tile_.cqs[channel].push(msg);
    ++tile_.pendingCqEntries;
    ++shard_.pendingCqDelta;
    ++mutations_;
    // The PU stores each flit into the channel queue.
    write(def.numWords);
}

std::uint32_t
TaskCtx::iqFree(TaskId task) const
{
    return tile_.iqs[task].freeEntries();
}

void
TaskCtx::enqueueLocal(TaskId task, std::initializer_list<Word> words)
{
    WordQueue& iq = tile_.iqs[task];
    panic_if(words.size() != iq.entryWords(),
             "enqueueLocal entry width mismatch on task ", int(task));
    DLX_OWN_WRITE(&machine_, tile_.id, "TaskCtx::enqueueLocal");
    Word buf[maxMsgWords];
    unsigned w = 0;
    for (Word word : words)
        buf[w++] = word;
    iq.push(buf);
    ++tile_.pendingIqEntries;
    ++shard_.pendingIqDelta;
    ++mutations_;
    write(static_cast<std::uint32_t>(words.size()));
}

void
TaskCtx::countEdges(std::uint64_t n)
{
    shard_.edgesProcessed += n;
}

// ---------------------------------------------------------------- Machine

Machine::Machine(const MachineConfig& config, VertexId num_vertices,
                 EdgeId num_edges)
    : config_(config),
      partition_(num_vertices, num_edges, config.numTiles(),
                 config.distribution)
{
    fatal_if(config_.numTiles() == 0, "machine needs at least one tile");
    if (config_.topology == NocTopology::torusRuche)
        fatal_if(config_.rucheFactor < 2,
                 "torus-ruche requires rucheFactor >= 2");
    tiles_.resize(config_.numTiles());
    for (TileId t = 0; t < tiles_.size(); ++t)
        tiles_[t].id = t;
}

TaskId
Machine::addTask(TaskDef def)
{
    panic_if(finalized_, "addTask after finalize");
    panic_if(def.fn == nullptr, "task ", def.name, " has no body");
    panic_if(def.paramWords == 0 || def.paramWords > maxMsgWords,
             "task ", def.name, " parameter width out of range");
    taskDefs_.push_back(std::move(def));
    return static_cast<TaskId>(taskDefs_.size() - 1);
}

ChannelId
Machine::addChannel(ChannelDef def)
{
    panic_if(finalized_, "addChannel after finalize");
    panic_if(def.numWords == 0 || def.numWords > maxMsgWords,
             "channel ", def.name, " word count out of range");
    channelDefs_.push_back(std::move(def));
    return static_cast<ChannelId>(channelDefs_.size() - 1);
}

void
Machine::setTileState(TileId tile, std::unique_ptr<AppTileState> state)
{
    tiles_[tile].state = std::move(state);
}

void
Machine::addDataWords(TileId tile, std::uint64_t words)
{
    tiles_[tile].dataWords += words;
}

void
Machine::finalizeQueues()
{
    panic_if(taskDefs_.empty(), "app registered no tasks");
    for (const ChannelDef& ch : channelDefs_) {
        panic_if(ch.targetTask >= taskDefs_.size(),
                 "channel ", ch.name, " targets unknown task");
        panic_if(taskDefs_[ch.targetTask].paramWords != ch.numWords,
                 "channel ", ch.name, " word count ", int(ch.numWords),
                 " does not match target task IQ entry width ",
                 int(taskDefs_[ch.targetTask].paramWords));
    }
    for (const ChannelDef& ch : channelDefs_)
        taskDefs_[ch.targetTask].channelFed = true;
    for (const TaskDef& def : taskDefs_) {
        panic_if(def.outChannel != noChannel &&
                     def.outChannel >= channelDefs_.size(),
                 "task ", def.name, " writes unknown channel");
        if (def.outChannel != noChannel && def.maxOutMsgs > 0) {
            panic_if(channelDefs_[def.outChannel].cqCapacity <
                         def.maxOutMsgs,
                     "task ", def.name,
                     " can never run: maxOutMsgs exceeds CQ capacity");
        }
    }

    for (Tile& tile : tiles_) {
        tile.iqs.resize(taskDefs_.size());
        for (std::size_t t = 0; t < taskDefs_.size(); ++t) {
            WordQueue& iq = tile.iqs[t];
            iq.init(taskDefs_[t].paramWords, taskDefs_[t].iqCapacity);
            // Bake the traffic-aware occupancy thresholds into
            // integer watermarks (scheduling hot path).
            iq.setHighMark(static_cast<std::uint32_t>(std::ceil(
                config_.thresholds.iqHigh * iq.capacity())));
        }
        tile.cqs.resize(channelDefs_.size());
        for (std::size_t c = 0; c < channelDefs_.size(); ++c) {
            MsgQueue& cq = tile.cqs[c];
            cq.init(channelDefs_[c].numWords, channelDefs_[c].cqCapacity);
            cq.setLowMark(static_cast<std::uint32_t>(std::floor(
                config_.thresholds.oqLow * cq.capacity())));
        }
        tile.taskInvocations.assign(taskDefs_.size(), 0);
    }
    finalized_ = true;
}

void
Machine::buildShards(unsigned shards)
{
    const auto tiles = static_cast<TileId>(tiles_.size());
    const unsigned n =
        std::max(1u, std::min<unsigned>(shards, tiles));
    shards_.assign(n, ShardCtx{});
    tileShard_.assign(tiles, 0);
    for (unsigned s = 0; s < n; ++s) {
        ShardCtx& shard = shards_[s];
        shard.index = s;
        shard.beginTile =
            static_cast<TileId>(std::uint64_t(tiles) * s / n);
        shard.endTile =
            static_cast<TileId>(std::uint64_t(tiles) * (s + 1) / n);
        for (TileId t = shard.beginTile; t < shard.endTile; ++t)
            tileShard_[t] = s;
        shard.activeMask.assign(
            (shard.endTile - shard.beginTile + 63) / 64, 0);
    }
}

void
Machine::activateTile(TileId t)
{
    if (shards_.empty())
        return; // pre-run call; the initial sweep in run() covers it
    DLX_OWN_WRITE(this, t, "activateTile");
    ShardCtx& shard = shards_[tileShard_[t]];
    worklistAdd(shard.activeMask, t - shard.beginTile);
}

#if DALOREX_OWNERSHIP_CHECKS
void
Machine::debugInjectOwnershipViolation()
{
    // Test-only hook proving the checker fires: claim the first
    // shard's tile range as if this thread were its parallel worker,
    // then touch the last shard's worklist — exactly the cross-shard
    // write the two-phase contract forbids. Needs >= 2 shards so the
    // last tile is foreign to shard 0.
    if (shards_.empty())
        buildShards(2);
    panic_if(shards_.size() < 2 || tiles_.empty(),
             "debugInjectOwnershipViolation needs a multi-shard "
             "machine (>= 2 tiles)");
    const ShardCtx& first = shards_.front();
    ownership::ScopedShardClaim claim(this, "injected-violation",
                                      first.beginTile, first.endTile);
    activateTile(static_cast<TileId>(tiles_.size() - 1));
}
#endif

void
Machine::seed(TileId tile_id, TaskId task, std::initializer_list<Word> words)
{
    panic_if(!finalized_, "seed before queues are finalized");
    Tile& tile = tiles_[tile_id];
    WordQueue& iq = tile.iqs[task];
    panic_if(words.size() != iq.entryWords(),
             "seed entry width mismatch on task ", int(task));
    panic_if(iq.full(), "seeding overflows IQ of task ",
             taskDefs_[task].name, " on tile ", tile_id,
             " (increase iqCapacity)");
    Word buf[maxMsgWords];
    unsigned w = 0;
    for (Word word : words)
        buf[w++] = word;
    iq.push(buf);
    ++tile.pendingIqEntries;
    ++pendingIq_;
    tile.schedStalled = false;
    activateTile(tile_id);
}

void
Machine::hostCharge(TileId tile_id, std::uint32_t ops,
                    std::uint32_t reads, std::uint32_t writes)
{
    Tile& tile = tiles_[tile_id];
    const Cycle base = std::max(tile.pu.busyUntil, now_);
    const Cycle cost = ops + reads + writes;
    tile.pu.busyUntil = base + cost;
    tile.pu.busyCycles += cost;
    tile.pu.ops += ops;
    tile.pu.sramReads += reads;
    tile.pu.sramWrites += writes;
    activateTile(tile_id);
}

bool
Machine::deliver(const Message& msg)
{
    const ChannelDef& def = channelDefs_[msg.channel];
    Tile& tile = tiles_[msg.dest];
    WordQueue& iq = tile.iqs[def.targetTask];
    if (iq.full())
        return false; // endpoint backpressure
    DLX_OWN_WRITE(this, msg.dest, "deliver");
    iq.push(msg.words.data());
    ++tile.pendingIqEntries;
    // Deliveries happen at the destination's own router, so the
    // owning shard is always the one computing this call.
    ShardCtx& shard = shards_[tileShard_[msg.dest]];
    ++shard.pendingIqDelta;
    shard.tsuWrites += def.numWords;
    shard.progressed = true;
    tile.schedStalled = false; // new input may unblock the TSU
    activateTile(msg.dest);
    return true;
}

void
Machine::injectFromCqs(Tile& tile, Cycle now, ShardCtx& shard)
{
    if (tile.pendingCqEntries == 0)
        return;
    const auto num_channels =
        static_cast<std::uint32_t>(channelDefs_.size());
    for (std::uint32_t i = 0; i < num_channels; ++i) {
        const auto c = static_cast<ChannelId>(
            (tile.injectNext + i) % num_channels);
        if (network_->injectBlocked(tile.id, c))
            continue; // local buffer full; wait for it to pop
        MsgQueue& cq = tile.cqs[c];
        if (cq.empty())
            continue;
        const Message& msg = cq.front();
        if (msg.dest == tile.id) {
            // "An OQ can be either another task's input queue (IQ) if
            // it operates over data residing in the same tile": local
            // delivery bypasses the network through the TSU.
            const ChannelDef& def = channelDefs_[msg.channel];
            WordQueue& iq = tile.iqs[def.targetTask];
            if (iq.full())
                continue; // wait for this tile's IQ to drain
            iq.push(msg.words.data());
            ++tile.pendingIqEntries;
            ++shard.pendingIqDelta;
            shard.tsuReads += def.numWords;
            shard.tsuWrites += def.numWords;
            ++shard.localBypassMsgs;
            tile.schedStalled = false;
        } else {
            if (network_->tryInject(msg, tile.id, now, shard.index) !=
                InjectResult::ok)
                continue; // port busy or buffer full: retry next cycle
            shard.tsuReads += msg.numWords;
        }
        cq.pop();
        --tile.pendingCqEntries;
        --shard.pendingCqDelta;
        shard.progressed = true;
        tile.schedStalled = false; // CQ space may unblock the TSU
        tile.injectNext = (c + 1) % num_channels;
        break; // one message through the local port per cycle
    }
}

void
Machine::stepPu(Tile& tile, Cycle now, ShardCtx& shard)
{
    if (tile.pu.busyUntil > now || tile.pendingIqEntries == 0 ||
        tile.schedStalled) {
        return;
    }

    const std::uint32_t t =
        pickTask(tile, taskDefs_, config_.policy);
    if (t == noTask) {
        // Nothing runnable: sleep until one of this tile's queues
        // mutates (deliver / inject / seed re-arm the flag).
        tile.schedStalled = true;
        return;
    }

    const TaskDef& def = taskDefs_[t];
    TaskCtx ctx(*this, tile, t, shard);

    Word params[maxMsgWords];
    if (def.preload) {
        // "Task parameters are loaded by TSU before the task begins."
        const Word* entry = tile.iqs[t].front();
        for (unsigned w = 0; w < def.paramWords; ++w)
            params[w] = entry[w];
        ctx.params_ = params;
        tile.iqs[t].pop();
        --tile.pendingIqEntries;
        --shard.pendingIqDelta;
        shard.tsuReads += def.paramWords;
        // IQ space appeared: re-arm deliveries sleeping on this tile.
        network_->wakeRouter(tile.id);
    }

    def.fn(*this, tile, ctx);

    // Base invocation cost: TSU handoff + task entry/exit on the PU.
    // The interrupting-invocation ablation (Data-Local) penalizes only
    // channel-fed tasks: those are the remote calls that interrupted
    // a Tesseract core.
    constexpr std::uint32_t invocation_base = 2;
    const Cycle cost = std::max<Cycle>(
        1, ctx.cyclesCharged() + invocation_base +
               (def.channelFed ? config_.invokeOverhead : 0));
    tile.pu.busyUntil = now + cost;
    tile.pu.busyCycles += cost;
    tile.pu.ops += ctx.opsCharged();
    tile.pu.sramReads += ctx.readsCharged();
    tile.pu.sramWrites += ctx.writesCharged();
    ++tile.pu.invocations;
    ++tile.taskInvocations[t];
    // Only invocations that move queue state count as progress; an
    // invocation that cannot act must not placate the deadlock
    // watchdog.
    if (def.preload || ctx.mutations() > 0)
        shard.progressed = true;
}

void
Machine::stepTile(Tile& tile, Cycle now, ShardCtx& shard)
{
    DLX_OWN_WRITE(this, tile.id, "stepTile");
    if (!tile.quiet(now)) {
        injectFromCqs(tile, now, shard);
        stepPu(tile, now, shard);
    }
    // Idle/fast-forward aggregates, maintained here so the serial
    // part of the loop is O(shards), not O(tiles). Quiet tiles
    // contribute nothing (busyUntil <= now, no pending CQ), so
    // visiting only the active ones gives the aggregates a visit to
    // every tile would.
    const Cycle busy = tile.pu.busyUntil;
    if (busy > shard.maxBusyUntil)
        shard.maxBusyUntil = busy;
    if (busy > now && busy < shard.nextEvent)
        shard.nextEvent = busy;
    if (tile.pendingCqEntries > 0) {
        const Cycle free_at = network_->injectFreeAt(tile.id);
        if (free_at > now && free_at < shard.nextEvent)
            shard.nextEvent = free_at;
    }
}

void
Machine::tilePhase(unsigned shard_index, Cycle now)
{
    ShardCtx& shard = shards_[shard_index];
    DLX_OWN_SCOPE(this, "tile-phase", shard.beginTile, shard.endTile);
    shard.maxBusyUntil = 0;
    shard.nextEvent = neverCycle;

    // Visit only the queued tiles, dropping every tile that is quiet
    // after its step (activity created later re-queues it through
    // activateTile). The no-mid-sweep-growth precondition holds
    // because a tile's step never activates *other* tiles — all task
    // effects are tile-local and deliveries happen in the NoC phase.
    worklistSweep(shard.activeMask, [&](std::size_t off) {
        ++shard.tileScans;
        Tile& tile =
            tiles_[shard.beginTile + static_cast<TileId>(off)];
        stepTile(tile, now, shard);
        return !tile.quiet(now);
    });
}

#if DALOREX_OWNERSHIP_CHECKS
void
Machine::checkWorklists() const
{
    for (const ShardCtx& shard : shards_) {
        for (TileId t = shard.beginTile; t < shard.endTile; ++t) {
            panic_if(!tiles_[t].quiet(now_) &&
                         !worklistHas(shard.activeMask,
                                      t - shard.beginTile),
                     "worklist invariant: tile ", t,
                     " is not quiet at cycle ", now_,
                     " but is not on shard ", shard.index,
                     "'s active list");
        }
    }
    network_->checkWorklists();
}

void
Machine::checkConservation() const
{
    std::uint64_t iq_total = 0;
    std::uint64_t cq_total = 0;
    for (const Tile& tile : tiles_) {
        std::uint64_t iq = 0;
        for (const WordQueue& q : tile.iqs)
            iq += q.count();
        std::uint64_t cq = 0;
        for (const MsgQueue& q : tile.cqs)
            cq += q.count();
        panic_if(iq != tile.pendingIqEntries ||
                     cq != tile.pendingCqEntries,
                 "conservation: tile ", tile.id, " holds ", iq,
                 " IQ and ", cq, " CQ entries but counts ",
                 tile.pendingIqEntries, " and ", tile.pendingCqEntries,
                 " at cycle ", now_);
        iq_total += tile.pendingIqEntries;
        cq_total += tile.pendingCqEntries;
    }
    panic_if(iq_total != pendingIq_ || cq_total != pendingCq_,
             "conservation: tiles count ", iq_total, " IQ and ",
             cq_total, " CQ entries but the engine counts ", pendingIq_,
             " and ", pendingCq_, " at cycle ", now_);
    const NocStats noc = network_->stats();
    const std::uint64_t buffered = network_->bufferedMessages();
    panic_if(network_->inFlight() != buffered,
             "conservation: ", noc.messagesInjected,
             " messages injected and ", noc.messagesDelivered,
             " delivered but ", buffered, " buffered in routers at cycle ",
             now_);
}
#endif

RunStats
Machine::run(App& app, const RunControl* control)
{
    panic_if(ran_, "Machine::run is one-shot; build a new Machine");
    ran_ = true;

    app.configure(*this);
    finalizeQueues();
    buildShards(std::max(1u, config_.engineThreads));
    const auto num_shards =
        static_cast<unsigned>(shards_.size());

    NocConfig noc_config;
    noc_config.topology = config_.topology;
    noc_config.width = config_.width;
    noc_config.height = config_.height;
    noc_config.rucheFactor = config_.rucheFactor;
    noc_config.bufferSlots = config_.nocBufferSlots;
    noc_config.numChannels =
        std::max<std::uint32_t>(1,
                                static_cast<std::uint32_t>(
                                    channelDefs_.size()));
    for (std::size_t c = 0; c < channelDefs_.size(); ++c)
        noc_config.msgWords[c] = channelDefs_[c].numWords;
    if (channelDefs_.empty())
        noc_config.msgWords[0] = 1;
    network_ = std::make_unique<Network>(
        noc_config, [this](const Message& msg) { return deliver(msg); },
        num_shards);
    // Router id == tile id and both layers use the identical shard
    // split, so tile-phase and NoC-phase writes share one ownership
    // domain: this Machine.
    network_->setOwnershipDomain(this);

    app.start(*this);

    // Establish the worklist invariant before the first cycle: every
    // non-quiet tile — whatever path configure()/start() used to
    // touch it — is queued on its shard.
    for (TileId t = 0; t < tiles_.size(); ++t) {
        if (!tiles_[t].quiet(0))
            activateTile(t);
    }

    const bool use_barrier = config_.barrier || app.needsBarrier();
    const bool has_deadline =
        control != nullptr &&
        control->deadline != std::chrono::steady_clock::time_point::max();
    const Cycle idle_latency =
        2 * log2Ceil(std::max<std::uint64_t>(2, config_.numTiles())) + 2;
    const Cycle barrier_latency =
        idle_latency + config_.width + config_.height;

    stats_.epochs = 1;
    lastProgress_ = 0;

    // One SPMD member per shard; with one shard the loop runs inline
    // on this thread and spawns nothing. Every member executes the
    // cycle loop below, synchronized by the phase barrier, and the
    // per-cycle serial section rides inside the tail barrier's
    // completion step instead of costing its own rendezvous. With NoC
    // traffic a cycle is two barrier syncs (compute | commit + tiles
    // + serial); a quiescent cycle is one. A member's commit writes
    // only its own routers and its tile phase touches only its own
    // tiles and routers, so the tiles follow the commit directly.
    PhaseBarrier barrier(num_shards);

    // Cycle-loop control block. Written only by the serial section;
    // the barrier's release chain publishes it to every member.
    struct CycleCtl
    {
        bool stepNoc = false;
        bool done = false;
    };
    CycleCtl ctl;

    // The per-cycle serial section: merge the cycle's shard deltas in
    // fixed order, decide termination/epoch/fast-forward, and set up
    // the next cycle. Runs exactly once per cycle, after every worker
    // arrived at the tail barrier — so it owns the world.
    const PhaseBarrier::SerialFn serial_tail = [&] {
        bool progressed = false;
        Cycle max_busy = now_;
        Cycle next_event = neverCycle;
        for (ShardCtx& shard : shards_) {
            pendingIq_ += shard.pendingIqDelta;
            shard.pendingIqDelta = 0;
            pendingCq_ += shard.pendingCqDelta;
            shard.pendingCqDelta = 0;
            progressed |= shard.progressed;
            shard.progressed = false;
            max_busy = std::max(max_busy, shard.maxBusyUntil);
            next_event = std::min(next_event, shard.nextEvent);
        }
        if (progressed)
            lastProgress_ = now_;
#if DALOREX_OWNERSHIP_CHECKS
        checkWorklists();
        checkConservation();
#endif

        if (allIdle()) {
            // Drain the tail: the last tasks' busy time still counts.
            now_ = max_busy;
            if (!(use_barrier && app.startEpoch(*this))) {
                ctl.done = true;
                return;
            }
            now_ += barrier_latency;
            ++stats_.epochs;
            lastProgress_ = now_;
        } else {
            // Cooperative unwind points: a set cancel flag, a passed
            // deadline or a tripped cycle watchdog ends the run at this
            // cycle boundary with a status instead of killing the
            // process. Every worker is parked in the tail barrier
            // here, so the members exit the SPMD loop together and the
            // partial stats are exactly the state after `now_`
            // committed cycles.
            if (control != nullptr && control->cancel != nullptr &&
                control->cancel->load(std::memory_order_relaxed)) {
                stats_.status = RunStatus::cancelled;
                stats_.statusDetail =
                    "cancelled at cycle " + std::to_string(now_);
                ctl.done = true;
                return;
            }
            // The clock is read at the first tail (engineSteppedCycles
            // is 1 there) and every deadlinePollStride-th after it.
            if (has_deadline &&
                stats_.engineSteppedCycles % deadlinePollStride == 1 &&
                std::chrono::steady_clock::now() >= control->deadline) {
                stats_.status = RunStatus::timeout;
                stats_.statusDetail =
                    "wall-clock deadline expired at cycle " +
                    std::to_string(now_);
                ctl.done = true;
                return;
            }
            if (now_ - lastProgress_ > watchdogCycles) {
                stats_.status = RunStatus::deadlock;
                stats_.statusDetail =
                    "no progress for " + std::to_string(watchdogCycles) +
                    " cycles at cycle " + std::to_string(now_) +
                    ": pendingIq=" + std::to_string(pendingIq_) +
                    " pendingCq=" + std::to_string(pendingCq_) +
                    " inFlight=" +
                    std::to_string(network_->inFlight());
                ctl.done = true;
                return;
            }
            if (config_.maxCycles != 0 && now_ > config_.maxCycles) {
                stats_.status = RunStatus::timeout;
                stats_.statusDetail =
                    "exceeded maxCycles = " +
                    std::to_string(config_.maxCycles);
                ctl.done = true;
                return;
            }

            // Exactness-preserving fast-forward: if this cycle had no
            // activity and the network is empty, nothing can happen
            // until the next timed event — a PU completing its task
            // or an injection port finishing serialization. Jump
            // there. (Every other wake-up is event-driven and thus
            // implies activity.) The per-shard aggregates make this
            // O(shards), not O(tiles); with the active-set scan the
            // skipped window costs nothing — a fully-idle
            // barrier/drain window is crossed in one step, and when
            // no shard has an active member at all the cycle lands
            // directly on allIdle() above.
            if (network_->quiescent() && lastProgress_ != now_ &&
                next_event != neverCycle && next_event > now_ + 1) {
                now_ = next_event - 1; // increment lands on `next`
            }
        }

        ++now_;
        ++stats_.engineSteppedCycles;
        ctl.stepNoc = !network_->quiescent();
        if (ctl.stepNoc)
            ++stats_.nocSteppedCycles;
    };

    now_ = 0;
    ++stats_.engineSteppedCycles;
    ctl.stepNoc = !network_->quiescent();
    if (ctl.stepNoc)
        ++stats_.nocSteppedCycles;

    runSpmd(num_shards, [&](unsigned member) {
        for (;;) {
            if (ctl.stepNoc) {
                network_->stepCompute(member, now_);
                barrier.sync(member);
                network_->commitShard(member);
            }
            tilePhase(member, now_);
            barrier.sync(member, &serial_tail);
            if (ctl.done)
                break;
        }
    });

    // A completed run pays the idle-tree detection latency; an early
    // unwind reports exactly the committed cycle count.
    stats_.cycles = stats_.status == RunStatus::completed
                        ? now_ + idle_latency
                        : now_;
    stats_.invocationsPerTask.assign(taskDefs_.size(), 0);
    stats_.puBusyPerTile.resize(tiles_.size());
    for (TileId t = 0; t < tiles_.size(); ++t) {
        const Tile& tile = tiles_[t];
        stats_.puBusyPerTile[t] = tile.pu.busyCycles;
        stats_.puBusyCycles += tile.pu.busyCycles;
        stats_.puOps += tile.pu.ops;
        stats_.sramReads += tile.pu.sramReads;
        stats_.sramWrites += tile.pu.sramWrites;
        stats_.invocations += tile.pu.invocations;
        for (std::size_t k = 0; k < taskDefs_.size(); ++k)
            stats_.invocationsPerTask[k] += tile.taskInvocations[k];
        const std::uint64_t bytes = tile.scratchpadBytes();
        stats_.scratchpadBytesTotal += bytes;
        stats_.scratchpadBytesMax =
            std::max(stats_.scratchpadBytesMax, bytes);
    }
    for (const ShardCtx& shard : shards_) {
        stats_.tsuReads += shard.tsuReads;
        stats_.tsuWrites += shard.tsuWrites;
        stats_.localBypassMsgs += shard.localBypassMsgs;
        stats_.edgesProcessed += shard.edgesProcessed;
        stats_.tileScans += shard.tileScans;
    }
    // Scan-occupancy: the visits a scan of every tile and router
    // would have performed minus the visits actually performed.
    stats_.routerScans = network_->routerScans();
    stats_.activeTileCyclesSaved =
        stats_.engineSteppedCycles * tiles_.size() - stats_.tileScans;
    stats_.activeRouterCyclesSaved =
        stats_.nocSteppedCycles * tiles_.size() - stats_.routerScans;
    stats_.noc = network_->stats();
    stats_.routerActivePerTile = network_->routerActiveCycles();
    return stats_;
}

} // namespace dalorex

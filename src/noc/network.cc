#include "noc/network.hh"

#include <bit>
#include <limits>

#include "common/bits.hh"
#include "common/logging.hh"

namespace dalorex
{

namespace
{
constexpr Cycle neverCycle = ~Cycle(0);

/** Hint that `addr` is read soon; does nothing where unsupported. */
inline void
prefetchRead(const void* addr)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(addr);
#else
    (void)addr;
#endif
}
} // namespace

Network::Network(const NocConfig& config, DeliverFn deliver,
                 unsigned shards)
    : config_(config),
      topo_(config.topology, config.width, config.height,
            config.rucheFactor),
      deliver_(std::move(deliver))
{
    fatal_if(config_.numChannels == 0 ||
                 config_.numChannels > maxChannels,
             "channel count out of range: ", config_.numChannels);
    fatal_if(config_.bufferSlots < 2,
             "bubble flow control needs >= 2 buffer slots per channel");
    fatal_if(config_.bufferSlots > std::numeric_limits<std::uint16_t>::max(),
             "buffer slots ", config_.bufferSlots,
             " exceed what a 16-bit FIFO counter holds");
    for (unsigned c = 0; c < config_.numChannels; ++c) {
        fatal_if(config_.msgWords[c] == 0 ||
                     config_.msgWords[c] > maxMsgWords,
                 "channel ", c, " message length out of range");
    }

    routers_.resize(topo_.numTiles());
    routerActive_.assign(topo_.numTiles(), 0);
    routerActiveUntil_.assign(topo_.numTiles(), 0);

    // One arena allocation backs every (router, port, channel) ring
    // buffer, and one array every waiter mask, both sized to the
    // ports and channels in use.
    unsigned ports = 0;
    for (unsigned p = 0; p < numPorts; ++p) {
        if (topo_.portActive(static_cast<Port>(p)))
            ports = p + 1;
    }
    pairStride_ = ports * config_.numChannels;
    bufferArena_.resize(std::size_t(topo_.numTiles()) * pairStride_ *
                        config_.bufferSlots);
    waiters_.assign(std::size_t(topo_.numTiles()) * pairStride_, 0);

    rotation_ = numPorts * config_.numChannels;
    for (unsigned pair = 0; pair < rotation_; ++pair) {
        pairSplit_[pair] = {
            static_cast<Port>(pair / config_.numChannels),
            static_cast<ChannelId>(pair % config_.numChannels)};
    }

    for (TileId r = 0; r < routers_.size(); ++r) {
        for (unsigned p = 0; p < numPorts; ++p) {
            const auto port = static_cast<Port>(p);
            routers_[r].neighborId[p] =
                topo_.hasNeighbor(r, port) ? topo_.neighbor(r, port) : r;
        }
        routers_[r].rotationOffset =
            static_cast<std::uint8_t>(r % rotation_);
    }

    const auto tiles = static_cast<TileId>(topo_.numTiles());
    const unsigned n = std::max(1u, std::min<unsigned>(shards, tiles));
    shards_.resize(n);
    routerShard_.assign(tiles, 0);
    for (unsigned s = 0; s < n; ++s) {
        shards_[s].beginRouter =
            static_cast<TileId>(std::uint64_t(tiles) * s / n);
        shards_[s].endRouter =
            static_cast<TileId>(std::uint64_t(tiles) * (s + 1) / n);
        for (TileId r = shards_[s].beginRouter;
             r < shards_[s].endRouter; ++r)
            routerShard_[r] = s;
        shards_[s].activeMask.assign(
            (shards_[s].endRouter - shards_[s].beginRouter + 63) / 64,
            0);
        shards_[s].pushesTo.resize(n);
        shards_[s].wakesTo.resize(n);
    }
}

void
Network::activateRouter(TileId router_id)
{
    DLX_OWN_WRITE(ownershipDomain(), router_id, "activateRouter");
    Shard& shard = shards_[routerShard_[router_id]];
    worklistAdd(shard.activeMask, router_id - shard.beginRouter);
}

void
Network::routeInto(TileId router, Port in_port, InFlight& entry) const
{
    entry.outPort = topo_.route(router, entry.dest);
    entry.needSlots =
        topo_.entersRing(in_port, entry.outPort) ? 2 : 1;
}

void
Network::pushEntry(TileId router, unsigned pair, const InFlight& entry)
{
    Fifo& fifo = routers_[router].fifos[pair];
    unsigned tail = fifo.head + fifo.count;
    if (tail >= config_.bufferSlots)
        tail -= config_.bufferSlots;
    slotsOf(router, pair)[tail] = entry;
    ++fifo.count;
}

void
Network::markActive(TileId router, Cycle now, unsigned len)
{
    const Cycle end = now + len;
    Cycle& until = routerActiveUntil_[router];
    if (until <= now) {
        routerActive_[router] += len;
        until = end;
    } else if (until < end) {
        routerActive_[router] += end - until;
        until = end;
    }
}

InjectResult
Network::tryInject(const Message& msg, TileId src, Cycle now,
                   unsigned shard)
{
    panic_if(msg.channel >= config_.numChannels,
             "inject on unconfigured channel ", int(msg.channel));
    panic_if(msg.numWords != config_.msgWords[msg.channel],
             "message length ", int(msg.numWords),
             " does not match channel ", int(msg.channel));
    panic_if(msg.dest >= topo_.numTiles(), "inject to bad tile ",
             msg.dest);

    DLX_OWN_WRITE(ownershipDomain(), src, "tryInject");
    Router& router = routers_[src];
    if (router.injectFreeAt > now)
        return InjectResult::portBusy;
    const unsigned pair = portLocal * config_.numChannels + msg.channel;
    if (router.fifos[pair].count == config_.bufferSlots) {
        router.injectBlocked |= std::uint8_t(1) << msg.channel;
        return InjectResult::bufferFull;
    }

    InFlight entry{now, msg.dest, msg.words, msg.channel, msg.numWords,
                   portLocal, 1};
    routeInto(src, portLocal, entry);
    pushEntry(src, pair, entry);
    router.occupancy |= std::uint64_t(1) << pair;
    router.injectFreeAt = now + msg.numWords;
    activateRouter(src);
    ++shards_[shard].stats.messagesInjected;
    markActive(src, now, msg.numWords);
    return InjectResult::ok;
}

void
Network::stagePop(TileId router_id, Port in_port, ChannelId channel,
                  Shard& shard)
{
    shard.pops.push_back({router_id, in_port, channel});
    if (in_port == portLocal)
        return;
    // The pop frees a slot the upstream feeder may be sleeping on:
    // stage the wake with the upstream router precomputed, bucketed
    // by *its* shard (the wake mutates that router). Whether anyone
    // is actually waiting is checked at apply time, like the old
    // serial commit did.
    const TileId up_id = routers_[router_id].neighborId[in_port];
    const auto slot = static_cast<std::uint16_t>(
        Topology::oppositePort(in_port) * config_.numChannels +
        channel);
    shard.wakesTo[routerShard_[up_id]].push_back({up_id, slot});
}

bool
Network::tryMove(TileId router_id, Port in_port, ChannelId channel,
                 Cycle now, Shard& shard, Cycle& retryAt)
{
    const unsigned channels = config_.numChannels;
    const unsigned pair = in_port * channels + channel;
    Router& router = routers_[router_id];
    const InFlight& entry =
        slotsOf(router_id, pair)[router.fifos[pair].head];
    if (entry.arrival >= now) {
        // Arrived this cycle; can move next cycle at the earliest.
        retryAt = std::min(retryAt, entry.arrival + 1);
        return false;
    }

    const Port out_port = entry.outPort;
    if (router.linkFreeAt[out_port] > now) {
        retryAt = std::min(retryAt, router.linkFreeAt[out_port]);
        return false;
    }

    const unsigned len = entry.numWords;
    const std::uint64_t pair_bit = std::uint64_t(1) << pair;

    if (out_port == portLocal) {
        // Arrived: offer to the TSU; it may refuse (IQ full). The
        // delivery mutates only this router's own tile, so it is
        // shard-local and applied during compute.
        const Message msg{entry.dest, entry.channel, entry.numWords,
                          entry.words};
        if (!deliver_(msg)) {
            ++shard.stats.deliveryStalls;
            // Sleep until the engine frees IQ space (wakeRouter).
            router.blocked |= pair_bit;
            waitersOf(router_id)[portLocal * channels + channel] |=
                pair_bit;
            return false;
        }
        router.linkFreeAt[portLocal] = now + len;
        shard.stats.routerPassages += len;
        ++shard.stats.messagesDelivered;
        markActive(router_id, now, len);
        stagePop(router_id, in_port, channel, shard);
        return true;
    }

    const TileId next_id = router.neighborId[out_port];
    const Port next_in = Topology::oppositePort(out_port);
    const Fifo& dst = routers_[next_id].fifos[next_in * channels + channel];

    // Bubble rule: entering a torus ring must leave one slot free.
    // `dst.count` is start-of-cycle exact: pops are deferred to the
    // commit and this link is the buffer's only pusher (and the link
    // serialization above keeps it to one push per cycle).
    if (config_.bufferSlots - dst.count < entry.needSlots) {
        // Sleep until a pop on that downstream buffer wakes us.
        router.blocked |= pair_bit;
        waitersOf(router_id)[out_port * channels + channel] |= pair_bit;
        return false;
    }

    StagedPush forwarded{next_id, next_in, entry};
    forwarded.entry.arrival = now;
    routeInto(next_id, next_in, forwarded.entry);
    shard.pushesTo[routerShard_[next_id]].push_back(forwarded);
    router.linkFreeAt[out_port] = now + len;
    shard.stats.flitHops += len;
    shard.stats.flitWireTiles +=
        std::uint64_t(len) * topo_.hopWireTiles(out_port);
    shard.stats.routerPassages += len;
    markActive(router_id, now, len);
    stagePop(router_id, in_port, channel, shard);
    return true;
}

void
Network::computeRouter(TileId r, Cycle now, Shard& shard)
{
    DLX_OWN_WRITE(ownershipDomain(), r, "computeRouter");
    const unsigned pairs = rotation_;

    Router& router = routers_[r];
    const std::uint64_t pending =
        router.occupancy & ~router.blocked;
    if (pending == 0)
        return;
    if (now >= router.deferUntil) {
        // The earliest timed defer matured: rescan the whole set.
        router.deferMask = 0;
        router.deferUntil = neverCycle;
    }
    const std::uint64_t scannable = pending & ~router.deferMask;
    if (scannable == 0)
        return;
    // Every scannable head is read below; start all of their loads
    // before the first one is needed.
    for (std::uint64_t heads = scannable; heads != 0;
         heads &= heads - 1) {
        const auto pair = static_cast<unsigned>(std::countr_zero(heads));
        prefetchRead(slotsOf(r, pair) + router.fifos[pair].head);
    }
    // Round-robin arbitration: the scan starts at pair (now + r) %
    // pairs, one pair further each cycle. The rotation spans
    // numPorts x channels positions, but a two-channel mesh or torus
    // router uses only 10 of its 18, and every start past the last
    // pair in use wraps round to pair 0 (local injection, channel 0).
    // So pair 0 is scanned first in 9 of every 18 cycles and each
    // other pair in 1 of 18, a bias the paper's round-robin does not
    // have (README "Modelling substitutions").
    unsigned shift = shard.rotationAt + router.rotationOffset;
    if (shift >= pairs)
        shift -= pairs;
    const std::uint64_t mask = (std::uint64_t(1) << pairs) - 1;
    std::uint64_t rotated =
        ((scannable >> shift) | (scannable << (pairs - shift))) &
        mask;
    while (rotated != 0) {
        const unsigned bit =
            static_cast<unsigned>(std::countr_zero(rotated));
        rotated &= rotated - 1;
        unsigned pair = bit + shift;
        if (pair >= pairs)
            pair -= pairs;
        const PairSplit split = pairSplit_[pair];
        Cycle retry_at = neverCycle;
        if (!tryMove(r, split.port, split.channel, now, shard,
                     retry_at) &&
            retry_at != neverCycle) {
            router.deferMask |= std::uint64_t(1) << pair;
            router.deferUntil =
                std::min(router.deferUntil, retry_at);
        }
    }
}

void
Network::stepCompute(unsigned shard_index, Cycle now)
{
    Shard& shard = shards_[shard_index];
    DLX_OWN_SCOPE(ownershipDomain(), "noc-compute", shard.beginRouter,
                  shard.endRouter);
    shard.rotationAt = static_cast<unsigned>(now % rotation_);

    // Visit only the listed routers. Occupancy only clears in the
    // commit (pops are staged), so check-then-compute is
    // exact: a router that drained last commit is swept here, and one
    // that refills during the next commit is re-queued by the push's
    // activateRouter before the sweep could go stale. Compute never
    // activates other routers of this shard mid-sweep (pushes are
    // staged), satisfying the sweep's precondition.
    worklistSweep(shard.activeMask, [&](std::size_t off) {
        ++shard.routerScans;
        const TileId r =
            shard.beginRouter + static_cast<TileId>(off);
        if (routers_[r].occupancy == 0)
            return false; // deferred removal
        computeRouter(r, now, shard);
        return true;
    });
}

void
Network::commitShard(unsigned shard_index)
{
    const unsigned channels = config_.numChannels;
    Shard& mine = shards_[shard_index];
    DLX_OWN_SCOPE(ownershipDomain(), "noc-commit", mine.beginRouter,
                  mine.endRouter);

    // Own pops first: a pop's target is always the router that was
    // scanned, i.e. one of this shard's own.
    for (const StagedPop& pop : mine.pops) {
        DLX_OWN_WRITE(ownershipDomain(), pop.router, "commitPop");
        Router& router = routers_[pop.router];
        const unsigned pair = pop.inPort * channels + pop.channel;
        Fifo& fifo = router.fifos[pair];
        if (++fifo.head == config_.bufferSlots)
            fifo.head = 0;
        if (--fifo.count == 0)
            router.occupancy &= ~(std::uint64_t(1) << pair);
        // A pop on the local input buffer frees injection space (the
        // upstream wake of a non-local pop was staged into wakesTo of
        // the upstream router's shard at pop time).
        if (pop.inPort == portLocal)
            router.injectBlocked &= ~(std::uint8_t(1) << pop.channel);
    }
    mine.pops.clear();

    // Then every source shard's staged effects landing in this
    // shard's range, in (source shard, staging sequence) order. The
    // wake targets only the pairs recorded as waiting on the popped
    // buffer; everyone else stays asleep.
    for (Shard& from : shards_) {
        for (const StagedWake& wake : from.wakesTo[shard_index]) {
            DLX_OWN_WRITE(ownershipDomain(), wake.router,
                          "commitWake");
            std::uint64_t& waiting = waitersOf(wake.router)[wake.slot];
            if (waiting != 0) {
                Router& up = routers_[wake.router];
                up.blocked &= ~waiting;
                waiting = 0;
                // A blocked head implies occupancy, so the upstream
                // router is already listed; this re-add is a
                // defensive no-op that keeps the invariant local to
                // the wake.
                activateRouter(wake.router);
            }
        }
        from.wakesTo[shard_index].clear();
        for (const StagedPush& push : from.pushesTo[shard_index]) {
            DLX_OWN_WRITE(ownershipDomain(), push.router,
                          "commitPush");
            const unsigned pair =
                push.inPort * channels + push.entry.channel;
            pushEntry(push.router, pair, push.entry);
            Router& dst = routers_[push.router];
            dst.occupancy |= std::uint64_t(1) << pair;
            activateRouter(push.router);
        }
        from.pushesTo[shard_index].clear();
    }
}

void
Network::step(Cycle now)
{
    if (quiescent())
        return;
    for (unsigned s = 0; s < shards_.size(); ++s)
        stepCompute(s, now);
    for (unsigned s = 0; s < shards_.size(); ++s)
        commitShard(s);
#if DALOREX_OWNERSHIP_CHECKS
    checkWorklists();
#endif
}

#if DALOREX_OWNERSHIP_CHECKS
void
Network::checkWorklists() const
{
    for (const Shard& shard : shards_) {
        for (TileId r = shard.beginRouter; r < shard.endRouter; ++r) {
            panic_if(routers_[r].occupancy != 0 &&
                         !worklistHas(shard.activeMask,
                                      r - shard.beginRouter),
                     "worklist invariant: router ", r,
                     " holds a message but is not on its shard's "
                     "active list");
        }
    }
}

std::uint64_t
Network::bufferedMessages() const
{
    std::uint64_t buffered = 0;
    for (const Router& router : routers_) {
        for (unsigned pair = 0; pair < pairStride_; ++pair)
            buffered += router.fifos[pair].count;
    }
    return buffered;
}
#endif

std::uint64_t
Network::routerScans() const
{
    std::uint64_t scans = 0;
    for (const Shard& shard : shards_)
        scans += shard.routerScans;
    return scans;
}

NocStats
Network::stats() const
{
    NocStats out;
    for (const Shard& shard : shards_)
        for (const Counter<NocStats>& row : nocCounters)
            if (row.field != nullptr)
                out.*row.field += shard.stats.*row.field;
    return out;
}

} // namespace dalorex

/**
 * @file
 * Cycle-level network-on-chip model.
 *
 * Routers move whole messages between per-(input port, channel) buffers
 * at message granularity while charging exact wormhole timing: a hop
 * advances the head one router per cycle and occupies the traversed
 * link for the message's flit count ("its flits are always routed back
 * to back", Sec. III-E). Messages on the same (output port, channel)
 * never interleave; different output ports of a router route
 * simultaneously; input ports contending for an output port are
 * arbitrated round-robin — all per Sec. III-E.
 *
 * Deadlock freedom: dimension-ordered routing on the mesh; on torus
 * rings a message entering a ring (injection or dimension turn) must
 * leave a free buffer slot behind it — the paper's "local bubble
 * routing" (Sec. III-F). Endpoint backpressure is modeled by letting
 * the TSU refuse delivery when the target input queue is full.
 *
 * Stepping is two-phase so the engine can shard routers across worker
 * threads deterministically: the *compute* phase (stepCompute) scans a
 * contiguous router range, applies intra-router effects immediately
 * (link occupancy, local deliveries into the router's own tile) and
 * stages every cross-router effect — buffer pushes, head pops and the
 * upstream wake-ups they trigger — into per-shard staging buffers;
 * the *commit* phase applies the staged effects. During compute a
 * router only ever reads start-of-cycle state of foreign routers
 * (each input buffer has exactly one upstream writer, and pops are
 * deferred to commit), so the result is byte-identical for any shard
 * count — step() is the one-shard special case, not a separate
 * semantics.
 *
 * The commit itself is parallel: effects are staged bucketed by the
 * *destination* router's shard (pops always land in the staging
 * shard's own range; pushes and wakes go to pushesTo[dst] /
 * wakesTo[dst]), and commitShard(d) — one call per worker, claiming
 * shard d's router range — applies everything targeting shard d in
 * (source shard, staging sequence) order. Within one cycle each
 * (router, port, channel) buffer sees at most one pop (its pair is
 * scanned once) and at most one push (the upstream link serializes),
 * each waiter slot at most one wake (only the pop of the watched
 * buffer stages it), and all remaining effect pairs touch disjoint
 * state or are idempotent — so the destination-grouped order is
 * byte-identical to a serial fixed-order commit, at every shard
 * count. The commit writes router state only, never the engine's, so
 * the engine's worker for shard d goes on to its own tiles without
 * another barrier. step() runs both phases for every shard on the
 * calling thread, for stand-alone users.
 *
 * The compute phase is event-driven: each shard keeps an active-router
 * worklist holding exactly the routers with a buffered message,
 * maintained where messages appear (injections during the tile phase,
 * staged pushes and wakes during the commit) and swept lazily when a
 * router drains. Quiet regions of the grid therefore cost nothing per
 * cycle.
 *
 * State layout: each piece of state has one owner. Routers are the
 * scan's working set, so each Router keeps only what the scan reads
 * every visit — the occupancy, blocked and defer masks, the defer
 * cycle, a 4-byte ring cursor per (port, channel) buffer, and
 * per-port link and neighbour state — plus the injection port's
 * state, which the engine reads through injectBlocked() and
 * injectFreeAt() instead of mirroring it in the tile. The rest lives
 * in flat network-wide arrays sized to the ports and channels in use:
 * the buffered entries in bufferArena_ and the waiter masks (written
 * when a head blocks, read by a commit wake) in waiters_. Both are
 * strided by pairStride_ = (highest active port + 1) x numChannels
 * (pairs per router). A 64x64 two-channel torus with 4-slot buffers
 * holds 1.25 MB of routers (304 B each, so they fit in a 2 MB L2),
 * 5.2 MB of buffer slots and 0.3 MB of waiter masks.
 *
 * Simplifications vs RTL (README "Modelling substitutions"): buffers
 * are counted in message slots rather than a shared per-direction flit
 * pool, and a link serializes whole messages across channels instead of
 * interleaving virtual-channel flits. Both conserve link bandwidth and
 * buffer capacity exactly.
 */

#ifndef DALOREX_NOC_NETWORK_HH
#define DALOREX_NOC_NETWORK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "noc/message.hh"
#include "noc/topology.hh"
#include "sim/ownership.hh"

namespace dalorex
{

/** Static configuration of the NoC. */
struct NocConfig
{
    NocTopology topology = NocTopology::torus;
    std::uint32_t width = 16;
    std::uint32_t height = 16;
    std::uint32_t rucheFactor = 0; //!< used when topology == torusRuche
    std::uint32_t numChannels = 2;
    /** Flits per message on each channel (known statically). */
    std::array<std::uint8_t, maxChannels> msgWords = {3, 2, 0, 0};
    /** Capacity of each (input port, channel) buffer, in messages:
     *  at least 2 (bubble rule), at most 65535 (16-bit counters). */
    std::uint32_t bufferSlots = 4;
};

/** Aggregate NoC activity counters (feed the energy model). */
struct NocStats
{
    std::uint64_t messagesInjected = 0;
    std::uint64_t messagesDelivered = 0;
    std::uint64_t flitHops = 0;       //!< flits x links traversed
    std::uint64_t flitWireTiles = 0;  //!< flit-hops x wire tile-lengths
    std::uint64_t routerPassages = 0; //!< flits crossing a router
    std::uint64_t deliveryStalls = 0; //!< endpoint-backpressure retries
};

/** The `stats.noc` keys of the report, in report order. */
inline constexpr Counter<NocStats> nocCounters[] = {
    {"messages_injected", &NocStats::messagesInjected},
    {"messages_delivered", &NocStats::messagesDelivered},
    {"flit_hops", &NocStats::flitHops},
    {"flit_wire_tiles", &NocStats::flitWireTiles},
    {"router_passages", &NocStats::routerPassages},
    {"delivery_stalls", &NocStats::deliveryStalls},
};

/** Outcome of an injection attempt. */
enum class InjectResult
{
    ok,         //!< message entered the local input buffer
    portBusy,   //!< still serializing a previous message (transient)
    bufferFull, //!< local buffer full; wait for a pop (event)
};

/**
 * The NoC: a grid of routers stepped one cycle at a time.
 *
 * Injection: `tryInject` places a message into the source router's
 * local input buffer (serialized at one flit per cycle per tile).
 * Delivery: when a message reaches its destination's local output, the
 * engine-supplied callback is offered the message and may refuse it
 * (input queue full), leaving it buffered — backpressure.
 */
class Network
{
  public:
    /** Returns true if the tile accepted the message. */
    using DeliverFn = std::function<bool(const Message&)>;

    /**
     * `shards` partitions the routers into that many contiguous ranges
     * for stepCompute/commitShard (clamped to [1, routers]). Purely an
     * execution concern: timing and stats are byte-identical for every
     * shard count.
     */
    Network(const NocConfig& config, DeliverFn deliver,
            unsigned shards = 1);

    /**
     * Try to move a message from tile `src`'s channel queue into the
     * network at cycle `now`. `shard` names the caller's shard (the
     * one owning `src`) so activity counters stay race-free; the
     * serial entry points pass 0.
     */
    InjectResult tryInject(const Message& msg, TileId src, Cycle now,
                           unsigned shard = 0);

    /** Advance every router one cycle: compute, then commit, of every
     *  shard on the calling thread. */
    void step(Cycle now);

    /**
     * Compute phase for shard `shard`: scan its active routers, apply
     * intra-router effects, stage cross-router pushes/pops/wakes.
     * Distinct shards may run concurrently; commitShard for every
     * shard must follow before the next cycle (or any
     * quiescent()/stats() read).
     */
    void stepCompute(unsigned shard, Cycle now);

    /**
     * Commit the staged effects *targeting* shard `shard`: its own
     * pops, then every source shard's staged wakes and pushes whose
     * destination router lies in shard `shard`, in (source shard,
     * staging sequence) order. Distinct shards may run concurrently —
     * each worker writes only routers of its own range — but a
     * barrier must separate commitShard from the preceding compute
     * phase. Afterwards, only work on shard `shard`'s own routers may
     * follow on the same thread without a barrier; anything reading
     * other shards' routers (the next compute phase, quiescent(),
     * stats()) needs one. The effect application orders commute (see
     * the file comment), so the merged state is byte-identical to a
     * serial commit.
     */
    void commitShard(unsigned shard);

    /** True when no message is buffered anywhere in the network.
     *  Valid between cycles (after commitShard / outside phases). */
    bool quiescent() const { return inFlight() == 0; }

    /** Messages injected and not yet delivered: the per-shard counts
     *  summed, so injection and delivery share no counter. Valid
     *  between cycles. */
    std::uint64_t
    inFlight() const
    {
        std::uint64_t injected = 0;
        std::uint64_t delivered = 0;
        for (const Shard& shard : shards_) {
            injected += shard.stats.messagesInjected;
            delivered += shard.stats.messagesDelivered;
        }
        return injected - delivered;
    }

    /** Aggregate counters, merged over shards (cheap; call freely
     *  between cycles). */
    NocStats stats() const;

    /** Router visits performed by all compute phases so far — the
     *  scan-occupancy numerator (simulator metric, not timing). */
    std::uint64_t routerScans() const;

    const Topology& topology() const { return topo_; }
    const NocConfig& config() const { return config_; }

    /** Per-router cycles with at least one flit in motion (Fig. 10). */
    const std::vector<Cycle>&
    routerActiveCycles() const
    {
        return routerActive_;
    }

    /**
     * Re-arm any sleeping heads at `router`. The engine must call this
     * whenever it frees space in one of the tile's input queues so a
     * delivery blocked on a full IQ retries.
     */
    void
    wakeRouter(TileId router)
    {
        DLX_OWN_WRITE(ownershipDomain(), router, "wakeRouter");
        Router& r = routers_[router];
        r.blocked = 0;
        std::fill_n(waitersOf(router), pairStride_, 0);
    }

#if DALOREX_OWNERSHIP_CHECKS
    /**
     * Share the engine's ownership domain (shard-ownership checker):
     * router id == tile id and the Machine splits shards with the
     * same formula, so one claim covers both the tile and NoC
     * parallel phases. Defaults to the Network itself for
     * stand-alone use (noc tests).
     */
    void
    setOwnershipDomain(const void* domain)
    {
        ownershipDomain_ = domain;
    }
    const void* ownershipDomain() const
    {
        return ownershipDomain_ != nullptr ? ownershipDomain_ : this;
    }
#else
    void setOwnershipDomain(const void*) {}
    const void* ownershipDomain() const { return this; }
#endif

    /**
     * True when a tryInject on this channel found the local input
     * buffer full and that buffer has not popped since, so another try
     * is known to fail. The engine checks it before touching the
     * tile's channel queue.
     */
    bool
    injectBlocked(TileId router, ChannelId channel) const
    {
        return (routers_[router].injectBlocked >> channel) & 1;
    }

    /** Cycle at which the tile's injection port frees up. */
    Cycle
    injectFreeAt(TileId router) const
    {
        return routers_[router].injectFreeAt;
    }

#if DALOREX_OWNERSHIP_CHECKS
    /** Panic unless every router holding a message is on its shard's
     *  active list. Valid between cycles. */
    void checkWorklists() const;
    /** Messages held in the buffers of every router: the FIFO counts
     *  summed. Valid between cycles. */
    std::uint64_t bufferedMessages() const;
#endif

  private:
    /**
     * A buffered message plus the cycle its head arrived here and its
     * pre-routed exit. The output port is fixed by dimension-ordered
     * routing the moment the message enters a router, so it is
     * computed once per hop (at push) instead of on every retry. The
     * Message fields sit beside the routing fields instead of in a
     * nested (padded) Message, so an entry packs into 32 bytes;
     * delivery rebuilds the Message.
     */
    struct InFlight
    {
        Cycle arrival;
        TileId dest;
        std::array<Word, maxMsgWords> words;
        ChannelId channel;
        std::uint8_t numWords;
        Port outPort;
        std::uint8_t needSlots; //!< bubble rule: 2 on ring entry
    };
    static_assert(sizeof(InFlight) == 32, "InFlight packs into 32 bytes");

    /**
     * Ring cursor of one (port, channel) input buffer. Its slots live
     * in bufferArena_ (slotsOf) and its capacity is the network-wide
     * config_.bufferSlots, so the cursor is all a router holds.
     */
    struct Fifo
    {
        std::uint16_t head = 0;
        std::uint16_t count = 0;
    };

    struct Router
    {
        // Hot scan scalars lead the struct so the per-cycle
        // pending/defer checks touch one cache line before the
        // buffer cursors and per-port state.

        /** Non-empty (port, channel) pairs, bit port*channels+chan. */
        std::uint64_t occupancy = 0;
        /**
         * Pairs whose head is asleep waiting for downstream buffer
         * space or input-queue space. A sleeping head is skipped by
         * the scan until a pop on the blocking structure wakes this
         * router — turning the congestion retry storm into an
         * event-driven wait (space can only appear via a pop, whose
         * commit always wakes the sleeper that cycle).
         */
        std::uint64_t blocked = 0;
        /**
         * Pairs that failed for a *timed* reason (output link still
         * serializing, head arrived this cycle) and the earliest
         * cycle any of them could retry. Such a head cannot become
         * movable earlier — linkFreeAt only moves forward and the
         * head itself is immutable until it moves — so the scan skips
         * them until deferUntil and then rescans the whole set.
         * Another pure fast path: skipped attempts are exactly the
         * ones that would have failed.
         */
        std::uint64_t deferMask = 0;
        Cycle deferUntil = ~Cycle(0);
        /** Injection serialization (TSU -> router, 1 flit/cycle). */
        Cycle injectFreeAt = 0;
        /**
         * Channels whose local input buffer rejected an injection
         * because it was full; cleared when that buffer pops. Lets the
         * engine skip hopeless injection retries.
         */
        std::uint8_t injectBlocked = 0;
        /** router id % rotation_: this router's fixed offset in the
         *  round-robin scan (fills padding before fifos). */
        std::uint8_t rotationOffset = 0;

        /** fifos[port * numChannels + channel] — the same pair index
         *  as the masks; portLocal holds injected traffic. */
        std::array<Fifo, numPorts * maxChannels> fifos{};
        /** Link occupancy per output port (wormhole serialization). */
        std::array<Cycle, numPorts> linkFreeAt{};
        /** Downstream router id per output port (precomputed). */
        std::array<TileId, numPorts> neighborId{};
    };
    static_assert(sizeof(Router) <= 320, "Router fits in 5 cache lines");

    /** The input port and channel of a pair index. */
    struct PairSplit
    {
        Port port;
        ChannelId channel;
    };

    /** One staged cross-router (or deferred intra-router) effect. */
    struct StagedPop
    {
        TileId router;
        Port inPort;
        ChannelId channel;
    };
    struct StagedPush
    {
        TileId router; //!< receiving router
        Port inPort;   //!< receiving input port
        InFlight entry;
    };
    /**
     * A staged upstream wake: the pop of a buffer frees the slot its
     * feeder is sleeping on, so the commit re-arms exactly the pairs
     * recorded in the upstream router's waiter mask `slot`. Staged at pop
     * time with the upstream id precomputed, bucketed by the
     * *upstream* router's shard — the wake mutates that router.
     */
    struct StagedWake
    {
        TileId router;      //!< upstream router to re-arm
        std::uint16_t slot; //!< its waiter mask to wake
    };

    /** Per-shard staging buffers and stat accumulators. Cache-line
     *  aligned so concurrent shard workers never false-share the
     *  per-message counters. */
    struct alignas(64) Shard
    {
        TileId beginRouter = 0;
        TileId endRouter = 0;
        /** Staged pops of this shard's own routers (a pop's target is
         *  always the router that was scanned). */
        std::vector<StagedPop> pops;
        /** Staged cross-router effects bucketed by the *destination*
         *  router's shard: commitShard(d) drains [d] of every source
         *  shard, so each worker applies exactly the effects landing
         *  in its own range. */
        std::vector<std::vector<StagedPush>> pushesTo;
        std::vector<std::vector<StagedWake>> wakesTo;
        NocStats stats;
        /**
         * Active-router worklist, an intrusive bitmap over the
         * shard's router range (bit r - beginRouter).
         * Invariant between cycles: every router with occupancy != 0
         * has its bit set. Bits are set where buffered messages
         * appear — successful injections (owning shard's worker) and
         * the commit's staged pushes — and cleared by the
         * deferred-removal sweep at the next visit of a drained
         * router, which is safe under the two-phase commit because
         * pops (the only way occupancy clears) apply in the commit,
         * between compute phases. Bitmap order keeps the scan in
         * ascending router order. Builds with the ownership checker
         * assert the invariant every cycle (checkWorklists).
         */
        std::vector<std::uint64_t> activeMask;
        /** Router visits performed (whole-run accumulator). */
        std::uint64_t routerScans = 0;
        /** now % rotation_ for the compute phase in progress. Per
         *  shard: every shard's worker sets it at once. */
        unsigned rotationAt = 0;
    };

    void markActive(TileId router, Cycle now, unsigned len);
    /**
     * Queue a router on its shard's active worklist (no-op for
     * members). Called where buffered messages appear: successful
     * injections (owning shard's worker) and the commit's staged
     * pushes and wakes.
     */
    void activateRouter(TileId router);
    /** Scan one router's movable heads (the compute-phase body). */
    void computeRouter(TileId router_id, Cycle now, Shard& shard);
    /** Stage the pop of (router, port, channel) plus — for non-local
     *  ports — the upstream wake it triggers, destination-bucketed. */
    void stagePop(TileId router_id, Port in_port, ChannelId channel,
                  Shard& shard);
    /**
     * Attempt one head move during compute. Returns true if the head
     * moved (its pop is staged). On a timed failure, lowers `retryAt`
     * to the earliest cycle the attempt could succeed; event-driven
     * failures set `blocked` instead.
     */
    bool tryMove(TileId router_id, Port in_port, ChannelId channel,
                 Cycle now, Shard& shard, Cycle& retryAt);
    /** Fill the pre-routed fields of a message entering `router`. */
    void routeInto(TileId router, Port in_port, InFlight& entry) const;

    /** The ring-buffer slots of `pair` at `router`. */
    InFlight*
    slotsOf(TileId router, unsigned pair)
    {
        return &bufferArena_[(std::size_t(router) * pairStride_ + pair) *
                             config_.bufferSlots];
    }
    /** The waiter masks of `router`, indexed like its pairs. */
    std::uint64_t*
    waitersOf(TileId router)
    {
        return &waiters_[std::size_t(router) * pairStride_];
    }
    /** Append `entry` to the ring buffer of `pair` at `router`. */
    void pushEntry(TileId router, unsigned pair, const InFlight& entry);

    NocConfig config_;
    Topology topo_;
    DeliverFn deliver_;
    std::vector<Router> routers_;
    /** Pairs per router in the flat arrays: (highest active port +
     *  1) x numChannels. Strided by the highest port, not the count
     *  of ports: a 1-wide torus-ruche grid uses the ruche north/south
     *  ports but not ruche east/west, which are numbered below them. */
    unsigned pairStride_ = 0;
    /** Positions in the round-robin rotation: numPorts x numChannels
     *  (at most 36), whether or not every port is in use. */
    unsigned rotation_ = 0;
    static_assert(numPorts * maxChannels < 64,
                  "every pair has a bit in the 64-bit pair masks");
    /** pairSplit_[pair] = {pair / numChannels, pair % numChannels}
     *  for every pair of the rotation. */
    std::array<PairSplit, numPorts * maxChannels> pairSplit_{};
    /** Slots of every buffer: [(router * pairStride_ + pair) *
     *  bufferSlots + i], one allocation for the whole network. */
    std::vector<InFlight> bufferArena_;
    /**
     * waiters_[router * pairStride_ + outPort * numChannels +
     * channel]: the pairs asleep in `blocked` because that specific
     * downstream buffer (or, for portLocal, the tile's input queues)
     * was full. A commit pop on the downstream buffer wakes exactly
     * this set instead of every blocked pair of the router, so
     * congestion retries fire only when the awaited slot actually
     * freed. Off the scan path, so kept out of Router.
     */
    std::vector<std::uint64_t> waiters_;
    std::vector<Cycle> routerActive_;
    std::vector<Cycle> routerActiveUntil_;
    std::vector<Shard> shards_;
    /** router -> owning shard (active-list insertion). */
    std::vector<std::uint32_t> routerShard_;
#if DALOREX_OWNERSHIP_CHECKS
    /** Shard-ownership checker domain (see setOwnershipDomain). */
    const void* ownershipDomain_ = nullptr;
#endif
};

} // namespace dalorex

#endif // DALOREX_NOC_NETWORK_HH

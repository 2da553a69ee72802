/**
 * @file
 * Tests for the flit-level network: delivery latency, wormhole link
 * serialization, per-channel FIFO order, endpoint backpressure, the
 * injection port, and the no-deadlock drain property under random
 * traffic on every topology (which checks the bubble rule, README
 * "Modelling substitutions"). NocGolden pins the cycle-level
 * behaviour under seeded traffic to hashes recorded from a known-good
 * build.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <ostream>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "noc/network.hh"

namespace dalorex
{
namespace
{

/** Test harness: collects deliveries, optionally refusing them. */
struct Sink
{
    std::vector<std::pair<Cycle, Message>> delivered;
    bool accept = true;
    Cycle now = 0;

    Network::DeliverFn
    fn()
    {
        return [this](const Message& msg) {
            if (!accept)
                return false;
            delivered.emplace_back(now, msg);
            return true;
        };
    }
};

/** A grid the traffic tests run on. */
struct Shape
{
    const char* name;
    NocTopology topology;
    std::uint32_t width;
    std::uint32_t height;
    std::uint32_t rucheFactor; //!< torusRuche only
};

void
PrintTo(const Shape& shape, std::ostream* os)
{
    *os << shape.name;
}

NocConfig
gridConfig(const Shape& shape)
{
    NocConfig config;
    config.topology = shape.topology;
    config.width = shape.width;
    config.height = shape.height;
    if (shape.topology == NocTopology::torusRuche)
        config.rucheFactor = shape.rucheFactor;
    config.numChannels = 2;
    config.msgWords = {3, 2, 0, 0};
    return config;
}

NocConfig
smallConfig(NocTopology topology, std::uint32_t side)
{
    return gridConfig({"", topology, side, side, 2});
}

// The 6x6 grids have every port of their topology in use. On 1x16
// torus-ruche the ruche east/west ports are idle while north/south
// are not, and on 16x2 the reverse, so per-port state indexed by the
// highest port in use (not by the count of ports) is exercised.
constexpr Shape mesh6{"mesh6x6", NocTopology::mesh, 6, 6, 0};
constexpr Shape torus6{"torus6x6", NocTopology::torus, 6, 6, 0};
constexpr Shape ruche6{"ruche2_6x6", NocTopology::torusRuche, 6, 6, 2};
constexpr Shape rucheColumn{"ruche3_1x16", NocTopology::torusRuche, 1,
                            16, 3};
constexpr Shape rucheRows{"ruche3_16x2", NocTopology::torusRuche, 16, 2,
                          3};

Message
makeMsg(TileId dest, ChannelId channel, std::uint8_t words)
{
    Message msg;
    msg.dest = dest;
    msg.channel = channel;
    msg.numWords = words;
    for (unsigned w = 0; w < words; ++w)
        msg.words[w] = 100 * dest + w;
    return msg;
}

/** Step the network until quiescent; returns cycles taken. */
Cycle
drain(Network& net, Sink& sink, Cycle start, Cycle limit = 100000)
{
    Cycle cycle = start;
    while (!net.quiescent()) {
        ++cycle;
        sink.now = cycle;
        net.step(cycle);
        if (cycle - start > limit)
            ADD_FAILURE() << "network failed to drain";
        if (cycle - start > limit)
            break;
    }
    return cycle;
}

TEST(Network, DeliversSingleMessage)
{
    Sink sink;
    Network net(smallConfig(NocTopology::torus, 4), sink.fn());
    const Message msg = makeMsg(5, 1, 2);
    EXPECT_EQ(net.tryInject(msg, 0, 0), InjectResult::ok);
    drain(net, sink, 0);
    ASSERT_EQ(sink.delivered.size(), 1u);
    EXPECT_EQ(sink.delivered[0].second.dest, 5u);
    EXPECT_EQ(sink.delivered[0].second.words[0], 500u);
    EXPECT_EQ(net.stats().messagesDelivered, 1u);
}

TEST(Network, LatencyScalesWithHops)
{
    // Distance 1 vs distance 4 on an 8x8 torus, same channel.
    auto latency = [](TileId dest) {
        Sink sink;
        Network net(smallConfig(NocTopology::torus, 8), sink.fn());
        EXPECT_EQ(net.tryInject(makeMsg(dest, 1, 2), 0, 0),
                  InjectResult::ok);
        drain(net, sink, 0);
        return sink.delivered.at(0).first;
    };
    const Cycle near = latency(1);
    const Cycle far = latency(4);
    EXPECT_EQ(far - near, 3u); // one extra cycle per extra hop
}

TEST(Network, PortSerializesInjection)
{
    // Two 3-word messages from the same tile: the local port accepts
    // the second only after 3 cycles (1 flit/cycle).
    Sink sink;
    Network net(smallConfig(NocTopology::torus, 4), sink.fn());
    EXPECT_EQ(net.tryInject(makeMsg(1, 0, 3), 0, 0),
              InjectResult::ok);
    EXPECT_EQ(net.tryInject(makeMsg(1, 0, 3), 0, 0),
              InjectResult::portBusy);
    EXPECT_EQ(net.tryInject(makeMsg(1, 0, 3), 0, 2),
              InjectResult::portBusy);
    EXPECT_EQ(net.tryInject(makeMsg(1, 0, 3), 0, 3),
              InjectResult::ok);
}

TEST(Network, ChannelFifoOrderPreserved)
{
    // Many messages from one source to one destination on one
    // channel must arrive in injection order (no interleaving on a
    // channel, Sec. III-E).
    Sink sink;
    Network net(smallConfig(NocTopology::torus, 4), sink.fn());
    Cycle cycle = 0;
    unsigned injected = 0;
    while (injected < 20) {
        Message msg = makeMsg(9, 1, 2);
        msg.words[1] = injected;
        sink.now = cycle;
        net.step(cycle);
        if (net.tryInject(msg, 0, cycle) == InjectResult::ok)
            ++injected;
        ++cycle;
    }
    drain(net, sink, cycle);
    ASSERT_EQ(sink.delivered.size(), 20u);
    for (unsigned i = 0; i < 20; ++i)
        EXPECT_EQ(sink.delivered[i].second.words[1], i);
}

TEST(Network, BackpressureHoldsMessageUntilAccepted)
{
    Sink sink;
    sink.accept = false;
    Network net(smallConfig(NocTopology::torus, 4), sink.fn());
    EXPECT_EQ(net.tryInject(makeMsg(3, 1, 2), 0, 0),
              InjectResult::ok);
    Cycle cycle = 0;
    for (; cycle < 50; ++cycle) {
        sink.now = cycle;
        net.step(cycle);
    }
    EXPECT_TRUE(sink.delivered.empty());
    EXPECT_FALSE(net.quiescent());
    EXPECT_GT(net.stats().deliveryStalls, 0u);
    // Accept now; the engine signals IQ space through wakeRouter.
    sink.accept = true;
    net.wakeRouter(3);
    drain(net, sink, cycle);
    EXPECT_EQ(sink.delivered.size(), 1u);
}

TEST(Network, InjectBlockedReportsAndClears)
{
    // Fill tile 0's local channel-0 buffer while its head cannot
    // advance (destination IQ refuses), then check the fast-path flag.
    Sink sink;
    sink.accept = false;
    NocConfig config = smallConfig(NocTopology::torus, 2);
    config.bufferSlots = 2;
    Network net(config, sink.fn());
    Cycle cycle = 0;
    // Keep injecting until the buffer refuses.
    while (true) {
        sink.now = cycle;
        net.step(cycle);
        const InjectResult res =
            net.tryInject(makeMsg(0, 0, 3), 1, cycle);
        ++cycle;
        if (res == InjectResult::bufferFull)
            break;
        ASSERT_LT(cycle, 1000u);
    }
    EXPECT_TRUE(net.injectBlocked(1, 0));
    sink.accept = true;
    net.wakeRouter(0);
    drain(net, sink, cycle);
    EXPECT_FALSE(net.injectBlocked(1, 0));
}

TEST(Network, WireStatsFollowTopology)
{
    // The same route charges twice the wire length on a folded torus.
    auto wire_units = [](NocTopology type) {
        Sink sink;
        Network net(smallConfig(type, 8), sink.fn());
        EXPECT_EQ(net.tryInject(makeMsg(3, 1, 2), 0, 0),
                  InjectResult::ok);
        drain(net, sink, 0);
        return net.stats().flitWireTiles;
    };
    EXPECT_EQ(wire_units(NocTopology::torus),
              2 * wire_units(NocTopology::mesh));
}

TEST(Network, SelfAddressedMessageDelivers)
{
    Sink sink;
    Network net(smallConfig(NocTopology::torus, 4), sink.fn());
    EXPECT_EQ(net.tryInject(makeMsg(0, 1, 2), 0, 0),
              InjectResult::ok);
    drain(net, sink, 0);
    EXPECT_EQ(sink.delivered.size(), 1u);
    EXPECT_EQ(net.stats().flitHops, 0u); // never left the router
}

/** Random all-to-all traffic must always drain (deadlock freedom). */
class NetworkDrain
    : public ::testing::TestWithParam<std::tuple<Shape, int>>
{
};

TEST_P(NetworkDrain, RandomTrafficDrains)
{
    const auto [shape, seed] = GetParam();
    const TileId tiles = shape.width * shape.height;
    NocConfig config = gridConfig(shape);
    config.bufferSlots = 2; // minimum legal: stresses the bubble rule
    Sink sink;
    Network net(config, sink.fn());
    Rng rng(static_cast<std::uint64_t>(seed));

    const unsigned total = 2000;
    unsigned injected = 0;
    Cycle cycle = 0;
    std::uint64_t want_words = 0;
    while (injected < total || !net.quiescent()) {
        sink.now = cycle;
        net.step(cycle);
        // Every tile tries to inject one random message per cycle.
        for (TileId src = 0; src < tiles && injected < total; ++src) {
            const auto channel =
                static_cast<ChannelId>(rng.below(2));
            const auto dest = static_cast<TileId>(rng.below(tiles));
            Message msg = makeMsg(dest, channel,
                                  config.msgWords[channel]);
            if (net.tryInject(msg, src, cycle) == InjectResult::ok) {
                ++injected;
                want_words += msg.numWords;
            }
        }
        ++cycle;
        ASSERT_LT(cycle, 200000u) << shape.name << " deadlocked";
    }
    EXPECT_EQ(sink.delivered.size(), total);
    EXPECT_EQ(net.stats().messagesInjected, total);
    EXPECT_EQ(net.stats().messagesDelivered, total);
    EXPECT_EQ(net.inFlight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, NetworkDrain,
    ::testing::Combine(::testing::Values(mesh6, torus6, ruche6),
                       ::testing::Values(1, 2, 3)));

INSTANTIATE_TEST_SUITE_P(
    PartialRuche, NetworkDrain,
    ::testing::Combine(::testing::Values(rucheColumn, rucheRows),
                       ::testing::Values(1, 2, 3)));

/** FNV-1a over the little-endian bytes of each folded value. */
struct Fnv
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t value)
    {
        for (unsigned b = 0; b < 8; ++b) {
            hash ^= (value >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
};

/**
 * Seeded random traffic on every one of `channels` channels against
 * tiles whose input queues hold two messages and drain at random, so
 * heads block on the bubble rule, on full downstream buffers and on
 * refused deliveries. Returns the FNV-1a of every injection outcome,
 * every delivery (cycle, dest, channel, payload words), the final
 * NocStats and the per-router active cycles.
 */
std::uint64_t
goldenTraffic(const Shape& shape, std::uint32_t buffer_slots,
              unsigned shards, unsigned channels)
{
    const TileId tiles = shape.width * shape.height;
    NocConfig config = gridConfig(shape);
    config.bufferSlots = buffer_slots;
    config.numChannels = channels;
    // Channels 0 and 1 keep gridConfig's lengths, so two-channel
    // traffic is unchanged by the extra entries.
    config.msgWords = {3, 2, 4, 1};
    Fnv fnv;
    Cycle now = 0;
    std::vector<unsigned> queued(tiles, 0);
    Network net(config, [&](const Message& msg) {
        if (queued[msg.dest] == 2)
            return false;
        ++queued[msg.dest];
        fnv.add(now);
        fnv.add(msg.dest);
        fnv.add(msg.channel);
        for (unsigned w = 0; w < msg.numWords; ++w)
            fnv.add(msg.words[w]);
        return true;
    }, shards);
    Rng rng(0x5eed);

    const unsigned total = 1500;
    unsigned injected = 0;
    while (injected < total || !net.quiescent()) {
        ++now;
        net.step(now);
        for (TileId tile = 0; tile < tiles; ++tile) {
            if (queued[tile] != 0 && rng.below(3) == 0) {
                --queued[tile];
                net.wakeRouter(tile);
            }
            if (injected == total || rng.below(2) == 0)
                continue;
            const auto channel =
                static_cast<ChannelId>(rng.below(channels));
            Message msg;
            msg.dest = static_cast<TileId>(rng.below(tiles));
            msg.channel = channel;
            msg.numWords = config.msgWords[channel];
            for (unsigned w = 0; w < msg.numWords; ++w)
                msg.words[w] = static_cast<Word>(rng.next64());
            const InjectResult result = net.tryInject(msg, tile, now);
            fnv.add(static_cast<std::uint64_t>(result));
            if (result == InjectResult::ok)
                ++injected;
        }
        if (now > 1000000)
            return 0; // deadlocked; no golden value is zero
    }
    const NocStats stats = net.stats();
    for (const std::uint64_t value :
         {stats.messagesInjected, stats.messagesDelivered,
          stats.flitHops, stats.flitWireTiles, stats.routerPassages,
          stats.deliveryStalls})
        fnv.add(value);
    for (const Cycle active : net.routerActiveCycles())
        fnv.add(active);
    return fnv.hash;
}

struct GoldenCase
{
    Shape shape;
    std::uint32_t bufferSlots;
    std::uint64_t hash; //!< goldenTraffic() at every shard count
    /** Channels in use; each count is its own round-robin rotation
     *  of numPorts x channels positions. */
    unsigned channels = 2;
};

void
PrintTo(const GoldenCase& golden, std::ostream* os)
{
    *os << golden.shape.name << "_slots" << golden.bufferSlots;
    if (golden.channels != 2)
        *os << "_channels" << golden.channels;
}

/**
 * Pins the NoC's cycle-level behaviour across commits: timing,
 * arbitration, flow control and statistics. A deliberate change to
 * any of them must update these literals and say why.
 */
class NocGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(NocGolden, TrafficHashIsPinned)
{
    const GoldenCase& golden = GetParam();
    for (const unsigned shards : {1u, 3u}) {
        EXPECT_EQ(goldenTraffic(golden.shape, golden.bufferSlots, shards,
                                golden.channels),
                  golden.hash)
            << "at " << shards << " shards";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NocGolden,
    ::testing::Values(GoldenCase{mesh6, 2, 0x7796e9f4df5af166ull},
                      GoldenCase{mesh6, 4, 0x7ed1f39f2038305bull},
                      GoldenCase{torus6, 2, 0x59aefd25bc0681caull},
                      GoldenCase{torus6, 4, 0xc1fba2c982ae308eull},
                      GoldenCase{ruche6, 2, 0xefd1dde2ca2e72edull},
                      GoldenCase{ruche6, 4, 0xf1bbaf8b1a62da55ull},
                      GoldenCase{rucheColumn, 2, 0xf62c9e7153b567c2ull},
                      GoldenCase{rucheColumn, 4, 0xcfe839dd5a4aa1f5ull},
                      GoldenCase{rucheRows, 2, 0xc17c7cd391db4f7bull},
                      GoldenCase{rucheRows, 4, 0x61fa3b6ad7dd8b4full},
                      GoldenCase{torus6, 2, 0x1745e44543c2739dull, 1},
                      GoldenCase{torus6, 2, 0x3af2037591e7a604ull, 3},
                      GoldenCase{torus6, 2, 0xbd63db7e2c0780e7ull, 4},
                      GoldenCase{ruche6, 2, 0x1ddb0cdde93de779ull, 1},
                      GoldenCase{ruche6, 2, 0x6bf5ea59c0fa0fecull, 3},
                      GoldenCase{ruche6, 2, 0x2d14d22a9384fdf9ull, 4}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
        return ::testing::PrintToString(info.param);
    });

/** Hot-spot traffic (everyone to one tile) also drains. */
TEST(Network, HotSpotTrafficDrains)
{
    const std::uint32_t side = 6;
    NocConfig config = smallConfig(NocTopology::torus, side);
    Sink sink;
    Network net(config, sink.fn());
    unsigned injected = 0;
    Cycle cycle = 0;
    while (injected < 1000 || !net.quiescent()) {
        sink.now = cycle;
        net.step(cycle);
        for (TileId src = 0; src < side * side && injected < 1000;
             ++src) {
            if (net.tryInject(makeMsg(17, 1, 2), src, cycle) ==
                InjectResult::ok) {
                ++injected;
            }
        }
        ++cycle;
        ASSERT_LT(cycle, 200000u) << "network deadlocked";
    }
    EXPECT_EQ(sink.delivered.size(), 1000u);
    for (const auto& [when, msg] : sink.delivered)
        EXPECT_EQ(msg.dest, 17u);
}

TEST(Network, RouterActiveCyclesTracked)
{
    Sink sink;
    Network net(smallConfig(NocTopology::torus, 4), sink.fn());
    EXPECT_EQ(net.tryInject(makeMsg(3, 1, 2), 0, 0),
              InjectResult::ok);
    drain(net, sink, 0);
    // Source router moved flits; the destination router too.
    EXPECT_GT(net.routerActiveCycles()[0], 0u);
    EXPECT_GT(net.routerActiveCycles()[3], 0u);
    std::uint64_t total = 0;
    for (const Cycle c : net.routerActiveCycles())
        total += c;
    // Inject + forward overlap at the source (2 + 1 cycles), and the
    // delivery occupies the destination for the message length.
    EXPECT_GE(total, 4u);
}

TEST(Network, RejectsBadMessages)
{
    Sink sink;
    Network net(smallConfig(NocTopology::torus, 4), sink.fn());
    Message bad = makeMsg(1, 0, 2); // channel 0 expects 3 words
    EXPECT_DEATH((void)net.tryInject(bad, 0, 0), "length");
    Message far = makeMsg(200, 1, 2); // outside the 4x4 grid
    EXPECT_DEATH((void)net.tryInject(far, 0, 0), "bad tile");
}

TEST(Network, BufferSlotsFitTheFifoCounters)
{
    // Head and count are 16-bit: 65535 slots is the largest capacity
    // they represent, and one more must be refused up front.
    Sink sink;
    NocConfig config = smallConfig(NocTopology::torus, 1);
    config.numChannels = 1;
    config.bufferSlots = 65535;
    {
        Network net(config, sink.fn());
        EXPECT_EQ(net.tryInject(makeMsg(0, 0, 3), 0, 0),
                  InjectResult::ok);
        drain(net, sink, 0);
        EXPECT_EQ(sink.delivered.size(), 1u);
    }
    config.bufferSlots = 65536;
    EXPECT_DEATH({ Network net(config, sink.fn()); }, "16-bit");
}

} // namespace
} // namespace dalorex

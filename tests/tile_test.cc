/**
 * @file
 * Tests for the tile substrate: circular queues (wrap-around, growth
 * of the host ring, watermarks, storage accounting) and the TSU's
 * runnable rules and arbitration policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "tile/queue.hh"
#include "tile/task.hh"
#include "tile/tile.hh"
#include "tile/tsu.hh"

namespace dalorex
{
namespace
{

TEST(WordQueue, PushPopFifo)
{
    WordQueue q;
    q.init(2, 4);
    const Word a[2] = {1, 2};
    const Word b[2] = {3, 4};
    q.push(a);
    q.push(b);
    EXPECT_EQ(q.count(), 2u);
    EXPECT_EQ(q.front()[0], 1u);
    EXPECT_EQ(q.front()[1], 2u);
    q.pop();
    EXPECT_EQ(q.front()[0], 3u);
    q.pop();
    EXPECT_TRUE(q.empty());
}

TEST(WordQueue, WrapsAround)
{
    // Each input pushes and pops `offset` entries, which moves the
    // head off slot 0 of the first ring, then fills the queue to
    // capacity twice with a full drain between: the ring grows while
    // wrapped, capacity 5 with 3-word entries is full at 5 entries on
    // 8 slots, and capacity 100 keeps FIFO order across 5 doublings.
    struct Input
    {
        std::uint32_t words;
        std::uint32_t capacity;
        std::uint32_t offset;
    };
    for (const Input& in : {Input{1, 3, 0}, Input{1, 3, 2},
                            Input{3, 5, 3}, Input{2, 100, 1}}) {
        SCOPED_TRACE(::testing::Message()
                     << in.words << " words x " << in.capacity
                     << ", offset " << in.offset);
        WordQueue q;
        q.init(in.words, in.capacity);
        Word pushed = 0;
        Word popped = 0;
        const auto push = [&] {
            Word entry[maxMsgWords];
            for (std::uint32_t w = 0; w < in.words; ++w)
                entry[w] = pushed * 8 + w;
            q.push(entry);
            ++pushed;
        };
        const auto pop = [&] {
            for (std::uint32_t w = 0; w < in.words; ++w)
                EXPECT_EQ(q.front()[w], popped * 8 + w);
            q.pop();
            ++popped;
        };

        EXPECT_EQ(q.hostSlots(), 0u); // allocated on the first push
        for (std::uint32_t i = 0; i < in.offset; ++i) {
            push();
            pop();
        }
        EXPECT_EQ(q.hostSlots(),
                  in.offset == 0 ? 0u
                                 : std::min(WordQueue::minSlots,
                                            std::bit_ceil(in.capacity)));
        for (int fill = 0; fill < 2; ++fill) {
            while (!q.full())
                push();
            EXPECT_EQ(q.count(), in.capacity);
            EXPECT_EQ(q.hostSlots(), std::bit_ceil(in.capacity));
            while (!q.empty())
                pop();
        }
        for (int round = 0; round < 10; ++round) {
            push();
            pop();
        }
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(popped, pushed);
    }
}

TEST(WordQueue, FullAndFreeEntries)
{
    WordQueue q;
    q.init(1, 2);
    const Word v = 7;
    EXPECT_EQ(q.freeEntries(), 2u);
    q.push(&v);
    q.push(&v);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.freeEntries(), 0u);
    EXPECT_DEATH(q.push(&v), "full");
}

TEST(WordQueue, PopEmptyPanics)
{
    WordQueue q;
    q.init(1, 2);
    EXPECT_DEATH(q.pop(), "empty");
    EXPECT_DEATH((void)q.front(), "empty");
}

TEST(WordQueue, StorageBytes)
{
    WordQueue q;
    q.init(3, 128);
    EXPECT_EQ(q.storageBytes(), 3u * 128u * 4u);
}

TEST(WordQueue, HighWatermark)
{
    WordQueue q;
    q.init(1, 4);
    q.setHighMark(3);
    const Word v = 0;
    q.push(&v);
    q.push(&v);
    EXPECT_FALSE(q.nearlyFull());
    q.push(&v);
    EXPECT_TRUE(q.nearlyFull());
    EXPECT_NEAR(q.occupancy(), 0.75, 1e-12);
}

TEST(MsgQueue, FifoAndWatermark)
{
    // The inputs of WordQueue.WrapsAround, on whole messages.
    struct Input
    {
        std::uint32_t words;
        std::uint32_t capacity;
        std::uint32_t offset;
    };
    for (const Input& in :
         {Input{2, 4, 0}, Input{3, 5, 3}, Input{2, 100, 1}}) {
        SCOPED_TRACE(::testing::Message()
                     << in.words << " words x " << in.capacity
                     << ", offset " << in.offset);
        MsgQueue q;
        q.init(in.words, in.capacity);
        q.setLowMark(1);
        EXPECT_TRUE(q.nearlyEmpty());
        EXPECT_EQ(q.storageBytes(), in.words * in.capacity * 4u);
        std::uint32_t pushed = 0;
        std::uint32_t popped = 0;
        const auto push = [&] {
            Message m;
            m.dest = pushed;
            m.channel = 1;
            m.numWords = static_cast<std::uint8_t>(in.words);
            m.words[0] = pushed * 7;
            q.push(m);
            ++pushed;
        };
        const auto pop = [&] {
            EXPECT_EQ(q.front().dest, popped);
            EXPECT_EQ(q.front().words[0], popped * 7);
            q.pop();
            ++popped;
        };

        for (std::uint32_t i = 0; i < in.offset; ++i) {
            push();
            pop();
        }
        for (int fill = 0; fill < 2; ++fill) {
            push();
            EXPECT_TRUE(q.nearlyEmpty()); // count 1 <= mark 1
            push();
            EXPECT_FALSE(q.nearlyEmpty());
            while (!q.full())
                push();
            EXPECT_EQ(q.count(), in.capacity);
            EXPECT_EQ(q.hostSlots(), std::bit_ceil(in.capacity));
            while (!q.empty())
                pop();
        }
        EXPECT_EQ(popped, pushed);
    }
}

// ------------------------------------------------------------- TSU

/** A tile with `n` tasks and matching queues for policy tests. */
struct TsuFixture
{
    Tile tile;
    std::vector<TaskDef> defs;

    explicit TsuFixture(unsigned n)
    {
        defs.resize(n);
        tile.iqs.resize(n);
        tile.cqs.resize(1);
        tile.cqs[0].init(2, 8);
        tile.cqs[0].setLowMark(2);
        for (unsigned t = 0; t < n; ++t) {
            defs[t].name = "T" + std::to_string(t + 1);
            defs[t].paramWords = 1;
            defs[t].iqCapacity = 8 * (t + 1); // distinct sizes
            defs[t].fn = [](Machine&, Tile&, TaskCtx&) {};
            tile.iqs[t].init(1, defs[t].iqCapacity);
            tile.iqs[t].setHighMark(6 * (t + 1));
        }
    }

    void
    fill(unsigned task, unsigned entries)
    {
        const Word v = 0;
        for (unsigned i = 0; i < entries; ++i)
            tile.iqs[task].push(&v);
    }
};

TEST(Tsu, EmptyIqNotRunnable)
{
    TsuFixture f(2);
    EXPECT_FALSE(taskRunnable(f.tile, f.defs, 0));
    f.fill(0, 1);
    EXPECT_TRUE(taskRunnable(f.tile, f.defs, 0));
}

TEST(Tsu, OutputGuaranteeBlocks)
{
    TsuFixture f(1);
    f.defs[0].outChannel = 0;
    f.defs[0].maxOutMsgs = 4;
    f.fill(0, 1);
    EXPECT_TRUE(taskRunnable(f.tile, f.defs, 0));
    // Occupy the CQ so fewer than 4 entries remain.
    Message m;
    m.numWords = 2;
    for (int i = 0; i < 5; ++i)
        f.tile.cqs[0].push(m);
    EXPECT_FALSE(taskRunnable(f.tile, f.defs, 0));
}

TEST(Tsu, SelfThrottlingTaskNeedsOneEntry)
{
    TsuFixture f(1);
    f.defs[0].outChannel = 0;
    f.defs[0].maxOutMsgs = 0; // T1-style self-throttle
    f.fill(0, 1);
    Message m;
    m.numWords = 2;
    while (!f.tile.cqs[0].full())
        f.tile.cqs[0].push(m);
    EXPECT_FALSE(taskRunnable(f.tile, f.defs, 0));
    f.tile.cqs[0].pop();
    EXPECT_TRUE(taskRunnable(f.tile, f.defs, 0));
}

TEST(Tsu, LocalOutputFullBlocks)
{
    TsuFixture f(2);
    f.defs[1].outLocalTask = 0; // T4 feeds T1
    f.fill(1, 1);
    EXPECT_TRUE(taskRunnable(f.tile, f.defs, 1));
    f.fill(0, f.defs[0].iqCapacity); // IQ1 full
    EXPECT_FALSE(taskRunnable(f.tile, f.defs, 1));
}

TEST(Tsu, RoundRobinRotates)
{
    TsuFixture f(3);
    f.fill(0, 1);
    f.fill(1, 1);
    f.fill(2, 1);
    const std::uint32_t first =
        pickTask(f.tile, f.defs, SchedPolicy::roundRobin);
    EXPECT_EQ(first, 0u);
    const std::uint32_t second =
        pickTask(f.tile, f.defs, SchedPolicy::roundRobin);
    EXPECT_EQ(second, 1u);
    const std::uint32_t third =
        pickTask(f.tile, f.defs, SchedPolicy::roundRobin);
    EXPECT_EQ(third, 2u);
    EXPECT_EQ(pickTask(f.tile, f.defs, SchedPolicy::roundRobin), 0u);
}

TEST(Tsu, NoTaskWhenNothingRunnable)
{
    TsuFixture f(3);
    EXPECT_EQ(pickTask(f.tile, f.defs, SchedPolicy::roundRobin),
              noTask);
    EXPECT_EQ(pickTask(f.tile, f.defs, SchedPolicy::trafficAware),
              noTask);
}

TEST(Tsu, HighPriorityWinsOverMedium)
{
    TsuFixture f(2);
    // Task 0: IQ nearly full (high). Task 1: one entry (medium at
    // most, since it has no out channel).
    f.fill(0, 7); // mark is 6
    f.fill(1, 1);
    EXPECT_EQ(pickTask(f.tile, f.defs, SchedPolicy::trafficAware),
              0u);
}

TEST(Tsu, LargerQueueBreaksTies)
{
    TsuFixture f(2);
    // Both tasks medium (no out channel): larger IQ capacity wins.
    f.fill(0, 1);
    f.fill(1, 1);
    EXPECT_EQ(pickTask(f.tile, f.defs, SchedPolicy::trafficAware),
              1u); // capacity 16 > 8
}

TEST(Tsu, ExplorationRanksLow)
{
    TsuFixture f(2);
    f.defs[1].outLocalTask = 0; // T4-like task: exploration
    f.fill(0, 1);               // medium (no out channel)
    f.fill(1, 1);               // low (local output)
    EXPECT_EQ(pickTask(f.tile, f.defs, SchedPolicy::trafficAware),
              0u);
}

TEST(Tsu, EmptyOutChannelGivesMedium)
{
    TsuFixture f(2);
    f.defs[0].outChannel = 0; // CQ nearly empty -> medium
    f.defs[1].outChannel = 0;
    f.fill(0, 1);
    f.fill(1, 1);
    // Both medium: larger queue wins (task 1).
    EXPECT_EQ(pickTask(f.tile, f.defs, SchedPolicy::trafficAware),
              1u);
    // Fill the channel past its low mark: both drop to low; tie
    // still resolved by size.
    Message m;
    m.numWords = 2;
    for (int i = 0; i < 4; ++i)
        f.tile.cqs[0].push(m);
    EXPECT_EQ(pickTask(f.tile, f.defs, SchedPolicy::trafficAware),
              1u);
}

TEST(Tile, ScratchpadAccounting)
{
    Tile tile;
    tile.iqs.resize(1);
    tile.iqs[0].init(2, 16);
    tile.cqs.resize(1);
    tile.cqs[0].init(3, 8);
    tile.dataWords = 100;
    EXPECT_EQ(tile.scratchpadBytes(),
              100u * 4 + 2u * 16 * 4 + 3u * 8 * 4);
}

TEST(Tile, QuietReflectsState)
{
    Tile tile;
    EXPECT_TRUE(tile.quiet(5));
    tile.pu.busyUntil = 9;
    EXPECT_FALSE(tile.quiet(5));
    EXPECT_TRUE(tile.quiet(9));
    tile.pendingIqEntries = 1;
    EXPECT_FALSE(tile.quiet(9));
}

} // namespace
} // namespace dalorex

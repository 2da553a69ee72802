/**
 * @file
 * Stress and contract tests for the worker-thread machinery behind
 * the cycle engine: the PhaseBarrier (threads x iterations matrix,
 * serial-section exactly-once and visibility guarantees), the
 * runSpmd fork-join session it rides in, and the saturating
 * wall-clock helpers behind deadlines and retry backoff. The whole
 * file runs under the sanitize-tsan preset in CI, so the
 * acquire/release edges documented in parallel.hh are checked by a
 * race detector, not just by assertion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/parallel.hh"

namespace dalorex
{
namespace
{

/**
 * The core rendezvous property, stressed across a threads x
 * iterations matrix: per sync no member may pass the barrier while
 * another has not arrived. Each member increments a shared arrival
 * counter before sync and checks after sync that every member of the
 * round arrived; a barrier that releases early fails the exact-count
 * check, and under tsan any missing ordering edge is a reported race.
 */
TEST(PhaseBarrier, ThreadsByIterationsStressMatrix)
{
    for (const unsigned members : {1u, 2u, 3u, 4u, 7u, 16u}) {
        const unsigned iterations = members <= 4 ? 2000u : 500u;
        PhaseBarrier barrier(members);
        std::atomic<std::uint64_t> arrivals{0};
        std::atomic<bool> failed{false};

        runSpmd(members, [&](unsigned member) {
            for (unsigned i = 0; i < iterations; ++i) {
                arrivals.fetch_add(1, std::memory_order_relaxed);
                barrier.sync(member);
                // Everyone from round i arrived before the sync, and
                // the trailing sync keeps round i+1 increments out,
                // so the count here is exact.
                if (arrivals.load(std::memory_order_relaxed) !=
                    std::uint64_t(members) * (i + 1))
                    failed.store(true);
                barrier.sync(member);
            }
        });
        EXPECT_FALSE(failed.load()) << members << " members";
        EXPECT_EQ(arrivals.load(),
                  std::uint64_t(members) * iterations);
    }
}

/**
 * The serial section runs exactly once per sync point, after every
 * member's pre-sync writes and before any member's return. Members
 * write into per-member slots before arriving; the serial section
 * sums them (visibility in), and every member checks the published
 * sum (visibility out).
 */
TEST(PhaseBarrier, SerialSectionExactlyOnceWithVisibility)
{
    const unsigned members = 8;
    const unsigned iterations = 1000;
    PhaseBarrier barrier(members);
    std::vector<std::uint64_t> slots(members, 0);
    std::uint64_t published = 0; // plain: the barrier must order it
    std::atomic<std::uint64_t> serial_runs{0};
    std::atomic<bool> failed{false};

    const PhaseBarrier::SerialFn serial = [&] {
        serial_runs.fetch_add(1, std::memory_order_relaxed);
        published =
            std::accumulate(slots.begin(), slots.end(), 0ull);
    };

    runSpmd(members, [&](unsigned member) {
        for (unsigned i = 1; i <= iterations; ++i) {
            slots[member] = i;
            barrier.sync(member, &serial);
            if (published != std::uint64_t(members) * i)
                failed.store(true);
            barrier.sync(member); // keep rounds from overlapping
        }
    });
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(serial_runs.load(), iterations);
}

/** members == 1 degenerates to an inline call: no blocking, serial
 *  runs on the caller. */
TEST(PhaseBarrier, SingleMemberRunsInline)
{
    PhaseBarrier barrier(1);
    const std::thread::id caller = std::this_thread::get_id();
    unsigned runs = 0;
    const PhaseBarrier::SerialFn serial = [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++runs;
    };
    for (int i = 0; i < 100; ++i) {
        barrier.sync(0, &serial);
        barrier.sync(0);
    }
    EXPECT_EQ(runs, 100u);
}

/** A null or empty serial function is a plain rendezvous. */
TEST(PhaseBarrier, NullAndEmptySerialAreRendezvousOnly)
{
    PhaseBarrier barrier(2);
    const PhaseBarrier::SerialFn empty;
    runSpmd(2, [&](unsigned member) {
        for (int i = 0; i < 500; ++i) {
            barrier.sync(member, nullptr);
            barrier.sync(member, &empty);
        }
    });
}

/** Back-to-back syncs with no work between them must not alias
 *  phases (a classic sense-reversal bug class). */
TEST(PhaseBarrier, BackToBackSyncsDoNotAlias)
{
    const unsigned members = 3;
    PhaseBarrier barrier(members);
    std::atomic<std::uint64_t> counter{0};
    runSpmd(members, [&](unsigned member) {
        for (int i = 0; i < 2000; ++i)
            barrier.sync(member);
        counter.fetch_add(1);
    });
    EXPECT_EQ(counter.load(), members);
}

/** Every member runs exactly once with a distinct id in [0, n), and
 *  the calling thread is member 0; n <= 1 runs member 0 inline. */
TEST(RunSpmd, DistinctMembersAndCallerIsMemberZero)
{
    for (const unsigned members : {0u, 1u, 2u, 5u}) {
        const std::thread::id caller = std::this_thread::get_id();
        const unsigned expected = std::max(1u, members);
        std::vector<std::atomic<unsigned>> runs(expected);
        std::vector<std::thread::id> ids(expected);
        runSpmd(members, [&](unsigned member) {
            ASSERT_LT(member, expected);
            runs[member].fetch_add(1);
            ids[member] = std::this_thread::get_id();
        });
        for (unsigned m = 0; m < expected; ++m)
            EXPECT_EQ(runs[m].load(), 1u) << "member " << m;
        EXPECT_EQ(ids[0], caller) << members << " members";
        for (unsigned m = 1; m < expected; ++m)
            EXPECT_NE(ids[m], caller) << "member " << m;
    }
}

/**
 * The engine's actual shape: one runSpmd session whose members loop
 * over cycles separated by barrier syncs, with the serial section
 * deciding termination — a miniature Machine::run. Checks that the
 * per-cycle totals a parallel run accumulates match the serial
 * closed form.
 */
TEST(RunSpmd, CycleLoopWithBarrierMatchesClosedForm)
{
    const unsigned members = 4;
    const unsigned cycles = 300;
    PhaseBarrier barrier(members);
    std::vector<std::uint64_t> partial(members, 0);
    std::uint64_t total = 0;
    unsigned cycle = 0;
    bool done = false;

    const PhaseBarrier::SerialFn tail = [&] {
        for (std::uint64_t& p : partial) {
            total += p;
            p = 0;
        }
        done = ++cycle >= cycles;
    };

    runSpmd(members, [&](unsigned member) {
        for (;;) {
            partial[member] = member + cycle;
            barrier.sync(member, &tail);
            if (done)
                break;
        }
    });

    // Sum over cycles c of sum over members m of (m + c).
    const std::uint64_t expected =
        std::uint64_t(cycles) * (members * (members - 1)) / 2 +
        std::uint64_t(members) * (cycles * (cycles - 1ull)) / 2;
    EXPECT_EQ(total, expected);
}

// --- wall-clock budgets ---------------------------------------------

TEST(WallClock, DeadlineAfterSaturatesInsteadOfOverflowing)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    EXPECT_EQ(deadlineAfter(start, 0), start);
    EXPECT_EQ(deadlineAfter(start, 1),
              start + std::chrono::milliseconds(1));
    // Neither budget fits the clock's nanosecond count: both mean "no
    // deadline", not an instant that wrapped into the past.
    EXPECT_EQ(deadlineAfter(start, (std::uint64_t(1) << 63) - 1),
              Clock::time_point::max());
    EXPECT_EQ(deadlineAfter(start, ~std::uint64_t(0)),
              Clock::time_point::max());
}

TEST(WallClock, RetryBackoffDoublesThenSaturates)
{
    EXPECT_EQ(retryBackoffMs(250, 0), 250u);
    EXPECT_EQ(retryBackoffMs(250, 3), 2000u);
    EXPECT_EQ(retryBackoffMs(1, 40), std::uint64_t(1) << 16);
    EXPECT_EQ(retryBackoffMs(std::uint64_t(1) << 60, 5),
              ~std::uint64_t(0));
}

TEST(WallClock, BackoffSleepEndsOnceStopIsSet)
{
    std::atomic<bool> stop{false};
    const auto t0 = std::chrono::steady_clock::now();
    std::thread setter([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stop.store(true);
    });
    backoffSleep(~std::uint64_t(0), &stop); // "forever", until stopped
    setter.join();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
}

} // namespace
} // namespace dalorex

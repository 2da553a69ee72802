#include "common/parallel.hh"

#include <algorithm>
#include <limits>
#include <thread>
#include <vector>

namespace dalorex
{

void
runSpmd(unsigned members, const std::function<void(unsigned)>& fn)
{
    std::vector<std::thread> threads;
    threads.reserve(members > 1 ? members - 1 : 0);
    for (unsigned m = 1; m < members; ++m)
        threads.emplace_back([&fn, m] { fn(m); });
    fn(0); // the calling thread is member 0
    for (std::thread& t : threads)
        t.join();
}

void
runIndexed(std::size_t n, unsigned threads,
           const std::function<void(std::size_t)>& job)
{
    std::atomic<std::size_t> next{0};
    runSpmd(static_cast<unsigned>(
                std::min<std::size_t>(std::max(1u, threads), n)),
            [&](unsigned) {
                for (std::size_t i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1))
                    job(i);
            });
}

unsigned
defaultWorkerThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

PhaseBarrier::PhaseBarrier(unsigned members)
    : members_(std::max(1u, members)),
      barrier_(static_cast<std::ptrdiff_t>(members_), Completion{this})
{
}

void
PhaseBarrier::Completion::operator()() noexcept
{
    const SerialFn* fn = self->serial_;
    self->serial_ = nullptr;
    if (fn != nullptr && *fn)
        (*fn)();
}

void
PhaseBarrier::arriveAndWait(unsigned member, const SerialFn* serial)
{
    // Member 0 stores before arriving; the completion step follows
    // every arrival, so the store is visible there.
    if (member == 0)
        serial_ = serial;
    barrier_.arrive_and_wait();
}

std::chrono::steady_clock::time_point
deadlineAfter(std::chrono::steady_clock::time_point start,
              std::uint64_t ms)
{
    using Clock = std::chrono::steady_clock;
    // Whole milliseconds left before the clock's last representable
    // instant; a budget reaching past it cannot be added to `start`.
    const auto headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - start)
            .count();
    if (ms >= static_cast<std::uint64_t>(headroom))
        return Clock::time_point::max();
    return start +
           std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

std::uint64_t
retryBackoffMs(std::uint64_t baseMs, unsigned retry)
{
    constexpr std::uint64_t most =
        std::numeric_limits<std::uint64_t>::max();
    const unsigned shift = std::min(retry, 16u);
    return baseMs > (most >> shift) ? most : baseMs << shift;
}

void
backoffSleep(std::uint64_t ms, const std::atomic<bool>* stop)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point until = deadlineAfter(Clock::now(), ms);
    while (Clock::now() < until) {
        if (stop != nullptr && stop->load())
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<std::uint64_t>(ms, 10)));
    }
}

} // namespace dalorex

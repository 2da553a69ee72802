#include "common/parallel.hh"

#include <algorithm>
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

DeadlineWatchdog::~DeadlineWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

std::uint64_t
DeadlineWatchdog::arm(Clock::time_point when, std::atomic<bool>* flag)
{
    std::uint64_t token = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        token = nextToken_++;
        entries_[token] = Entry{when, flag};
        if (!thread_.joinable())
            thread_ = std::thread([this] { loop(); });
    }
    cv_.notify_all();
    return token;
}

void
DeadlineWatchdog::disarm(std::uint64_t token)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.erase(token);
    // No wake needed: the loop re-checks the earliest deadline after
    // every timed wait, and a stale early wake-up is harmless.
}

std::size_t
DeadlineWatchdog::armed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
DeadlineWatchdog::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stop_)
            return;
        const Clock::time_point now = Clock::now();
        Clock::time_point earliest = Clock::time_point::max();
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->second.when <= now) {
                it->second.flag->store(true, std::memory_order_release);
                it = entries_.erase(it);
            } else {
                earliest = std::min(earliest, it->second.when);
                ++it;
            }
        }
        if (earliest == Clock::time_point::max())
            cv_.wait(lock);
        else
            cv_.wait_until(lock, earliest);
    }
}

DeadlineWatchdog&
processDeadlineWatchdog()
{
    static DeadlineWatchdog watchdog;
    return watchdog;
}

} // namespace dalorex

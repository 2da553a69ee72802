#include "sweep/sweep.hh"

#include <limits>

#include "common/parallel.hh"
#include "graph/graphfile.hh"

namespace dalorex
{
namespace sweep
{
namespace
{

/** Deterministic backoff jitter: a hash of (seed, row, attempt), so
 *  reruns of the same sweep sleep identically (determinism extends to
 *  the fault path) while distinct rows still decorrelate. */
std::uint64_t
jitterMs(std::uint64_t seed, std::uint64_t row, unsigned attempt,
         std::uint64_t window)
{
    if (window == 0)
        return 0;
    const std::uint64_t words[3] = {seed, row, attempt};
    return hashBytes(words, sizeof words) % window;
}

} // namespace

RunResult
run(const ExpandResult& expanded, unsigned threads,
    const RunPolicy& policy)
{
    RunResult result;
    if (!expanded.ok) {
        result.ok = false;
        result.error = expanded.error;
        return result;
    }
    result.baseline = expanded.baseline;
    result.outcomes.resize(expanded.points.size());
    const std::atomic<bool>* cancel = policy.cancel;
    runIndexed(expanded.points.size(), threads, [&](std::size_t i) {
        if (i < policy.skip.size() && policy.skip[i] != 0)
            return; // resolved by the caller's journal replay
        cli::RunOutcome& outcome = result.outcomes[i];
        if (cancel != nullptr && cancel->load()) {
            outcome.ok = false;
            outcome.error = "interrupted";
            outcome.status = RunStatus::cancelled;
            if (policy.onRow)
                policy.onRow(i, outcome, 0);
            return;
        }

        unsigned attempts = 0;
        for (;;) {
            ++attempts;
            RunControl control;
            control.cancel = cancel;
            // A point's deadlineMs starts anew at each attempt's
            // engine start.
            outcome = cli::runScenario(expanded.points[i], control);
            const bool cancelled =
                outcome.status == RunStatus::cancelled ||
                (cancel != nullptr && cancel->load());
            if (outcome.ok || !outcome.transient || cancelled ||
                attempts > policy.retries)
                break;
            const std::uint64_t base =
                retryBackoffMs(policy.backoffMs, attempts - 1);
            const std::uint64_t jitter =
                jitterMs(policy.seed, i, attempts, base / 2 + 1);
            // Saturating: a backoff past u64 sleeps until cancelled
            // instead of wrapping around to a short wait.
            constexpr std::uint64_t most =
                std::numeric_limits<std::uint64_t>::max();
            backoffSleep(jitter > most - base ? most : base + jitter,
                         cancel);
            if (cancel != nullptr && cancel->load()) {
                outcome.ok = false;
                outcome.error = "interrupted";
                outcome.status = RunStatus::cancelled;
                break;
            }
        }
        if (policy.onRow)
            policy.onRow(i, outcome, attempts);
    });
    return result;
}

std::vector<cli::Report>
RunResult::okReports() const
{
    std::vector<cli::Report> reports;
    reports.reserve(outcomes.size());
    for (const cli::RunOutcome& outcome : outcomes)
        if (outcome.ok)
            reports.push_back(outcome.report);
    return reports;
}

std::vector<std::string>
RunResult::rowErrors() const
{
    std::vector<std::string> errors;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok)
            continue;
        errors.push_back("point " + std::to_string(i + 1) + "/" +
                         std::to_string(outcomes.size()) + ": " +
                         outcomes[i].error);
    }
    return errors;
}

} // namespace sweep
} // namespace dalorex

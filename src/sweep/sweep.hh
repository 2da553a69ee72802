/**
 * @file
 * The sweep orchestrator: expand a declarative Plan and execute every
 * scenario point on a fixed-size worker pool.
 *
 * Each worker runs one complete engine instance per point (dataset
 * build, kernel setup, Machine, energy model) with no shared mutable
 * state; results land in their expansion-order slot, so the report
 * vector — and everything rendered from it — is byte-identical for
 * any worker count.
 */

#ifndef DALOREX_SWEEP_SWEEP_HH
#define DALOREX_SWEEP_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sweep/plan.hh"

namespace dalorex
{
namespace sweep
{

/**
 * Outcome of running a plan: one outcome per point, or a plan-level
 * diagnostic. A point that fails (impossible scenario, reference
 * mismatch under validate) fails only its own row — `ok` stays true,
 * the row's RunOutcome carries the one-line error, and the remaining
 * points still run.
 */
struct RunResult
{
    std::vector<cli::RunOutcome> outcomes; //!< expansion order
    GridShape baseline{};                  //!< resolved baseline shape
    bool ok = true;    //!< plan expanded (not: every row succeeded)
    std::string error; //!< one line, set when !ok

    /** Reports of the successful rows, expansion order preserved. */
    std::vector<cli::Report> okReports() const;
    /** One rendered line per failed row ("point 3/12: ..."). */
    std::vector<std::string> rowErrors() const;
    /** Whether every row ran and validated. */
    bool allRowsOk() const { return ok && rowErrors().empty(); }
};

/**
 * Fault policy for one sweep execution: cancellation, retry/backoff
 * for transient failures, resume skip mask and a per-row completion
 * hook (the journal writer). The default runs every row once. A row's
 * wall-clock budget is its point's Options::deadlineMs, counted from
 * engine start on every attempt.
 */
struct RunPolicy
{
    /** Cooperative cancel flag (SIGINT): once set, rows not yet
     *  started fail with "interrupted" instead of running, and the
     *  engine's serial tail unwinds in-flight rows at the next cycle
     *  boundary — the caller flushes the completed rows as partial
     *  output. */
    const std::atomic<bool>* cancel = nullptr;
    /** Extra attempts for a row whose failure is transient (dataset
     *  file I/O, deadline expiry). 0 = fail on first error. */
    unsigned retries = 0;
    /** Backoff before attempt k (1-based retry): backoffMs << (k-1)
     *  plus a deterministic jitter derived from (seed, row, k), all
     *  saturating (see retryBackoffMs). */
    std::uint64_t backoffMs = 250;
    std::uint64_t seed = 1; //!< jitter seed (determinism, not entropy)
    /** Resume mask: skip[i] true = row i is already resolved and must
     *  not run (the caller prefills outcomes[i]). Empty = run all. */
    std::vector<char> skip;
    /** Called from the worker thread right after row `row` resolves
     *  (any status, but not for skip-masked rows); `attempts` counts
     *  runs performed including retries. Must be thread-safe. */
    std::function<void(std::size_t row, const cli::RunOutcome& outcome,
                       unsigned attempts)>
        onRow;
};

/**
 * Run every point of an expanded plan on up to `threads` workers,
 * under a fault policy. A plan that failed to expand (empty axis,
 * unknown dataset, missing baseline) returns ok == false without
 * running anything. Skip-masked rows are never executed and onRow is
 * not called for them; their outcome slots come back
 * default-constructed for the caller to overwrite with its replayed
 * journal records, which is what makes a resumed sweep aggregate
 * byte-identically to an uninterrupted one.
 */
RunResult run(const ExpandResult& expanded, unsigned threads,
              const RunPolicy& policy = {});

} // namespace sweep
} // namespace dalorex

#endif // DALOREX_SWEEP_SWEEP_HH

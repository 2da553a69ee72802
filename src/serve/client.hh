/**
 * @file
 * The serve client the sweep layer runs on: submit expanded scenario
 * points to a `dalorex serve` daemon over its Unix socket and rebuild
 * cli::RunOutcomes from the streamed responses.
 *
 * Each point is one run request (id "p<index>"). The client keeps at
 * most one row unanswered per daemon worker, as the daemon's `stats`
 * answer counts them, and sends the next as each answer arrives: the
 * daemon counts a row's deadline from acceptance, so no row waits in
 * its queue behind the same sweep's rows. Responses may arrive in any
 * order and land in their expansion-order slot, so everything
 * downstream (aggregation, tables, JSONL) is byte-identical to an
 * in-process sweep of the same plan — the daemon's result payloads
 * are the exact renderJson bytes, and the derived quantities are
 * recomputed locally through the same code paths
 * (see protocol.hh::parseReportPayload).
 */

#ifndef DALOREX_SERVE_CLIENT_HH
#define DALOREX_SERVE_CLIENT_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "cli/cli.hh"

namespace dalorex
{
namespace serve
{

/**
 * Submit every point to the daemon at `socketPath` under client name
 * `client` and collect per-point outcomes in expansion order. A row
 * the daemon answers with `error` fails only that row, exactly like
 * an in-process run, and keeps the error's "transient" flag in
 * RunOutcome::transient; a `result` whose payload carries a
 * non-completed status (a deadline expiry server-side) also fails its
 * row, with the status as the error. False with `err` on
 * transport-level failures (no daemon, broken socket). A set `cancel`
 * flag (SIGINT) stops waiting; unresolved rows come back as failed
 * with "interrupted".
 *
 * `skip` (may be null/short) masks rows the caller already resolved
 * from its journal — they are neither submitted nor waited for.
 * `onRow` (may be empty) fires from this thread as each submitted row
 * resolves, in arrival order — the sweep journal appends from it.
 */
bool runViaSocket(const std::string& socketPath,
                  const std::string& client,
                  const std::vector<cli::Options>& points,
                  std::vector<cli::RunOutcome>& outcomes,
                  std::string& err,
                  const std::atomic<bool>* cancel = nullptr,
                  const std::vector<char>* skip = nullptr,
                  const std::function<void(std::size_t,
                                           const cli::RunOutcome&)>&
                      onRow = {});

} // namespace serve
} // namespace dalorex

#endif // DALOREX_SERVE_CLIENT_HH

#include "sweep/sweep_cli.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <vector>

#include "cli/scenario.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/text.hh"
#include "graph/dataset_cache.hh"
#include "graph/datasets.hh"
#include "graph/graphfile.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sweep/aggregate.hh"
#include "sweep/sweep.hh"

namespace dalorex
{
namespace sweep
{
namespace
{

/** Set by the SIGINT handler while a sweep is executing. */
std::atomic<bool> interrupted{false};

void
onInterrupt(int)
{
    interrupted.store(true);
}

/**
 * Install the SIGINT handler for the run phase and restore the old
 * one on destruction. No SA_RESTART: the serve client's blocked
 * reads must return EINTR so a ^C flushes partial rows promptly.
 */
struct InterruptGuard
{
    struct sigaction old{};

    InterruptGuard()
    {
        interrupted.store(false);
        struct sigaction sa{};
        sa.sa_handler = onInterrupt;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0;
        sigaction(SIGINT, &sa, &old);
    }

    ~InterruptGuard() { sigaction(SIGINT, &old, nullptr); }
};

std::vector<std::string>
splitCommas(const std::string& text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(text.substr(start));
            break;
        }
        out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

SweepParseResult
fail(const std::string& message)
{
    SweepParseResult result;
    result.ok = false;
    result.error = message;
    return result;
}

/**
 * Parse one comma-list value of `axis` into one Options per item.
 * Beyond the table's spellings, --kernel takes `all` and --dataset
 * takes NAME@SCALE (not on file: names, which are paths and may hold
 * '@'; their size is fixed anyway).
 */
bool
parseList(const cli::Axis& axis, const std::string& flag,
          const std::string& value, std::vector<cli::Options>& items,
          std::string& err)
{
    const std::string key = axis.key;
    for (const std::string& item : splitCommas(value)) {
        if (key == "kernel" && toLower(item) == "all") {
            for (const KernelInfo* kernel : allKernels()) {
                items.emplace_back();
                items.back().kernel = kernel;
            }
            continue;
        }
        cli::Options parsed;
        std::string text = item;
        const std::size_t at = key == "dataset" && !isFileDataset(item)
                                   ? item.find('@')
                                   : std::string::npos;
        if (at != std::string::npos) {
            text = item.substr(0, at);
            if (!cli::axisByKey("dataset_scale")
                     ->parse("dataset scale", item.substr(at + 1),
                             parsed, err))
                return false;
        }
        if (!axis.parse(flag, text, parsed, err))
            return false;
        items.push_back(std::move(parsed));
    }
    return true;
}

} // namespace

SweepParseResult
parseSweepArgs(int argc, const char* const* argv)
{
    SweepParseResult result;
    SweepOptions& o = result.options;
    // Comma-list axes by request key: one Options per value, argv order.
    std::map<std::string, std::vector<cli::Options>> lists;
    // Sweep's own valued flags match only when their value is there;
    // a missing one falls through to the error below.
    std::string value;
    std::string missing;
    std::string retryFlag; // the last retry flag given, if any

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&] {
            if (i + 1 < argc) {
                value = argv[++i];
                return true;
            }
            missing = flag + " needs a value";
            return false;
        };
        // A path value, not the next flag swallowed by a missing one.
        auto path = [&value](std::string& out) {
            out = value;
            return !value.empty() && value.rfind("--", 0) != 0;
        };
        const cli::Axis* axis = cli::axisByFlag(flag);
        if (axis != nullptr && axis->sweep != cli::SweepTakes::none) {
            std::string err;
            if (!cli::flagValue(*axis, argc, argv, i, value))
                return fail(flag + " needs a value");
            if (axis->sweep == cli::SweepTakes::list
                    ? !parseList(*axis, flag, value, lists[axis->key], err)
                    : !axis->parse(flag, value, o.plan.base, err))
                return fail(err);
        } else if (flag == "--help" || flag == "-h") {
            o.help = true;
        } else if (flag == "--list-datasets") {
            o.listDatasets = true;
        } else if (flag == "--list-kernels") {
            o.listKernels = true;
        } else if (flag == "--grid-size" && next()) {
            for (const std::string& item : splitCommas(value)) {
                GridShape shape;
                if (!parseGridShape(item, shape))
                    return fail("bad grid size (want WxH, e.g. "
                                "16x16): " + item);
                o.plan.grids.push_back(shape);
            }
        } else if (flag == "--barrier" && next()) {
            const std::string mode = toLower(value);
            if (mode == "off")
                o.plan.barriers = {false};
            else if (mode == "on")
                o.plan.barriers = {true};
            else if (mode == "both")
                o.plan.barriers = {false, true};
            else
                return fail("--barrier must be off|on|both, got " +
                            value);
        } else if (flag == "--baseline" && next()) {
            if (!parseGridShape(value, o.plan.baseline))
                return fail("bad --baseline (want WxH, e.g. 4x4): " +
                            value);
        } else if (flag == "--threads" && next()) {
            std::uint32_t threads = 0;
            if (!cli::parseU32(value, 1, 256, threads))
                return fail("--threads must be in [1, 256], got " +
                            value);
            o.threads = threads;
        } else if (flag == "--via" && next()) {
            if (!path(o.via))
                return fail("--via needs a daemon socket path");
        } else if (flag == "--csv" && next()) {
            if (!path(o.csvPath))
                return fail("--csv needs a file path");
        } else if (flag == "--jsonl" && next()) {
            if (!path(o.jsonlPath))
                return fail("--jsonl needs a file path");
        } else if (flag == "--journal" && next()) {
            if (!path(o.journalPath))
                return fail("--journal needs a file path");
        } else if (flag == "--retries" && next()) {
            std::uint32_t retries = 0;
            if (!cli::parseU32(value, 0, 16, retries))
                return fail("--retries must be in [0, 16], got " +
                            value);
            o.retries = retries;
            retryFlag = flag;
        } else if (flag == "--retry-backoff-ms" && next()) {
            if (!cli::parseU64(value, o.retryBackoffMs))
                return fail("--retry-backoff-ms must be an integer, "
                            "got " + value);
            retryFlag = flag;
        } else if (flag == "--json") {
            o.json = true;
        } else if (flag == "--quick") {
            o.quick = true;
        } else if (flag == "--full") {
            o.quick = false;
        } else {
            return fail(!missing.empty()
                            ? missing
                            : "unknown option: " + flag + " (try --help)");
        }
    }

    // The daemon runs --via rows under its own retry policy.
    if (!o.via.empty() && !retryFlag.empty())
        return fail(retryFlag + " does not apply to --via rows; start "
                    "the daemon with `dalorex serve --retries N`");

    // Listed axes replace the Plan defaults; then defaults that depend
    // on other flags apply once argv is read.
    Plan& plan = o.plan;
    auto take = [&lists](const char* key, auto& axis, auto value_of) {
        const auto it = lists.find(key);
        if (it == lists.end())
            return;
        axis.clear();
        for (const cli::Options& item : it->second)
            axis.push_back(value_of(item));
    };
    take("kernel", plan.kernels,
         [](const cli::Options& x) { return x.kernel; });
    take("topology", plan.topologies,
         [](const cli::Options& x) { return x.machine.topology; });
    take("policy", plan.policies,
         [](const cli::Options& x) { return x.machine.policy; });
    take("distribution", plan.distributions,
         [](const cli::Options& x) { return x.machine.distribution; });
    take("engine_threads", plan.engineThreads,
         [](const cli::Options& x) { return x.machine.engineThreads; });
    take("dataset", plan.datasets, [&o](const cli::Options& x) {
        const unsigned scale = x.datasetScale != 0 ? x.datasetScale
                               : o.quick ? defaultQuickScale(x.dataset)
                                         : 0;
        return DatasetSpec{x.dataset, scale};
    });
    for (const cli::Options& x : lists["scale"])
        plan.datasets.push_back({"", x.scale});
    if (plan.datasets.empty())
        plan.datasets.push_back({"", o.quick ? 10u : 14u});
    if (plan.kernels.empty())
        plan.kernels = allKernels();
    if (plan.grids.empty())
        plan.grids = {{4, 4}, {8, 8}, {16, 16}};
    return result;
}

std::string
sweepUsageText()
{
    return
        "usage: dalorex sweep [options]\n"
        "\n"
        "Expands a scenario grid (kernels x datasets x machine shapes\n"
        "x policy knobs) into concrete runs, executes them on a\n"
        "worker pool, and prints one aggregate row per point with\n"
        "speedup vs the baseline grid, strong-scaling parallel\n"
        "efficiency and energy per edge.\n"
        "\n"
        "scenario axes (V,... takes a comma list: one grid axis):\n" +
        cli::axisUsage(true) +
        cli::usageLine("--grid-size WxH,...",
                       "machine shapes (default 4x4,8x8,16x16)") +
        cli::usageLine("--barrier M", "off|on|both (default off)") +
        cli::usageLine("--baseline WxH", "speedup baseline shape "
                                         "(default: first --grid-size)") +
        cli::usageLine("--quick / --full", "stand-in scale for named "
                                           "datasets (default quick)") +
        "\nexecution and output:\n" +
        cli::usageLine("--threads N",
                       "total thread budget [1, 256] (default: host "
                       "cores); splits into sweep workers x the largest "
                       "--engine-threads value and must cover it; output "
                       "is identical for every N") +
        cli::usageLine("--via SOCKET",
                       "submit the points to a running `dalorex serve` "
                       "daemon at this Unix socket instead of running "
                       "in-process (output is byte-identical)") +
        cli::usageLine("--csv PATH", "write the aggregate table as CSV") +
        cli::usageLine("--jsonl PATH", "write one JSON object per row") +
        "\nfault tolerance:\n" +
        cli::usageLine("--journal PATH",
                       "append one checksummed record per row as it "
                       "resolves. A journal of the same plan already at "
                       "PATH is replayed first, so rerunning a killed "
                       "sweep resumes it: completed rows are not re-run "
                       "and the output is byte-identical to an "
                       "uninterrupted sweep. Any other non-empty file is "
                       "refused untouched") +
        cli::usageLine("--retries N",
                       "re-run transiently failing rows (dataset I/O, "
                       "timeouts) up to N extra times [0, 16] (default "
                       "0); not with --via, whose daemon retries under "
                       "`dalorex serve --retries`") +
        cli::usageLine("--retry-backoff-ms M",
                       "base backoff before a retry, doubled per attempt "
                       "with deterministic jitter (default 250)") +
        cli::usageLine("--json",
                       "print JSON-lines to stdout instead of the table") +
        cli::usageLine("--list-datasets", "list the dataset names and exit") +
        cli::usageLine("--list-kernels",
                       "list the registered kernels and exit") +
        cli::usageLine("--help", "this text") +
        "\n"
        "examples:\n"
        "  dalorex sweep --kernel all --grid-size 4x4,8x8 --quick"
        " --threads 4 --csv out.csv\n"
        "  dalorex sweep --kernel bfs --scale 10,12,14"
        " --grid-size 1x1,4x4,16x16 --baseline 1x1\n";
}

int
sweepMain(int argc, const char* const* argv, std::ostream& out,
          std::ostream& err)
{
    const SweepParseResult parsed = parseSweepArgs(argc, argv);
    if (!parsed.ok) {
        err << "dalorex sweep: " << parsed.error << "\n";
        return 2;
    }
    const SweepOptions& o = parsed.options;
    if (o.help) {
        out << sweepUsageText();
        return 0;
    }
    if (o.listDatasets) {
        out << cli::datasetListText();
        return 0;
    }
    if (o.listKernels) {
        out << cli::kernelListText();
        return 0;
    }

    const ExpandResult expanded = expand(o.plan);
    if (!expanded.ok) {
        err << "dalorex sweep: " << expanded.error << "\n";
        return 2;
    }
    for (const std::string& note : expanded.notes)
        err << "dalorex sweep: " << note << "\n";
    // An output file that cannot be opened fails before any row runs.
    // The probe appends nothing and removes a file it created, so the
    // outputs change only when the rows render.
    for (const std::string* path : {&o.csvPath, &o.jsonlPath}) {
        std::error_code ec;
        const bool created =
            !path->empty() && !std::filesystem::exists(*path, ec);
        if (!path->empty() && !std::ofstream(*path, std::ios::app)) {
            err << "dalorex sweep: cannot open " << *path << "\n";
            return 2;
        }
        if (created)
            std::filesystem::remove(*path, ec);
    }

    // Scenario identity: one hash per row over its canonical request
    // bytes and a plan hash over all of them. Journals bind to both,
    // so a record can never replay into a different plan or row.
    std::vector<std::uint64_t> point_hashes;
    point_hashes.reserve(expanded.points.size());
    for (const cli::Options& point : expanded.points)
        point_hashes.push_back(serve::pointHash(point));
    const std::uint64_t plan_hash =
        hashBytes(point_hashes.data(),
                  point_hashes.size() * sizeof(std::uint64_t));

    // A non-empty --journal file is replayed before the run appends
    // to it: rows whose record verifies are masked off the run and
    // their outcomes rebuilt through the same parseReportPayload path
    // `--via` uses, so the merged output is byte-identical to an
    // uninterrupted sweep. A file that is not a journal of this plan
    // is refused before anything is written to it.
    std::vector<char> skip(expanded.points.size(), 0);
    std::vector<cli::RunOutcome> replayed_outcomes(
        expanded.points.size());
    std::uint64_t rows_replayed = 0;
    std::error_code no_file;
    const std::uintmax_t journal_bytes =
        o.journalPath.empty()
            ? 0
            : std::filesystem::file_size(o.journalPath, no_file);
    if (!no_file && journal_bytes > 0) {
        const journal::Replay rep = journal::replay(o.journalPath);
        if (!rep.ok) {
            err << "dalorex sweep: " << rep.error << "\n";
            return 2;
        }
        if (rep.planHash != plan_hash ||
            rep.points != expanded.points.size()) {
            err << "dalorex sweep: journal " << o.journalPath
                << " records a different plan; refusing to resume\n";
            return 2;
        }
        for (const journal::Record& record : rep.records) {
            if (record.row >= expanded.points.size() ||
                record.pointHash != point_hashes[record.row])
                continue; // stale record; run the row
            cli::RunOutcome outcome;
            bool resolved = false;
            if (record.status == journal::RowStatus::ok) {
                std::string perr;
                resolved = serve::parseReportPayload(
                    record.payload, expanded.points[record.row],
                    outcome.report, perr);
            } else if (record.status ==
                       journal::RowStatus::quarantined) {
                // Permanent failures replay their error; transient
                // (`failed`) and interrupted (`skipped`) rows re-run.
                outcome.ok = false;
                outcome.error = record.error;
                resolved = true;
            }
            if (resolved) {
                skip[record.row] = 1;
                replayed_outcomes[record.row] = std::move(outcome);
            } else {
                skip[record.row] = 0; // last record wins
            }
        }
        for (const char s : skip)
            rows_replayed += s != 0 ? 1 : 0;
        err << "[sweep] resumed " << rows_replayed << " of "
            << expanded.points.size() << " rows from "
            << o.journalPath;
        if (rep.corrupt > 0)
            err << " (" << rep.corrupt << " damaged line"
                << (rep.corrupt == 1 ? "" : "s") << " dropped)";
        err << "\n";
    }

    journal::Writer journal_writer;
    if (!o.journalPath.empty()) {
        std::string jerr;
        if (!journal_writer.open(o.journalPath, plan_hash,
                                 expanded.points.size(), jerr)) {
            err << "dalorex sweep: " << jerr << "\n";
            return 2;
        }
    }

    std::atomic<std::uint64_t> retried_rows{0};
    auto classify = [](const cli::RunOutcome& outcome) {
        if (outcome.ok)
            return journal::RowStatus::ok;
        if (outcome.status == RunStatus::cancelled ||
            outcome.error == "interrupted")
            return journal::RowStatus::skipped;
        return outcome.transient ? journal::RowStatus::failed
                                 : journal::RowStatus::quarantined;
    };
    auto record_row = [&](std::size_t row,
                          const cli::RunOutcome& outcome,
                          unsigned attempts) {
        if (attempts > 1)
            retried_rows.fetch_add(attempts - 1);
        if (!journal_writer.isOpen())
            return;
        journal::Record record;
        record.row = row;
        record.pointHash = point_hashes[row];
        record.status = classify(outcome);
        record.attempts = std::max(1u, attempts);
        if (record.status == journal::RowStatus::ok) {
            record.payload = cli::renderJson(outcome.report);
            while (!record.payload.empty() &&
                   record.payload.back() == '\n')
                record.payload.pop_back();
        } else {
            record.error = outcome.error;
        }
        journal_writer.append(record);
    };

    // SIGINT during the run phase degrades to a partial sweep: rows
    // already completed still aggregate, flush and report below with
    // exit code 130, instead of dropping everything on the floor.
    const DatasetCacheStats cache_before = datasetCacheStats();
    InterruptGuard sigint;
    RunResult run_result;
    if (!o.via.empty()) {
        // Client mode: the daemon executes the points; its warm
        // dataset cache and resident crew replace the local pool.
        err << "[sweep] submitting "
            << expanded.points.size() - rows_replayed
            << " scenario points to the daemon at " << o.via << "\n";
        run_result.baseline = expanded.baseline;
        std::string via_error;
        if (!serve::runViaSocket(
                o.via, "sweep", expanded.points, run_result.outcomes,
                via_error, &interrupted, &skip,
                [&record_row](std::size_t row,
                              const cli::RunOutcome& outcome) {
                    record_row(row, outcome, 1);
                })) {
            err << "dalorex sweep: " << via_error << "\n";
            return 2;
        }
    } else {
        // One thread budget: `--threads` covers sweep workers times
        // the engine threads inside each point, so a machine-parallel
        // sweep does not oversubscribe the host. Workers = threads /
        // max axis value (at least 1). An explicit budget below the
        // largest engine-threads value cannot be honored — refuse it
        // instead of silently oversubscribing; a defaulted budget
        // grows to fit.
        unsigned max_engine_threads = 1;
        for (const unsigned n : o.plan.engineThreads)
            max_engine_threads = std::max(max_engine_threads, n);
        if (o.threads > 0 && o.threads < max_engine_threads) {
            err << "dalorex sweep: --threads " << o.threads
                << " is below the largest --engine-threads value ("
                << max_engine_threads
                << "); raise the budget or lower the axis\n";
            return 2;
        }
        const unsigned budget =
            o.threads > 0
                ? o.threads
                : std::max(defaultWorkerThreads(),
                           max_engine_threads);
        const unsigned threads =
            std::max(1u, budget / max_engine_threads);
        err << "[sweep] " << expanded.points.size()
            << " scenario points on " << threads << " worker thread"
            << (threads == 1 ? "" : "s");
        if (max_engine_threads > 1)
            err << " x " << max_engine_threads
                << " engine threads (budget " << budget << ")";
        err << "\n";

        RunPolicy policy;
        policy.cancel = &interrupted;
        policy.retries = o.retries;
        policy.backoffMs = o.retryBackoffMs;
        policy.seed = o.plan.base.seed;
        policy.skip = skip;
        policy.onRow = record_row;
        run_result = run(expanded, threads, policy);
    }
    if (!run_result.ok) {
        err << "dalorex sweep: " << run_result.error << "\n";
        return 2;
    }
    // Replayed rows come back from the journal, not the run.
    for (std::size_t i = 0; i < skip.size() &&
                            i < run_result.outcomes.size();
         ++i)
        if (skip[i] != 0)
            run_result.outcomes[i] = replayed_outcomes[i];
    const bool was_interrupted = interrupted.load();

    // A failed point fails only its own row: report it, render the
    // survivors (whose baseline row may be among the casualties, so
    // degrade missing baselines to "-" instead of erroring). Rows an
    // interrupt skipped are summarized in one line, not per row.
    std::vector<std::string> row_errors;
    std::size_t skipped = 0;
    std::size_t quarantined = 0;
    for (std::size_t i = 0; i < run_result.outcomes.size(); ++i) {
        const cli::RunOutcome& outcome = run_result.outcomes[i];
        if (outcome.ok)
            continue;
        if (was_interrupted &&
            (outcome.status == RunStatus::cancelled ||
             outcome.error == "interrupted")) {
            ++skipped;
            continue;
        }
        if (!outcome.transient &&
            outcome.status == RunStatus::completed)
            ++quarantined;
        row_errors.push_back(
            "point " + std::to_string(i + 1) + "/" +
            std::to_string(run_result.outcomes.size()) + ": " +
            outcome.error);
    }
    for (const std::string& line : row_errors)
        err << "dalorex sweep: " << line << "\n";
    const AggregateResult agg = aggregate(
        run_result.okReports(), run_result.baseline,
        row_errors.empty() && !was_interrupted
            ? MissingBaseline::error
            : MissingBaseline::skip);
    if (!agg.ok) {
        err << "dalorex sweep: " << agg.error << "\n";
        return 2;
    }

    // One summary line closes the machine-readable outputs: row
    // accounting plus the dataset-cache traffic this sweep caused —
    // the warm-cache effect (PR 6/7) measured where users can see it.
    const DatasetCacheStats cache_after = datasetCacheStats();
    const std::string summary =
        "{\"type\":\"summary\",\"points\":" +
        std::to_string(expanded.points.size()) +
        ",\"rows_ok\":" + std::to_string(agg.rows.size()) +
        ",\"rows_failed\":" + std::to_string(row_errors.size()) +
        ",\"rows_skipped\":" + std::to_string(skipped) +
        ",\"rows_quarantined\":" + std::to_string(quarantined) +
        ",\"rows_replayed\":" + std::to_string(rows_replayed) +
        ",\"retries\":" + std::to_string(retried_rows.load()) +
        ",\"journal_written\":" +
        std::to_string(journal_writer.written()) +
        ",\"dataset_cache_builds\":" +
        std::to_string(cache_before.builds <= cache_after.builds
                           ? cache_after.builds - cache_before.builds
                           : 0) +
        ",\"dataset_cache_hits\":" +
        std::to_string(cache_before.hits <= cache_after.hits
                           ? cache_after.hits - cache_before.hits
                           : 0) +
        "}\n";

    const Table table = toTable(agg.rows);
    if (o.json)
        out << toJsonl(agg.rows) << summary;
    else
        out << table.toText();
    if (!o.csvPath.empty())
        table.writeCsv(o.csvPath);
    if (!o.jsonlPath.empty()) {
        std::ofstream file(o.jsonlPath);
        fatal_if(!file, "cannot open JSONL output file: ",
                 o.jsonlPath);
        // Rows only, no summary trailer: the summary's cache deltas
        // and replay counters depend on process history, and the
        // file's contract is byte-identity — a resumed sweep's JSONL
        // must diff clean against the uninterrupted run's. The
        // summary still closes the stdout stream under --json.
        file << toJsonl(agg.rows);
        fatal_if(!file, "error writing JSONL output file: ",
                 o.jsonlPath);
    }
    if (was_interrupted) {
        err << "[sweep] interrupted: " << agg.rows.size()
            << " completed row" << (agg.rows.size() == 1 ? "" : "s")
            << " flushed, " << skipped << " skipped\n";
        return 130;
    }
    return row_errors.empty() ? 0 : 1;
}

} // namespace sweep
} // namespace dalorex

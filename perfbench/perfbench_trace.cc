/**
 * @file
 * perfbench_trace: the benchmark's tracer.
 *
 * Runs the same scenarios the `dalorex` front ends run, but calls each
 * layer's public functions itself and records a span around every
 * call: name, start, end, parent and the scenario point it belongs to.
 * Spans stay in memory and are written as one JSON object at exit,
 * together with the engine counters summed over every point, so the
 * benchmark can compute per-layer self time (span minus children) and
 * ratios measured where the work happens.
 *
 * The per-point pipeline mirrors cli::runScenario followed by
 * cli::renderJson. The benchmark diffs what this program renders
 * against the real front ends' output byte for byte, which proves the
 * traced program is the measured one.
 *
 * usage:
 *   perfbench_trace points --spans F --out F [--threads N]
 *                   (--requests F | --requests-out F -- ARGS)
 *       Scenario points one at a time through the per-point pipeline,
 *       one rendered report per line to --out ("-" for a failure).
 *       The points are the `dalorex serve` request lines in
 *       --requests, or those of `dalorex ARGS` (one point) or
 *       `dalorex sweep ARGS` (its expansion), rendered as request
 *       lines into --requests-out. Every line goes through the serve
 *       request parser; --threads overrides --engine-threads.
 *   perfbench_trace sweep --spans F --out F -- ARGS
 *       `dalorex sweep ARGS`: expand, run, render (JSONL rows to --out)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/graph_app.hh"
#include "apps/kernels.hh"
#include "cli/cli.hh"
#include "common/parallel.hh"
#include "energy/model.hh"
#include "graph/dataset_cache.hh"
#include "graph/datasets.hh"
#include "serve/protocol.hh"
#include "sweep/aggregate.hh"
#include "sweep/plan.hh"
#include "sweep/sweep.hh"
#include "sweep/sweep_cli.hh"

namespace
{

using namespace dalorex;
using Clock = std::chrono::steady_clock;

struct Span
{
    const char* name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; //!< index into the span list; -1 for a root
    long point = -1; //!< scenario point the span belongs to
};

/**
 * Single-threaded span recorder: a span opened while another is open
 * becomes its child. Calls into multi-threaded layers (sweep::run)
 * are wrapped from this thread only.
 */
class Tracer
{
  public:
    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer& tracer, const char* name, long point)
            : tracer_(tracer), index_(tracer.open(name, point))
        {
        }
        ~Scope() { tracer_.close(index_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
        int index_;
    };

    void
    write(std::ostream& out) const
    {
        out << "\"spans\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << (i > 0 ? "," : "") << "{\"name\":\"" << s.name
                << "\",\"start\":" << s.start << ",\"end\":" << s.end
                << ",\"parent\":" << s.parent
                << ",\"point\":" << s.point << "}";
        }
        out << "]";
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    int
    open(const char* name, long point)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, now(), 0.0, parent, point});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int index)
    {
        spans_[static_cast<std::size_t>(index)].end = now();
        stack_.pop_back();
    }

    const Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Engine counters summed over every traced point. */
struct Counters
{
    std::uint64_t points = 0;
    std::uint64_t pointsFailed = 0;
    std::uint64_t cycles = 0;
    std::uint64_t tileCycles = 0; //!< cycles x tiles (utilization base)
    std::uint64_t puBusyCycles = 0;
    std::uint64_t invocations = 0;
    std::uint64_t steppedCycles = 0;
    std::uint64_t nocSteppedCycles = 0;
    std::uint64_t tileScans = 0;
    std::uint64_t tileScansSaved = 0;
    std::uint64_t routerScans = 0;
    std::uint64_t routerScansSaved = 0;
    std::uint64_t flitHops = 0;
    std::uint64_t messagesDelivered = 0;
    std::uint64_t deliveryStalls = 0;
    std::uint64_t reportBytes = 0;

    void
    add(const RunStats& s, std::uint32_t tiles)
    {
        cycles += s.cycles;
        tileCycles += s.cycles * tiles;
        puBusyCycles += s.puBusyCycles;
        invocations += s.invocations;
        steppedCycles += s.engineSteppedCycles;
        nocSteppedCycles += s.nocSteppedCycles;
        tileScans += s.tileScans;
        tileScansSaved += s.activeTileCyclesSaved;
        routerScans += s.routerScans;
        routerScansSaved += s.activeRouterCyclesSaved;
        flitHops += s.noc.flitHops;
        messagesDelivered += s.noc.messagesDelivered;
        deliveryStalls += s.noc.deliveryStalls;
    }

    void
    write(std::ostream& out) const
    {
        out << "\"counters\":{\"points\":" << points
            << ",\"points_failed\":" << pointsFailed
            << ",\"cycles\":" << cycles
            << ",\"tile_cycles\":" << tileCycles
            << ",\"pu_busy_cycles\":" << puBusyCycles
            << ",\"invocations\":" << invocations
            << ",\"stepped_cycles\":" << steppedCycles
            << ",\"noc_stepped_cycles\":" << nocSteppedCycles
            << ",\"tile_scans\":" << tileScans
            << ",\"tile_scans_saved\":" << tileScansSaved
            << ",\"router_scans\":" << routerScans
            << ",\"router_scans_saved\":" << routerScansSaved
            << ",\"flit_hops\":" << flitHops
            << ",\"messages_delivered\":" << messagesDelivered
            << ",\"delivery_stalls\":" << deliveryStalls
            << ",\"report_bytes\":" << reportBytes << "}";
    }
};

/**
 * One scenario point through every layer, as cli::runScenario and
 * cli::renderJson run it, with a span per layer call. Returns the
 * rendered report, or "" with `error` set when the point fails.
 */
std::string
tracedPoint(Tracer& tracer, const cli::Options& options, long point,
            Counters& counters, std::string& error)
{
    Tracer::Scope root(tracer, "point", point);
    ++counters.points;
    cli::Report report;
    report.options = options;

    const std::string dataset_name =
        !options.dataset.empty()
            ? options.dataset
            : "rmat" + std::to_string(options.scale);
    if (options.kernel == nullptr || !knownDataset(dataset_name)) {
        error = "unknown kernel or dataset " + dataset_name;
        ++counters.pointsFailed;
        return "";
    }
    CachedDataset cached;
    {
        Tracer::Scope span(tracer, "graph.dataset", point);
        cached = datasetCacheGet(dataset_name, options.datasetScale,
                                 options.seed);
    }
    if (!cached.ok) {
        error = cached.error;
        ++counters.pointsFailed;
        return "";
    }
    report.datasetName = !options.dataset.empty() ? cached.dataset->name
                                                  : dataset_name;

    std::unique_ptr<KernelSetup> setup;
    std::unique_ptr<GraphAppBase> app;
    {
        Tracer::Scope span(tracer, "apps.kernel_setup", point);
        setup = std::make_unique<KernelSetup>(makeKernelSetup(
            *options.kernel, cached.dataset->graph, options.seed));
        applyParamOverrides(*setup, options.params);
        app = setup->makeApp();
    }
    report.numVertices = setup->graph.numVertices;
    report.numEdges = setup->graph.numEdges;

    std::unique_ptr<Machine> machine;
    {
        Tracer::Scope span(tracer, "sim.build", point);
        machine = std::make_unique<Machine>(options.machine,
                                            setup->graph.numVertices,
                                            setup->graph.numEdges);
    }
    {
        Tracer::Scope span(tracer, "sim.run", point);
        RunControl control;
        report.stats = machine->run(*app, &control);
    }
    counters.add(report.stats, options.machine.numTiles());
    if (report.stats.status != RunStatus::completed) {
        error = std::string(toString(report.stats.status)) + ": " +
                report.stats.statusDetail;
        ++counters.pointsFailed;
        return "";
    }
    {
        Tracer::Scope span(tracer, "energy.model", point);
        report.energy = dalorexEnergy(report.stats, options.machine);
        report.seconds = runSeconds(report.stats);
        report.bandwidthBytesPerSec = avgMemoryBandwidth(report.stats);
    }
    if (options.validate) {
        Tracer::Scope span(tracer, "apps.validate", point);
        const ValidationResult valid =
            validateRun(*setup, *app, *machine);
        if (!valid) {
            error = options.kernel->name + ": " + valid.detail;
            ++counters.pointsFailed;
            return "";
        }
        report.validated = true;
    }
    std::string rendered;
    {
        Tracer::Scope span(tracer, "cli.render", point);
        rendered = cli::renderJson(report);
    }
    counters.reportBytes += rendered.size();
    return rendered;
}

/** The worker count `dalorex sweep` derives from its thread budget. */
unsigned
sweepWorkers(const sweep::SweepOptions& o)
{
    unsigned max_engine_threads = 1;
    for (const unsigned n : o.plan.engineThreads)
        max_engine_threads = std::max(max_engine_threads, n);
    const unsigned budget =
        o.threads > 0 ? o.threads
                      : std::max(defaultWorkerThreads(), max_engine_threads);
    return std::max(1u, budget / max_engine_threads);
}

/** The request lines of `dalorex ARGS` or `dalorex sweep ARGS`. */
bool
frontEndRequests(const std::vector<const char*>& args,
                 std::vector<std::string>& lines)
{
    std::vector<cli::Options> points;
    if (args.size() > 1 && std::string(args[1]) == "sweep") {
        const std::vector<const char*> sweep_args(args.begin() + 1,
                                                  args.end());
        const sweep::SweepParseResult parsed = sweep::parseSweepArgs(
            static_cast<int>(sweep_args.size()), sweep_args.data());
        if (!parsed.ok) {
            std::cerr << "perfbench_trace: " << parsed.error << "\n";
            return false;
        }
        const sweep::ExpandResult expanded =
            sweep::expand(parsed.options.plan);
        if (!expanded.ok) {
            std::cerr << "perfbench_trace: " << expanded.error << "\n";
            return false;
        }
        points = expanded.points;
    } else {
        const cli::ParseResult parsed =
            cli::parseArgs(static_cast<int>(args.size()), args.data());
        if (!parsed.ok) {
            std::cerr << "perfbench_trace: " << parsed.error << "\n";
            return false;
        }
        points.push_back(parsed.options);
    }
    for (std::size_t i = 0; i < points.size(); ++i)
        lines.push_back(serve::renderRunRequest(
            points[i], "p" + std::to_string(i), "perfbench"));
    return true;
}

int
runPoints(Tracer& tracer, Counters& counters, std::ostream& out,
          const std::vector<std::string>& lines, unsigned threads)
{
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const long index = static_cast<long>(i);
        serve::ParsedRequest parsed;
        {
            Tracer::Scope span(tracer, "serve.parse", index);
            parsed = serve::parseRequestLine(lines[i]);
        }
        std::string error = parsed.ok ? "" : parsed.error;
        std::string rendered;
        if (parsed.ok) {
            cli::Options& options = parsed.request.options;
            if (threads > 0)
                options.machine.engineThreads =
                    std::min(threads, options.machine.numTiles());
            rendered =
                tracedPoint(tracer, options, index, counters, error);
        }
        if (!error.empty()) {
            std::cerr << "perfbench_trace: point " << i + 1 << ": "
                      << error << "\n";
            out << "-\n";
            continue;
        }
        out << rendered;
    }
    return counters.pointsFailed == 0 ? 0 : 1;
}

int
runSweep(Tracer& tracer, std::ostream& out,
         const std::vector<const char*>& args, std::size_t& rows_failed)
{
    const sweep::SweepParseResult parsed = sweep::parseSweepArgs(
        static_cast<int>(args.size()), args.data());
    if (!parsed.ok) {
        std::cerr << "perfbench_trace: " << parsed.error << "\n";
        return 2;
    }
    sweep::ExpandResult expanded;
    {
        Tracer::Scope span(tracer, "sweep.expand", -1);
        expanded = sweep::expand(parsed.options.plan);
    }
    if (!expanded.ok) {
        std::cerr << "perfbench_trace: " << expanded.error << "\n";
        return 2;
    }
    sweep::RunResult result;
    {
        Tracer::Scope span(tracer, "sweep.run", -1);
        result = sweep::run(expanded, sweepWorkers(parsed.options));
    }
    rows_failed = result.rowErrors().size();
    {
        Tracer::Scope span(tracer, "sweep.render", -1);
        const sweep::AggregateResult agg = sweep::aggregate(
            result.okReports(), result.baseline,
            rows_failed == 0 ? sweep::MissingBaseline::error
                             : sweep::MissingBaseline::skip);
        out << sweep::toJsonl(agg.rows);
    }
    return rows_failed == 0 ? 0 : 1;
}

int
usage()
{
    std::cerr << "usage: perfbench_trace points|sweep --spans F --out F "
                 "[--threads N] [--requests F] [--requests-out F] "
                 "[-- ARGS]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::string spans_path;
    std::string out_path;
    std::string requests_path;
    std::string requests_out_path;
    unsigned threads = 0;
    // argv[0] of the forwarded front-end arguments is skipped by the
    // parsers, so the mode word stands in for it.
    std::vector<const char*> args{argv[1]};
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--") {
            args.insert(args.end(), argv + i + 1, argv + argc);
            break;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (flag == "--spans")
            spans_path = value;
        else if (flag == "--out")
            out_path = value;
        else if (flag == "--requests")
            requests_path = value;
        else if (flag == "--requests-out")
            requests_out_path = value;
        else if (flag == "--threads")
            threads = static_cast<unsigned>(std::stoul(value));
        else
            return usage();
    }
    if (spans_path.empty() || out_path.empty() ||
        (mode != "points" && mode != "sweep"))
        return usage();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "perfbench_trace: cannot write " << out_path << "\n";
        return 2;
    }
    Tracer tracer;
    Counters counters;
    std::size_t rows_failed = 0;
    int code = 0;
    if (mode == "sweep") {
        code = runSweep(tracer, out, args, rows_failed);
    } else {
        std::vector<std::string> lines;
        if (!requests_path.empty()) {
            std::ifstream in(requests_path);
            for (std::string line; std::getline(in, line);)
                lines.push_back(line);
            if (!in.eof()) {
                std::cerr << "perfbench_trace: cannot read "
                          << requests_path << "\n";
                return 2;
            }
        } else {
            if (!frontEndRequests(args, lines))
                return 2;
            std::ofstream requests(requests_out_path);
            for (const std::string& line : lines)
                requests << line << "\n";
            if (!requests) {
                std::cerr << "perfbench_trace: cannot write "
                          << requests_out_path << "\n";
                return 2;
            }
        }
        code = runPoints(tracer, counters, out, lines, threads);
    }

    std::ofstream spans(spans_path);
    const DatasetCacheStats cache = datasetCacheStats();
    spans.precision(9);
    spans << "{";
    tracer.write(spans);
    spans << ",";
    counters.write(spans);
    spans << ",\"dataset_cache\":{\"builds\":" << cache.builds
          << ",\"hits\":" << cache.hits << "}"
          << ",\"rows_failed\":" << rows_failed << "}\n";
    if (!out || !spans) {
        std::cerr << "perfbench_trace: error writing output\n";
        return 2;
    }
    return code;
}

/**
 * @file
 * Tests of the sweep orchestrator: grid expansion (cartesian order,
 * axis dedup, edge-case diagnostics), the worker pool, aggregation's
 * derived columns, the JSONL/CSV renderers, the `dalorex sweep`
 * subcommand end to end, and the figure files' sweep lines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/journal.hh"
#include "common/parallel.hh"
#include "graph/dataset_cache.hh"
#include "graph/graphfile.hh"
#include "sweep/aggregate.hh"
#include "sweep/sweep.hh"
#include "sweep/sweep_cli.hh"

namespace dalorex
{
namespace sweep
{
namespace
{

/** A small two-kernel, two-grid plan over a scale-8 RMAT graph. */
Plan
miniPlan()
{
    Plan plan;
    plan.kernels = {kernelOrDie("bfs"), kernelOrDie("wcc")};
    plan.datasets = {{"", 8}};
    plan.grids = {{2, 2}, {4, 4}};
    plan.base.seed = 3;
    return plan;
}

TEST(GridShapeParse, AcceptsWxHAndRejectsJunk)
{
    GridShape shape;
    ASSERT_TRUE(parseGridShape("16x16", shape));
    EXPECT_EQ(shape.width, 16u);
    EXPECT_EQ(shape.height, 16u);
    ASSERT_TRUE(parseGridShape("4x2", shape));
    EXPECT_EQ(shape.width, 4u);
    EXPECT_EQ(shape.height, 2u);

    EXPECT_FALSE(parseGridShape("", shape));
    EXPECT_FALSE(parseGridShape("16", shape));
    EXPECT_FALSE(parseGridShape("x16", shape));
    EXPECT_FALSE(parseGridShape("16x", shape));
    EXPECT_FALSE(parseGridShape("16x16x16", shape));
    EXPECT_FALSE(parseGridShape("0x4", shape));
    EXPECT_FALSE(parseGridShape("axb", shape));
}

TEST(Expand, CartesianProductInKernelMajorOrder)
{
    const ExpandResult result = expand(miniPlan());
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.points.size(), 4u);
    EXPECT_EQ(result.points[0].kernel->name, "bfs");
    EXPECT_EQ(result.points[0].machine.width, 2u);
    EXPECT_EQ(result.points[1].kernel->name, "bfs");
    EXPECT_EQ(result.points[1].machine.width, 4u);
    EXPECT_EQ(result.points[2].kernel->name, "wcc");
    EXPECT_EQ(result.points[3].kernel->name, "wcc");
    // The default baseline is the first grid shape.
    EXPECT_EQ(result.baseline, (GridShape{2, 2}));
}

TEST(Expand, DuplicateAxisPointsCollapse)
{
    Plan plan = miniPlan();
    plan.kernels = {kernelOrDie("bfs"), kernelOrDie("bfs"),
                    kernelOrDie("bfs")};
    plan.grids = {{2, 2}, {4, 4}, {2, 2}};
    plan.datasets = {{"", 8}, {"", 8}};
    const ExpandResult result = expand(plan);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.points.size(), 2u); // 1 kernel x 1 ds x 2 grids
}

TEST(Expand, EmptyAxisIsACleanError)
{
    Plan plan = miniPlan();
    plan.kernels.clear();
    ExpandResult result = expand(plan);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("kernel axis"), std::string::npos);

    plan = miniPlan();
    plan.grids.clear();
    result = expand(plan);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("grid axis"), std::string::npos);

    plan = miniPlan();
    plan.topologies.clear();
    result = expand(plan);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("topology axis"), std::string::npos);
}

TEST(Expand, UnknownDatasetIsACleanError)
{
    Plan plan = miniPlan();
    plan.datasets = {{"orkut", 0}};
    const ExpandResult result = expand(plan);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("orkut"), std::string::npos);
    // One line: no embedded newline in the diagnostic.
    EXPECT_EQ(result.error.find('\n'), std::string::npos);
}

TEST(Expand, RejectsScaleOverrideOnRmatNames)
{
    // rmatN names carry their scale; a pinned override would be
    // silently ignored downstream, so it is a plan error.
    Plan plan = miniPlan();
    plan.datasets = {{"rmat16", 8}};
    const ExpandResult result = expand(plan);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("rmat16"), std::string::npos);
    EXPECT_EQ(result.error.find('\n'), std::string::npos);
}

TEST(Expand, MissingBaselineIsACleanError)
{
    Plan plan = miniPlan();
    plan.baseline = {16, 16};
    const ExpandResult result = expand(plan);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("16x16"), std::string::npos);
    EXPECT_EQ(result.error.find('\n'), std::string::npos);
}

TEST(Expand, RucheFactorAppliesOnlyToRucheTopology)
{
    Plan plan = miniPlan();
    plan.grids = {{8, 8}, {16, 16}}; // wider than the factor
    plan.topologies = {NocTopology::torus, NocTopology::torusRuche};
    plan.base.machine.rucheFactor = 4;
    const ExpandResult result = expand(plan);
    ASSERT_TRUE(result.ok) << result.error;
    for (const cli::Options& o : result.points) {
        if (o.machine.topology == NocTopology::torusRuche)
            EXPECT_EQ(o.machine.rucheFactor, 4u);
        else
            EXPECT_EQ(o.machine.rucheFactor, 0u);
    }

    // A grid no wider than the factor cannot be built: the whole plan
    // is refused up front instead of a worker dying mid-sweep.
    plan.grids = {{2, 2}, {4, 4}};
    const ExpandResult narrow = expand(plan);
    EXPECT_FALSE(narrow.ok);
    EXPECT_NE(narrow.error.find("ruche factor 4"), std::string::npos)
        << narrow.error;
    EXPECT_EQ(narrow.error.find('\n'), std::string::npos);
}

TEST(Pool, CoversEveryIndexExactlyOnce)
{
    std::vector<int> hits(199, 0);
    runIndexed(hits.size(), 8,
               [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;

    std::vector<int> serial(3, 0);
    runIndexed(serial.size(), 1,
               [&](std::size_t i) { serial[i] += 1; });
    EXPECT_EQ(serial, std::vector<int>({1, 1, 1}));
}

TEST(RunAggregate, DerivedColumnsAgainstBaseline)
{
    const RunResult result = run(expand(miniPlan()), 2);
    ASSERT_TRUE(result.ok) << result.error;
    const std::vector<cli::Report> reports = result.okReports();
    ASSERT_EQ(reports.size(), 4u);

    const AggregateResult agg =
        aggregate(reports, result.baseline);
    ASSERT_TRUE(agg.ok) << agg.error;
    ASSERT_EQ(agg.rows.size(), 4u);

    for (const Row& row : agg.rows) {
        EXPECT_TRUE(row.hasBaseline);
        EXPECT_GT(row.energyPerEdgeJ, 0.0);
        if (row.isBaseline) {
            EXPECT_DOUBLE_EQ(row.speedup, 1.0);
            EXPECT_DOUBLE_EQ(row.parallelEff, 1.0);
        } else {
            // 4x4 has 4x the tiles of the 2x2 baseline.
            EXPECT_NEAR(row.parallelEff, row.speedup / 4.0, 1e-12);
        }
    }
    EXPECT_TRUE(agg.rows[0].isBaseline);
    EXPECT_FALSE(agg.rows[1].isBaseline);
}

TEST(RunAggregate, ScaledDatasetVariantsGroupSeparately)
{
    // Two scales of the same named stand-in share a generated name
    // ("AZ"); grouping and labels must still keep them apart.
    Plan plan;
    plan.kernels = {kernelOrDie("bfs")};
    plan.datasets = {{"amazon", 5}, {"amazon", 6}};
    plan.grids = {{1, 1}, {2, 2}};
    plan.base.seed = 3;

    const RunResult result = run(expand(plan), 2);
    ASSERT_TRUE(result.ok) << result.error;
    const AggregateResult agg =
        aggregate(result.okReports(), result.baseline);
    ASSERT_TRUE(agg.ok) << agg.error;
    ASSERT_EQ(agg.rows.size(), 4u);
    // Each scale's 1x1 row is its own baseline with speedup 1.0.
    for (const Row& row : agg.rows) {
        if (row.report.options.machine.width == 1) {
            EXPECT_TRUE(row.isBaseline);
            EXPECT_DOUBLE_EQ(row.speedup, 1.0);
        }
    }
    const std::string jsonl = toJsonl(agg.rows);
    EXPECT_NE(jsonl.find("\"dataset\":\"AZ@5\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"dataset\":\"AZ@6\""), std::string::npos);
}

TEST(RunAggregate, MissingBaselineErrorsOrSkips)
{
    // Drop the baseline rows so every group misses the 2x2 shape.
    const RunResult result = run(expand(miniPlan()), 2);
    ASSERT_TRUE(result.ok) << result.error;
    std::vector<cli::Report> no_baseline;
    for (const cli::Report& report : result.okReports())
        if (report.options.machine.width != 2)
            no_baseline.push_back(report);

    const AggregateResult strict =
        aggregate(no_baseline, result.baseline,
                  MissingBaseline::error);
    EXPECT_FALSE(strict.ok);
    EXPECT_NE(strict.error.find("2x2"), std::string::npos);
    EXPECT_EQ(strict.error.find('\n'), std::string::npos);

    const AggregateResult skip = aggregate(
        no_baseline, result.baseline, MissingBaseline::skip);
    ASSERT_TRUE(skip.ok) << skip.error;
    ASSERT_EQ(skip.rows.size(), no_baseline.size());
    for (const Row& row : skip.rows)
        EXPECT_FALSE(row.hasBaseline);
    const Table table = toTable(skip.rows);
    EXPECT_NE(table.toText().find('-'), std::string::npos);
    EXPECT_NE(toJsonl(skip.rows).find("\"speedup\":null"),
              std::string::npos);
}

/** Structural JSON check: balanced braces and quotes. */
void
expectWellFormedJson(const std::string& json)
{
    int depth = 0;
    bool in_string = false;
    for (const char c : json) {
        if (in_string) {
            in_string = c != '"';
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++depth;
        else if (c == '}') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(Renderers, JsonlHasOneObjectPerRowAndSharedSchema)
{
    const RunResult result = run(expand(miniPlan()), 2);
    ASSERT_TRUE(result.ok) << result.error;
    const AggregateResult agg =
        aggregate(result.okReports(), result.baseline);
    ASSERT_TRUE(agg.ok) << agg.error;

    const std::string jsonl = toJsonl(agg.rows);
    std::istringstream lines(jsonl);
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ++count;
        expectWellFormedJson(line);
        for (const char* key :
             {"\"kernel\":", "\"tiles\":", "\"cycles\":",
              "\"speedup\":", "\"parallel_efficiency\":",
              "\"energy_per_edge_j\":"})
            EXPECT_NE(line.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(count, agg.rows.size());

    const Table table = toTable(agg.rows);
    EXPECT_EQ(table.numRows(), agg.rows.size());
    const std::string csv = table.toCsv();
    EXPECT_NE(csv.find("speedup"), std::string::npos);
    EXPECT_NE(csv.find("energy/edge_J"), std::string::npos);
}

int
runSweep(std::vector<const char*> args, std::string& out,
         std::string& err)
{
    args.insert(args.begin(), "sweep");
    std::ostringstream out_stream;
    std::ostringstream err_stream;
    const int code =
        sweepMain(static_cast<int>(args.size()), args.data(),
                  out_stream, err_stream);
    out = out_stream.str();
    err = err_stream.str();
    return code;
}

TEST(SweepMain, EndToEndWithCsvOutput)
{
    const std::string csv_path =
        testing::TempDir() + "sweep_test_out.csv";
    std::string out;
    std::string err;
    const int code = runSweep(
        {"--kernel", "bfs,wcc", "--grid-size", "2x2,4x4", "--scale",
         "8", "--threads", "2", "--csv", csv_path.c_str()},
        out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_NE(out.find("speedup"), std::string::npos);

    std::ifstream csv(csv_path);
    ASSERT_TRUE(csv.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(csv, line))
        ++lines;
    EXPECT_EQ(lines, 1u + 4u); // header + one row per point
    std::remove(csv_path.c_str());
}

TEST(SweepMain, JsonModePrintsJsonl)
{
    std::string out;
    std::string err;
    const int code =
        runSweep({"--kernel", "bfs", "--grid-size", "2x2", "--scale",
                  "8", "--threads", "1", "--json"},
                 out, err);
    EXPECT_EQ(code, 0) << err;
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), '{');
    expectWellFormedJson(out);
}

TEST(SweepMain, RejectsBadThreadsWithRangeError)
{
    for (const char* bad : {"0", "257", "abc", "-4"}) {
        std::string out;
        std::string err;
        const int code =
            runSweep({"--threads", bad, "--kernel", "bfs"}, out, err);
        EXPECT_EQ(code, 2) << bad;
        EXPECT_NE(err.find("--threads"), std::string::npos) << bad;
        EXPECT_TRUE(out.empty()) << bad;
    }
}

TEST(SweepMain, RejectsBadGridAndUnknownDataset)
{
    std::string out;
    std::string err;
    EXPECT_EQ(runSweep({"--grid-size", "4by4"}, out, err), 2);
    EXPECT_NE(err.find("grid"), std::string::npos);

    EXPECT_EQ(runSweep({"--dataset", "orkut", "--grid-size", "2x2"},
                       out, err),
              2);
    EXPECT_NE(err.find("orkut"), std::string::npos);

    EXPECT_EQ(runSweep({"--grid-size", "2x2", "--baseline", "8x8",
                        "--scale", "8"},
                       out, err),
              2);
    EXPECT_NE(err.find("8x8"), std::string::npos);
}

TEST(SweepMain, NarrowRucheGridIsRefusedBeforeAnyRowRuns)
{
    std::string out;
    std::string err;
    EXPECT_EQ(runSweep({"--grid-size", "2x2,4x4", "--topology",
                        "torus-ruche", "--kernel", "bfs", "--scale",
                        "6"},
                       out, err),
              2);
    EXPECT_NE(err.find("ruche factor 2"), std::string::npos) << err;
    EXPECT_TRUE(out.empty()) << out;
}

TEST(SweepMain, UnwritableOutputFailsBeforeAnyRowRuns)
{
    // The other output names an existing file: it must keep its bytes.
    const std::string kept = testing::TempDir() + "sweep_test_kept.out";
    const std::string bad = "/nonexistent/dir/x.out";
    for (const char* flag : {"--csv", "--jsonl"}) {
        SCOPED_TRACE(flag);
        std::ofstream(kept) << "kept\n";
        const char* other =
            std::string(flag) == "--csv" ? "--jsonl" : "--csv";
        std::string out;
        std::string err;
        EXPECT_EQ(runSweep({"--kernel", "bfs", "--grid-size", "2x2",
                            "--scale", "6", "--threads", "1", other,
                            kept.c_str(), flag, bad.c_str()},
                           out, err),
                  2);
        EXPECT_EQ(err, "dalorex sweep: cannot open " + bad + "\n");
        EXPECT_TRUE(out.empty()) << out;
        std::ifstream in(kept);
        std::string line;
        EXPECT_TRUE(std::getline(in, line) && line == "kept") << line;
    }
    std::remove(kept.c_str());
}

TEST(Expand, EngineThreadsAxisMultipliesPoints)
{
    Plan plan = miniPlan();
    plan.engineThreads = {1, 4};
    const ExpandResult result = expand(plan);
    ASSERT_TRUE(result.ok) << result.error;
    // 2 kernels x 2 grids x 2 engine-thread values.
    ASSERT_EQ(result.points.size(), 8u);
    EXPECT_EQ(result.points[0].machine.engineThreads, 1u);
    EXPECT_EQ(result.points[1].machine.engineThreads, 4u);

    plan.engineThreads = {0};
    EXPECT_FALSE(expand(plan).ok);
    plan.engineThreads = {};
    EXPECT_FALSE(expand(plan).ok);
}

TEST(Expand, EngineThreadsClampToEachGridsTiles)
{
    Plan plan = miniPlan();
    plan.grids = {{2, 2}, {4, 4}};
    plan.engineThreads = {16};
    const ExpandResult result = expand(plan);
    ASSERT_TRUE(result.ok) << result.error;
    for (const cli::Options& point : result.points) {
        const unsigned tiles =
            point.machine.width * point.machine.height;
        EXPECT_EQ(point.machine.engineThreads, std::min(16u, tiles))
            << toString(GridShape{point.machine.width,
                                  point.machine.height});
    }
}

TEST(RunAggregate, EngineThreadsAxisChangesNothingButTheColumn)
{
    // The engine contract one level up: points differing only in
    // engineThreads produce byte-identical stats, so their JSONL rows
    // differ in nothing but the engine_threads field.
    Plan plan;
    plan.kernels = {kernelOrDie("bfs")};
    plan.datasets = {{"", 8}};
    plan.grids = {{4, 4}};
    plan.engineThreads = {1, 4};
    plan.base.seed = 3;
    const RunResult result = run(expand(plan), 1);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.allRowsOk());
    const AggregateResult agg =
        aggregate(result.okReports(), result.baseline);
    ASSERT_TRUE(agg.ok) << agg.error;
    ASSERT_EQ(agg.rows.size(), 2u);
    EXPECT_EQ(agg.rows[0].report.stats.cycles,
              agg.rows[1].report.stats.cycles);

    std::istringstream jsonl(toJsonl(agg.rows));
    std::string first;
    std::string second;
    ASSERT_TRUE(std::getline(jsonl, first));
    ASSERT_TRUE(std::getline(jsonl, second));
    const std::string one = "\"engine_threads\":1";
    const std::string four = "\"engine_threads\":4";
    EXPECT_NE(first.find(one), std::string::npos);
    EXPECT_NE(second.find(four), std::string::npos);
    second.replace(second.find(four), four.size(), one);
    EXPECT_EQ(first, second);
}

TEST(SweepParse, EngineThreadsAndParamFlags)
{
    const std::vector<const char*> args = {
        "sweep", "--engine-threads", "1,4",
        "--param", "damping=0.9,iterations=20"};
    const SweepParseResult parsed =
        parseSweepArgs(static_cast<int>(args.size()), args.data());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const Plan& plan = parsed.options.plan;
    EXPECT_EQ(plan.engineThreads, (std::vector<unsigned>{1, 4}));
    ASSERT_EQ(plan.base.params.size(), 2u);
    EXPECT_EQ(plan.base.params[0].name, "damping");
    EXPECT_DOUBLE_EQ(plan.base.params[0].value, 0.9);
    EXPECT_EQ(plan.base.params[1].name, "iterations");
    EXPECT_DOUBLE_EQ(plan.base.params[1].value, 20.0);

    std::string out;
    std::string err;
    EXPECT_EQ(runSweep({"--engine-threads", "0"}, out, err), 2);
    EXPECT_NE(err.find("--engine-threads"), std::string::npos);
    EXPECT_EQ(runSweep({"--param", "frobnicate=1"}, out, err), 2);
    EXPECT_NE(err.find("frobnicate"), std::string::npos);
    // An explicit budget below the largest engine-threads value
    // cannot be honored without oversubscribing: refused.
    err.clear();
    EXPECT_EQ(runSweep({"--engine-threads", "8", "--threads", "2"},
                       out, err),
              2);
    EXPECT_NE(err.find("below the largest"), std::string::npos);
}

TEST(SweepParse, RejectsUnknownOptions)
{
    // Removed flags are unknown, not silently accepted.
    for (const char* flag :
         {"--frobnicate", "--engine-barrier", "--engine-rebalance",
          "--engine-scan", "--pagerank-iters", "--row-deadline-ms",
          "--resume"}) {
        std::string out;
        std::string err;
        EXPECT_EQ(runSweep({flag}, out, err), 2) << flag;
        EXPECT_NE(err.find("unknown option: " + std::string(flag)),
                  std::string::npos)
            << err;
        EXPECT_TRUE(out.empty()) << flag;
    }
}

TEST(FigureFiles, EveryLineParsesAndExpands)
{
    // Each figure file holds `dalorex sweep` argument lines for both
    // scales, so a renamed flag fails here instead of in a figure run.
    std::size_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(DALOREX_FIGURES_DIR)) {
        ++files;
        std::set<std::string> scales;
        std::ifstream in(entry.path());
        std::string line;
        for (int number = 1; std::getline(in, line); ++number) {
            std::istringstream words(line);
            std::vector<std::string> args = {"sweep"};
            for (std::string word; words >> word;)
                args.push_back(word);
            if (args.size() == 1 || args[1][0] == '#')
                continue;
            SCOPED_TRACE(entry.path().filename().string() + ":" +
                         std::to_string(number));
            EXPECT_TRUE(args[1] == "--quick" || args[1] == "--full");
            scales.insert(args[1]);
            std::vector<const char*> argv;
            for (const std::string& arg : args)
                argv.push_back(arg.c_str());
            const SweepParseResult parsed = parseSweepArgs(
                static_cast<int>(argv.size()), argv.data());
            ASSERT_TRUE(parsed.ok) << parsed.error;
            const ExpandResult expanded = expand(parsed.options.plan);
            EXPECT_TRUE(expanded.ok) << expanded.error;
        }
        EXPECT_EQ(scales.size(), 2u) << entry.path();
    }
    EXPECT_GE(files, 3u);
}

TEST(SweepMain, EngineThreadsAboveGridTilesRunsClampedWithNote)
{
    // The clamp gives one --engine-threads value 4 threads on the 2x2
    // grid and 16 on the 4x4; both rows still share one baseline.
    std::string out;
    std::string err;
    const int code = runSweep({"--kernel", "bfs", "--grid-size",
                               "2x2,4x4", "--scale", "7",
                               "--engine-threads", "16", "--threads",
                               "16", "--json"},
                              out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_NE(err.find("clamped"), std::string::npos);
    std::istringstream jsonl(out);
    std::string small;
    std::string large;
    ASSERT_TRUE(std::getline(jsonl, small));
    ASSERT_TRUE(std::getline(jsonl, large));
    EXPECT_NE(small.find("\"engine_threads\":4"), std::string::npos);
    EXPECT_NE(large.find("\"engine_threads\":16"), std::string::npos);
    for (const std::string& row : {small, large}) {
        EXPECT_NE(row.find("\"speedup\":"), std::string::npos) << row;
        EXPECT_EQ(row.find("\"speedup\":null"), std::string::npos)
            << row;
    }
}

TEST(SweepParse, RepeatedAxisFlagsAppendConsistently)
{
    const std::vector<const char*> args = {
        "sweep",      "--topology", "mesh",     "--topology",
        "torus",      "--kernel",   "bfs",      "--kernel",
        "wcc",        "--policy",   "rr",       "--policy",
        "ta"};
    const SweepParseResult parsed =
        parseSweepArgs(static_cast<int>(args.size()), args.data());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const Plan& plan = parsed.options.plan;
    EXPECT_EQ(plan.topologies,
              (std::vector<NocTopology>{NocTopology::mesh,
                                        NocTopology::torus}));
    EXPECT_EQ(plan.kernels,
              (std::vector<const KernelInfo*>{kernelOrDie("bfs"),
                                              kernelOrDie("wcc")}));
    EXPECT_EQ(plan.policies,
              (std::vector<SchedPolicy>{SchedPolicy::roundRobin,
                                        SchedPolicy::trafficAware}));
}

TEST(RunAggregate, WorkersShareOneDatasetBuild)
{
    // The process-wide cache contract: a parallel sweep over one
    // dataset generates it exactly once, no matter how many workers
    // and points touch it.
    datasetCacheClear();
    Plan plan;
    plan.kernels = {kernelOrDie("bfs"), kernelOrDie("wcc")};
    plan.datasets = {{"", 8}};
    plan.grids = {{2, 2}, {4, 4}};
    plan.base.seed = 3;
    const RunResult result = run(expand(plan), 4);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.allRowsOk());
    const DatasetCacheStats stats = datasetCacheStats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.hits, 3u); // 4 points, one build
    datasetCacheClear();
}

TEST(Expand, RejectsScaleOverrideOnFileNames)
{
    Plan plan = miniPlan();
    plan.datasets = {{"file:some/graph.dlx", 8}};
    const ExpandResult result = expand(plan);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("fixed size"), std::string::npos)
        << result.error;
    EXPECT_EQ(result.error.find('\n'), std::string::npos);
}

TEST(SweepParse, FileDatasetPathsKeepTheirAtSigns)
{
    // file: names are paths; an '@' inside one is not a scale pin.
    const std::vector<const char*> args = {
        "sweep", "--dataset", "file:/tmp/snap@2026/graph.dlx"};
    const SweepParseResult parsed =
        parseSweepArgs(static_cast<int>(args.size()), args.data());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.options.plan.datasets.size(), 1u);
    EXPECT_EQ(parsed.options.plan.datasets[0].name,
              "file:/tmp/snap@2026/graph.dlx");
    EXPECT_EQ(parsed.options.plan.datasets[0].scale, 0u);
}

TEST(SweepMain, BadFileDatasetFailsItsRowsNotTheSweep)
{
    // One unreadable file: dataset on the axis fails as data (exit 1,
    // one diagnostic per row) while the healthy dataset's rows render.
    datasetCacheClear();
    std::string out;
    std::string err;
    const int code = runSweep(
        {"--kernel", "bfs", "--grid-size", "2x2", "--scale", "8",
         "--dataset", "file:no_such_graph.dlx", "--threads", "2"},
        out, err);
    EXPECT_EQ(code, 1) << err;
    EXPECT_NE(err.find("no_such_graph.dlx"), std::string::npos)
        << err;
    EXPECT_NE(out.find("rmat8"), std::string::npos) << out;
    datasetCacheClear();
}

TEST(SweepMain, FileDatasetMatchesItsGeneratedTwin)
{
    // A sweep over file:R8-snapshot and rmat8 must produce identical
    // result rows (modulo the dataset axis ordering): the loader is
    // bit-exact and the kernel RNG stream is unchanged.
    datasetCacheClear();
    const std::string path =
        testing::TempDir() + "sweep_twin_rmat8.dlx";
    std::string error;
    {
        const DatasetResult built = tryMakeDataset("rmat8", 3);
        ASSERT_TRUE(built.ok) << built.error;
        ASSERT_TRUE(saveGraphFile(path, built.dataset, error))
            << error;
    }
    const std::string file_name = "file:" + path;
    Plan plan;
    plan.kernels = {kernelOrDie("bfs")};
    plan.grids = {{2, 2}};
    plan.base.seed = 3;
    plan.datasets = {{"rmat8", 0}, {file_name, 0}};
    const RunResult result = run(expand(plan), 1);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.allRowsOk());
    const AggregateResult agg =
        aggregate(result.okReports(), result.baseline);
    ASSERT_TRUE(agg.ok) << agg.error;
    ASSERT_EQ(agg.rows.size(), 2u);
    EXPECT_EQ(agg.rows[0].report.stats.cycles,
              agg.rows[1].report.stats.cycles);
    EXPECT_EQ(agg.rows[0].report.datasetName,
              agg.rows[1].report.datasetName); // both "R8"
    std::remove(path.c_str());
    datasetCacheClear();
}

TEST(SweepMain, ListDatasetsMentionsTheCatalog)
{
    std::string out;
    std::string err;
    const int code = runSweep({"--list-datasets"}, out, err);
    EXPECT_EQ(code, 0) << err;
    for (const char* name :
         {"amazon", "wiki", "livejournal", "rmatN"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
}

TEST(SweepMain, HelpCoversTheNewFlags)
{
    std::string out;
    std::string err;
    const int code = runSweep({"--help"}, out, err);
    EXPECT_EQ(code, 0);
    for (const char* flag :
         {"--threads", "--list-datasets", "--grid-size", "--baseline",
          "--barrier", "--journal", "--retries", "--deadline-ms"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

// --- fault tolerance: journal, resume, retries ------------------------

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(SweepParse, FaultToleranceFlags)
{
    const std::vector<const char*> args = {
        "sweep",     "--journal",          "j.jsonl",
        "--retries", "2",                  "--retry-backoff-ms",
        "5",         "--deadline-ms",      "750"};
    const SweepParseResult parsed =
        parseSweepArgs(static_cast<int>(args.size()), args.data());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.options.journalPath, "j.jsonl");
    EXPECT_EQ(parsed.options.retries, 2u);
    EXPECT_EQ(parsed.options.retryBackoffMs, 5u);
    EXPECT_EQ(parsed.options.plan.base.deadlineMs, 750u);

    std::string out;
    std::string err;
    EXPECT_EQ(runSweep({"--retries", "99"}, out, err), 2);
    EXPECT_NE(err.find("--retries"), std::string::npos);
}

TEST(SweepParse, ViaRefusesRetryFlags)
{
    // A daemon retries --via rows under its own policy, so the sweep
    // refuses its retry flags beside --via, in either order, before
    // any row is submitted.
    for (const std::vector<const char*>& args :
         std::vector<std::vector<const char*>>{
             {"--via", "no_daemon.sock", "--retries", "1"},
             {"--retry-backoff-ms", "5", "--via", "no_daemon.sock"}}) {
        std::string out;
        std::string err;
        EXPECT_EQ(runSweep(args, out, err), 2) << args[0];
        EXPECT_NE(err.find("serve --retries"), std::string::npos)
            << err;
        EXPECT_EQ(err.find("[sweep]"), std::string::npos) << err;
        EXPECT_TRUE(out.empty()) << out;
    }
}

TEST(SweepFault, RowBudgetTooLargeForTheClockMeansNoDeadline)
{
    // Used to fail the row as a timeout at cycle 0. The summary line
    // counts dataset-cache builds, so each sweep starts cold.
    std::string plain;
    std::string out;
    std::string err;
    datasetCacheClear();
    ASSERT_EQ(runSweep({"--kernel", "bfs", "--grid-size", "2x2",
                        "--scale", "8", "--threads", "1", "--json"},
                       plain, err),
              0)
        << err;
    datasetCacheClear();
    EXPECT_EQ(runSweep({"--kernel", "bfs", "--grid-size", "2x2",
                        "--scale", "8", "--threads", "1", "--json",
                        "--deadline-ms", "18446744073709551615"},
                       out, err),
              0)
        << err;
    EXPECT_EQ(out, plain);
}

TEST(SweepFault, KilledJournalResumesByteIdentically)
{
    // The checkpoint/resume acceptance test. A journaled sweep's
    // output files, and those of a second sweep rerun on a torn copy
    // of that journal (what a kill -9 mid-run leaves behind), must be
    // byte-identical — replayed rows come from the journal payloads,
    // not from re-execution. The rerun appends the missing rows to
    // the same journal, so a third run replays every row.
    datasetCacheClear();
    const std::string dir = testing::TempDir();
    const std::string j_full = dir + "sweep_fault_full.journal";
    const std::string j_torn = dir + "sweep_fault_torn.journal";
    const std::string a_rows = dir + "sweep_fault_a.jsonl";
    const std::string a_csv = dir + "sweep_fault_a.csv";
    const std::string b_rows = dir + "sweep_fault_b.jsonl";
    const std::string b_csv = dir + "sweep_fault_b.csv";
    for (const std::string& p :
         {j_full, j_torn, a_rows, a_csv, b_rows, b_csv})
        std::remove(p.c_str());

    std::string out;
    std::string err;
    const int code_a = runSweep(
        {"--kernel", "bfs,wcc", "--grid-size", "2x2,4x4", "--scale",
         "8", "--threads", "1", "--journal", j_full.c_str(),
         "--jsonl", a_rows.c_str(), "--csv", a_csv.c_str()},
        out, err);
    ASSERT_EQ(code_a, 0) << err;
    const std::string a_rows_bytes = slurp(a_rows);
    ASSERT_FALSE(a_rows_bytes.empty());
    const std::string a_csv_bytes = slurp(a_csv);
    ASSERT_FALSE(a_csv_bytes.empty());

    // Tear the journal after the header + two complete rows, with a
    // half-written record at the end — exactly a kill -9 footprint.
    {
        std::ifstream in(j_full);
        std::ofstream torn(j_torn, std::ios::binary);
        std::string line;
        int keep = 3; // header + 2 records
        while (keep-- > 0 && std::getline(in, line))
            torn << line << "\n";
        ASSERT_TRUE(std::getline(in, line));
        torn << line.substr(0, line.size() / 2); // no newline
    }

    const std::vector<const char*> resume = {
        "--kernel", "bfs,wcc", "--grid-size", "2x2,4x4", "--scale", "8",
        "--threads", "1", "--journal", j_torn.c_str(), "--jsonl",
        b_rows.c_str(), "--csv", b_csv.c_str(), "--json"};
    // Each run replays what the journal holds and appends (counted by
    // journal_written) only the rows it ran.
    for (const auto& [replayed, written] :
         {std::pair<std::string, std::string>{"2", "2"}, {"4", "0"}}) {
        SCOPED_TRACE("replaying " + replayed);
        ASSERT_EQ(runSweep(resume, out, err), 0) << err;
        EXPECT_NE(err.find("resumed " + replayed + " of 4"),
                  std::string::npos)
            << err;
        EXPECT_NE(out.find("\"rows_replayed\":" + replayed + ","),
                  std::string::npos)
            << out;
        EXPECT_NE(out.find("\"journal_written\":" + written + ","),
                  std::string::npos)
            << out;
        EXPECT_EQ(a_rows_bytes, slurp(b_rows))
            << "JSONL rows differ between journaled and resumed sweeps";
        EXPECT_EQ(a_csv_bytes, slurp(b_csv))
            << "CSV differs between journaled and resumed sweeps";
    }

    // Zero replayed rows were recomputed: the journal holds its 2
    // surviving records plus exactly the 2 missing rows.
    const journal::Replay replayed = journal::replay(j_torn);
    ASSERT_TRUE(replayed.ok) << replayed.error;
    EXPECT_EQ(replayed.records.size(), 4u);

    for (const std::string& p :
         {j_full, j_torn, a_rows, a_csv, b_rows, b_csv})
        std::remove(p.c_str());
    datasetCacheClear();
}

TEST(SweepFault, ResumeRefusesAForeignPlan)
{
    // --journal on a file that is not a journal of this plan exits 2
    // with one line before any row runs and leaves the file as it was.
    // A missing or empty file starts a new journal.
    datasetCacheClear();
    const std::string dir = testing::TempDir();
    const std::string path = dir + "sweep_fault_foreign.journal";
    const std::string other = dir + "sweep_fault_not_a.journal";
    auto sweep = [](const char* kernel, const std::string& journal,
                    std::string& err) {
        std::string out;
        return runSweep({"--kernel", kernel, "--grid-size", "2x2",
                         "--scale", "8", "--threads", "1", "--journal",
                         journal.c_str()},
                        out, err);
    };
    std::ofstream(path, std::ios::trunc).close(); // empty
    std::string err;
    ASSERT_EQ(sweep("bfs", path, err), 0) << err;
    EXPECT_EQ(err.find("resumed"), std::string::npos) << err;

    std::ofstream(other, std::ios::trunc) << "not a journal\n";
    for (const auto& [file, reason] :
         {std::pair<std::string, std::string>{path, "a different plan"},
          {other, "no valid header"}}) {
        SCOPED_TRACE(file);
        const std::string before = slurp(file);
        EXPECT_EQ(sweep("wcc", file, err), 2);
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
        EXPECT_EQ(err.rfind("dalorex sweep: journal ", 0), 0u) << err;
        EXPECT_NE(err.find(reason), std::string::npos) << err;
        EXPECT_EQ(slurp(file), before);
    }

    // The journal's own plan still resumes from it.
    ASSERT_EQ(sweep("bfs", path, err), 0) << err;
    EXPECT_NE(err.find("resumed 1 of 1"), std::string::npos) << err;
    std::remove(path.c_str());
    std::remove(other.c_str());
    datasetCacheClear();
}

TEST(SweepFault, TransientRowsRetryThenFailWithAttemptsJournaled)
{
    datasetCacheClear();
    const std::string path =
        testing::TempDir() + "sweep_fault_retry.journal";
    std::remove(path.c_str());
    std::string out;
    std::string err;
    const int code = runSweep(
        {"--kernel", "bfs", "--grid-size", "2x2", "--dataset",
         "file:sweep_fault_no_such.dlx", "--threads", "1",
         "--retries", "2", "--retry-backoff-ms", "1", "--journal",
         path.c_str(), "--json"},
        out, err);
    EXPECT_EQ(code, 1) << err; // rows failed, sweep survived
    // Every attempt reaches the filesystem: no failure is cached.
    EXPECT_NE(out.find("\"dataset_cache_builds\":3,"
                       "\"dataset_cache_hits\":0}"),
              std::string::npos)
        << out;
    const journal::Replay replayed = journal::replay(path);
    ASSERT_TRUE(replayed.ok) << replayed.error;
    ASSERT_EQ(replayed.records.size(), 1u);
    EXPECT_EQ(replayed.records[0].status, journal::RowStatus::failed);
    EXPECT_EQ(replayed.records[0].attempts, 3u) << "1 try + 2 retries";
    std::remove(path.c_str());
    datasetCacheClear();
}

TEST(SweepFault, TimedOutRowRetriesWithAFreshBudget)
{
    // A local row's --deadline-ms counts from each attempt's engine
    // start. The row takes seconds, so both attempts time out; a
    // budget carried over from the first attempt would expire at the
    // retry's first clock read, at cycle 0, while a fresh one lasts
    // past the next read, 64 stepped cycles later.
    datasetCacheClear();
    const std::string path =
        testing::TempDir() + "sweep_fault_deadline.journal";
    std::remove(path.c_str());
    std::string out;
    std::string err;
    const int code = runSweep(
        {"--kernel", "pagerank", "--grid-size", "2x2", "--scale", "10",
         "--param", "iterations=300", "--threads", "1",
         "--deadline-ms", "20", "--retries", "1",
         "--retry-backoff-ms", "1", "--journal", path.c_str()},
        out, err);
    EXPECT_EQ(code, 1) << err;
    const journal::Replay replayed = journal::replay(path);
    ASSERT_TRUE(replayed.ok) << replayed.error;
    ASSERT_EQ(replayed.records.size(), 1u);
    const journal::Record& record = replayed.records[0];
    EXPECT_EQ(record.status, journal::RowStatus::failed);
    EXPECT_EQ(record.attempts, 2u) << "1 try + 1 retry";
    const std::string expired = "deadline expired at cycle ";
    const std::size_t at = record.error.find(expired);
    ASSERT_NE(at, std::string::npos) << record.error;
    EXPECT_GE(std::stoull(record.error.substr(at + expired.size())),
              64u)
        << record.error;
    std::remove(path.c_str());
    datasetCacheClear();
}

} // namespace
} // namespace sweep
} // namespace dalorex

/**
 * @file
 * Tests of the `dalorex` CLI: argv parsing, bad-flag rejection, and
 * the JSON/text reports, driving cli::cliMain in-process.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hh"
#include "graph/csr.hh"
#include "graph/dataset_cache.hh"
#include "graph/datasets.hh"
#include "graph/graphfile.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "sweep/aggregate.hh"

namespace dalorex
{
namespace cli
{
namespace
{

ParseResult
parse(std::vector<const char*> args)
{
    args.insert(args.begin(), "dalorex");
    return parseArgs(static_cast<int>(args.size()), args.data());
}

TEST(CliParse, DefaultsMatchMachineConfig)
{
    const ParseResult r = parse({});
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_NE(r.options.kernel, nullptr);
    EXPECT_EQ(r.options.kernel->name, "bfs");
    EXPECT_EQ(r.options.machine.width, MachineConfig{}.width);
    EXPECT_EQ(r.options.machine.height, MachineConfig{}.height);
    EXPECT_EQ(r.options.machine.topology, NocTopology::torus);
    EXPECT_FALSE(r.options.json);
    EXPECT_FALSE(r.options.help);
}

TEST(CliParse, FullScenario)
{
    const ParseResult r = parse(
        {"--kernel", "pagerank", "--width", "8", "--height", "4",
         "--topology", "mesh", "--policy", "round-robin",
         "--distribution", "high-order", "--barrier", "--scale", "10",
         "--seed", "99", "--invoke-overhead", "50", "--json",
         "--validate"});
    ASSERT_TRUE(r.ok) << r.error;
    const Options& o = r.options;
    EXPECT_EQ(o.kernel->name, "pagerank");
    EXPECT_EQ(o.machine.width, 8u);
    EXPECT_EQ(o.machine.height, 4u);
    EXPECT_EQ(o.machine.topology, NocTopology::mesh);
    EXPECT_EQ(o.machine.policy, SchedPolicy::roundRobin);
    EXPECT_EQ(o.machine.distribution, Distribution::highOrder);
    EXPECT_TRUE(o.machine.barrier);
    EXPECT_EQ(o.machine.invokeOverhead, 50u);
    EXPECT_EQ(o.scale, 10u);
    EXPECT_EQ(o.seed, 99u);
    EXPECT_TRUE(o.json);
    EXPECT_TRUE(o.validate);
}

TEST(CliParse, AllKernelNamesParse)
{
    // Canonical names and the hand-picked aliases resolve through
    // the registry; canonical spelling round-trips for every
    // registered kernel (including ones added after this test).
    const std::vector<std::pair<const char*, const char*>> names = {
        {"bfs", "bfs"},           {"sssp", "sssp"},
        {"wcc", "wcc"},           {"pagerank", "pagerank"},
        {"pr", "pagerank"},       {"spmv", "spmv"},
        {"PageRank", "pagerank"}, {"k-core", "kcore"},
        {"deghist", "histogram"},
    };
    for (const auto& [name, canonical] : names) {
        const ParseResult r = parse({"--kernel", name});
        ASSERT_TRUE(r.ok) << name << ": " << r.error;
        EXPECT_EQ(r.options.kernel->name, canonical) << name;
    }
    for (const KernelInfo* kernel : allKernels()) {
        const ParseResult r =
            parse({"--kernel", kernel->name.c_str()});
        ASSERT_TRUE(r.ok) << kernel->name << ": " << r.error;
        EXPECT_EQ(r.options.kernel, kernel) << kernel->name;
    }
}

TEST(CliParse, RucheFactorDefaultsAndClears)
{
    // torus-ruche without a factor gets the minimum factor of 2.
    ParseResult r = parse({"--topology", "torus-ruche"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.options.machine.rucheFactor, 2u);

    // A factor given for a non-ruche topology is dropped.
    r = parse({"--topology", "torus", "--ruche-factor", "4"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.options.machine.rucheFactor, 0u);

    // 0 is serve's "unset" spelling and means the default here too;
    // 1 is out of range.
    r = parse({"--topology", "torus-ruche", "--ruche-factor", "0"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.options.machine.rucheFactor, 2u);
    EXPECT_FALSE(parse({"--ruche-factor", "1"}).ok);
}

TEST(CliParse, RejectsUnknownFlag)
{
    // Removed flags are unknown, not silently accepted.
    for (const char* flag :
         {"--frobnicate", "--engine-barrier", "--engine-rebalance",
          "--engine-scan", "--pagerank-iters"}) {
        const ParseResult r = parse({flag});
        EXPECT_FALSE(r.ok) << flag;
        EXPECT_NE(r.error.find("unknown option: " + std::string(flag)),
                  std::string::npos)
            << r.error;
    }
}

TEST(CliParse, RejectsUnknownEnumValues)
{
    EXPECT_FALSE(parse({"--kernel", "dijkstra"}).ok);
    EXPECT_FALSE(parse({"--topology", "hypercube"}).ok);
    EXPECT_FALSE(parse({"--policy", "random"}).ok);
    EXPECT_FALSE(parse({"--distribution", "hash"}).ok);
}

TEST(CliParse, RejectsUnknownDatasetAtParseTime)
{
    // A usage error (exit 2), not a mid-run fatal().
    const ParseResult r = parse({"--dataset", "orkut"});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("orkut"), std::string::npos);
    EXPECT_TRUE(parse({"--dataset", "rmat12"}).ok);
    EXPECT_TRUE(parse({"--dataset", "livejournal"}).ok);
}

TEST(CliParse, RejectsMissingAndMalformedValues)
{
    EXPECT_FALSE(parse({"--kernel"}).ok);
    EXPECT_FALSE(parse({"--width"}).ok);
    EXPECT_FALSE(parse({"--width", "0"}).ok);
    EXPECT_FALSE(parse({"--width", "-3"}).ok);
    EXPECT_FALSE(parse({"--width", "8x"}).ok);
    EXPECT_FALSE(parse({"--scale", "3"}).ok);
    EXPECT_FALSE(parse({"--scale", "27"}).ok);
    EXPECT_FALSE(parse({"--seed", "abc"}).ok);
}

TEST(CliParse, EngineThreadsFlag)
{
    const ParseResult r = parse({"--engine-threads", "8"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.options.machine.engineThreads, 8u);

    EXPECT_FALSE(parse({"--engine-threads"}).ok);
    EXPECT_FALSE(parse({"--engine-threads", "0"}).ok);
    EXPECT_FALSE(parse({"--engine-threads", "257"}).ok);
    EXPECT_FALSE(parse({"--engine-threads", "many"}).ok);
}

TEST(CliParse, EngineThreadsClampToTilesWithNote)
{
    // 2x2 grid = 4 shards max; 16 workers would idle 12 of them.
    const ParseResult r = parse({"--width", "2", "--height", "2",
                                 "--engine-threads", "16"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.options.machine.engineThreads, 4u);
    EXPECT_NE(r.note.find("--engine-threads"), std::string::npos);

    // At or below the tile count: no clamp, no note.
    const ParseResult fit = parse({"--width", "2", "--height", "2",
                                   "--engine-threads", "4"});
    ASSERT_TRUE(fit.ok) << fit.error;
    EXPECT_EQ(fit.options.machine.engineThreads, 4u);
    EXPECT_TRUE(fit.note.empty());
}

TEST(CliParse, ParamOverrides)
{
    const ParseResult r =
        parse({"--param", "damping=0.9,iterations=20"});
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.options.params.size(), 2u);
    EXPECT_EQ(r.options.params[0].name, "damping");
    EXPECT_DOUBLE_EQ(r.options.params[0].value, 0.9);
    EXPECT_EQ(r.options.params[1].name, "iterations");
    EXPECT_DOUBLE_EQ(r.options.params[1].value, 20.0);

    const ParseResult eps = parse({"--param", "epsilon=1e-5"});
    ASSERT_TRUE(eps.ok) << eps.error;
    ASSERT_EQ(eps.options.params.size(), 1u);
    EXPECT_EQ(eps.options.params[0].name, "epsilon");
    EXPECT_DOUBLE_EQ(eps.options.params[0].value, 1e-5);

    EXPECT_FALSE(parse({"--param", "frobnicate=3"}).ok);
    EXPECT_FALSE(parse({"--param", "damping"}).ok);
    EXPECT_FALSE(parse({"--param", "damping=2.0"}).ok);
    EXPECT_FALSE(parse({"--param", "iterations=0"}).ok);
    EXPECT_FALSE(parse({"--param", "iterations=1.5"}).ok);
    EXPECT_FALSE(parse({"--param", "epsilon=1"}).ok);
}

TEST(CliParse, HelpFlag)
{
    const ParseResult r = parse({"--help"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.options.help);
    EXPECT_NE(usageText().find("--kernel"), std::string::npos);
}

int
runCli(std::vector<const char*> args, std::string& out,
       std::string& err)
{
    args.insert(args.begin(), "dalorex");
    std::ostringstream out_stream;
    std::ostringstream err_stream;
    const int code =
        cliMain(static_cast<int>(args.size()), args.data(), out_stream,
                err_stream);
    out = out_stream.str();
    err = err_stream.str();
    return code;
}

/** Extract the integer following `"key":` in a JSON string. */
std::uint64_t
jsonUint(const std::string& json, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    EXPECT_NE(at, std::string::npos) << "missing key " << key;
    if (at == std::string::npos)
        return 0;
    return std::strtoull(json.c_str() + at + needle.size(), nullptr,
                         10);
}

/** Structural JSON check: balanced braces, quotes, no trailing junk. */
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
    EXPECT_EQ(json.find(",}"), std::string::npos)
        << "trailing comma before }";
    EXPECT_EQ(json.find(",]"), std::string::npos)
        << "trailing comma before ]";
}

TEST(CliMain, JsonReportHasStatsAndEnergy)
{
    std::string out;
    std::string err;
    const int code =
        runCli({"--kernel", "bfs", "--width", "4", "--height", "4",
                "--scale", "8", "--json", "--validate"},
               out, err);
    EXPECT_EQ(code, 0) << err;
    expectWellFormedJson(out);

    EXPECT_GT(jsonUint(out, "cycles"), 0u);
    EXPECT_GT(jsonUint(out, "edges_processed"), 0u);
    EXPECT_GT(jsonUint(out, "invocations"), 0u);
    EXPECT_GT(jsonUint(out, "messages_delivered"), 0u);
    for (const char* key :
         {"logic_j", "memory_j", "network_j", "total_j", "seconds",
          "memory_bandwidth_bytes_per_sec"})
        EXPECT_NE(out.find(std::string("\"") + key + "\":"),
                  std::string::npos)
            << key;
    EXPECT_NE(out.find("\"kernel\":\"bfs\""), std::string::npos);
    EXPECT_NE(out.find("\"validated\":true"), std::string::npos);
}

TEST(CliParse, DeadlineAndMaxCyclesFlags)
{
    const ParseResult r =
        parse({"--deadline-ms", "1500", "--max-cycles", "5000"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.options.deadlineMs, 1500u);
    EXPECT_EQ(r.options.machine.maxCycles, 5000u);
    EXPECT_FALSE(parse({"--deadline-ms", "soon"}).ok);
    EXPECT_FALSE(parse({"--max-cycles", "-1"}).ok);
}

TEST(CliMain, CompletedRunReportsCompletedStatus)
{
    std::string out;
    std::string err;
    const int code = runCli({"--kernel", "bfs", "--scale", "8",
                             "--json"},
                            out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_NE(out.find("\"status\":\"completed\""),
              std::string::npos);
}

TEST(CliMain, MaxCyclesBudgetExitsThreeWithPartialTimeoutReport)
{
    std::string out;
    std::string err;
    const int code = runCli({"--kernel", "bfs", "--scale", "8",
                             "--max-cycles", "10", "--json"},
                            out, err);
    EXPECT_EQ(code, 3) << err;
    // The partial report still prints, carrying the status.
    EXPECT_NE(out.find("\"status\":\"timeout\""), std::string::npos);
    EXPECT_NE(err.find("maxCycles"), std::string::npos);
}

TEST(CliMain, ExpiredDeadlineExitsThreeWithTimeoutStatus)
{
    // A scale-13 pagerank takes far longer than 1 ms of wall clock,
    // so the deadline reliably lapses before the run ends.
    std::string out;
    std::string err;
    const int code =
        runCli({"--kernel", "pagerank", "--scale", "13",
                "--deadline-ms", "1", "--json"},
               out, err);
    EXPECT_EQ(code, 3) << err;
    EXPECT_NE(out.find("\"status\":\"timeout\""), std::string::npos);
    EXPECT_NE(err.find("deadline"), std::string::npos);
}

TEST(CliMain, BudgetTooLargeForTheClockMeansNoDeadline)
{
    // Neither budget fits steady_clock's nanosecond count; both used
    // to time the run out at cycle 0 (and overflow under UBSan).
    std::string plain;
    std::string err;
    ASSERT_EQ(runCli({"--kernel", "bfs", "--scale", "8", "--json"},
                     plain, err),
              0)
        << err;
    for (const char* budget :
         {"9223372036854775807", "18446744073709551615"}) {
        std::string out;
        EXPECT_EQ(runCli({"--kernel", "bfs", "--scale", "8",
                          "--deadline-ms", budget, "--json"},
                         out, err),
                  0)
            << budget << ": " << err;
        EXPECT_EQ(out, plain) << budget;
    }
}

TEST(CliMain, ParamOverrideDrivesPageRankEpochs)
{
    std::string out;
    std::string err;
    const int code =
        runCli({"--kernel", "pagerank", "--width", "2", "--height",
                "2", "--scale", "7", "--param", "iterations=3",
                "--json"},
               out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_EQ(jsonUint(out, "epochs"), 3u);
}

TEST(CliMain, EngineThreadsSurfaceInJson)
{
    std::string out;
    std::string err;
    const int code =
        runCli({"--kernel", "bfs", "--width", "4", "--height", "4",
                "--scale", "8", "--engine-threads", "4", "--json"},
               out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_EQ(jsonUint(out, "engine_threads"), 4u);
}

TEST(CliMain, ExecutionObjectTrailsTheReport)
{
    // How the simulator ran sits in one trailing object; cut off, the
    // rest of the report is well formed and equal across thread
    // counts.
    std::string one;
    std::string four;
    std::string err;
    ASSERT_EQ(runCli({"--kernel", "bfs", "--width", "4", "--height",
                      "4", "--scale", "8", "--json"},
                     one, err),
              0)
        << err;
    ASSERT_EQ(runCli({"--kernel", "bfs", "--width", "4", "--height",
                      "4", "--scale", "8", "--engine-threads", "4",
                      "--json"},
                     four, err),
              0)
        << err;
    EXPECT_NE(one, four);
    const std::string core = withoutExecution(one);
    expectWellFormedJson(core);
    EXPECT_EQ(core.find("engine"), std::string::npos) << core;
    EXPECT_EQ(core, withoutExecution(four));
    EXPECT_EQ(one.rfind(",\"execution\":{\"engine_threads\":1,"),
              core.size() - 2);
}

TEST(CliMain, EngineThreadsClampNoteOnStderrAndClampedJson)
{
    std::string out;
    std::string err;
    const int code =
        runCli({"--kernel", "bfs", "--width", "2", "--height", "2",
                "--scale", "7", "--engine-threads", "64", "--json"},
               out, err);
    EXPECT_EQ(code, 0) << err;
    // The run proceeds clamped to one worker per shard, with a
    // one-line stderr advisory; the report shows the effective value.
    EXPECT_EQ(jsonUint(out, "engine_threads"), 4u);
    EXPECT_NE(err.find("--engine-threads"), std::string::npos);
}

TEST(CliMain, TextReportMentionsKernelAndCycles)
{
    std::string out;
    std::string err;
    const int code = runCli({"--kernel", "wcc", "--width", "4",
                             "--height", "2", "--scale", "7"},
                            out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_NE(out.find("WCC"), std::string::npos);
    EXPECT_NE(out.find("cycles"), std::string::npos);
    EXPECT_NE(out.find("energy"), std::string::npos);
}

TEST(CliMain, RucheFactorMustFitTheGridWidth)
{
    // A ruche hop as wide as the torus row cannot be built: a usage
    // error (exit 2) instead of a fatal() in Topology.
    std::string out;
    std::string err;
    EXPECT_EQ(runCli({"--width", "2", "--height", "2", "--topology",
                      "torus-ruche"},
                     out, err),
              2);
    EXPECT_NE(err.find("ruche factor 2"), std::string::npos) << err;
    EXPECT_TRUE(out.empty()) << out;

    EXPECT_FALSE(parse({"--width", "4", "--topology", "torus-ruche",
                        "--ruche-factor", "4"})
                     .ok);
    EXPECT_TRUE(parse({"--width", "5", "--topology", "torus-ruche",
                       "--ruche-factor", "4"})
                    .ok);
    // Other topologies drop the factor, so it never has to fit.
    EXPECT_TRUE(
        parse({"--width", "2", "--height", "2", "--ruche-factor", "4"})
            .ok);
}

TEST(CliMain, BadFlagExitsNonZeroWithDiagnostic)
{
    std::string out;
    std::string err;
    const int code = runCli({"--bogus"}, out, err);
    EXPECT_EQ(code, 2);
    EXPECT_TRUE(out.empty());
    EXPECT_NE(err.find("--bogus"), std::string::npos);
}

TEST(CliMain, HelpPrintsUsageAndExitsZero)
{
    std::string out;
    std::string err;
    const int code = runCli({"--help"}, out, err);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("usage: dalorex"), std::string::npos);
    // The sweep subcommand and the dataset listing are advertised.
    EXPECT_NE(out.find("sweep"), std::string::npos);
    EXPECT_NE(out.find("--list-datasets"), std::string::npos);
}

TEST(CliMain, ListDatasetsPrintsCatalogAndExitsZero)
{
    std::string out;
    std::string err;
    const int code = runCli({"--list-datasets"}, out, err);
    EXPECT_EQ(code, 0) << err;
    for (const char* name :
         {"amazon", "wiki", "livejournal", "rmatN", "file:PATH"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
}

TEST(CliMain, FileDatasetIsByteIdenticalToInMemory)
{
    // The acceptance contract for on-disk graphs: a scenario run from
    // a converted file produces the same JSON report, byte for byte,
    // as the in-memory generation path — at 1 and at 8 engine
    // threads. Only the dataset axis label could differ, and it does
    // not: the file stores the canonical name ("R8").
    datasetCacheClear();
    const std::string path =
        testing::TempDir() + "cli_twin_rmat8.dlx";
    {
        const DatasetResult built = tryMakeDataset("rmat8", 1);
        ASSERT_TRUE(built.ok) << built.error;
        std::string error;
        ASSERT_TRUE(saveGraphFile(path, built.dataset, error))
            << error;
    }
    const std::string file_name = "file:" + path;
    for (const char* threads : {"1", "8"}) {
        std::string mem_out;
        std::string file_out;
        std::string err;
        ASSERT_EQ(runCli({"--kernel", "sssp", "--width", "4",
                          "--height", "4", "--dataset", "rmat8",
                          "--engine-threads", threads, "--json",
                          "--validate"},
                         mem_out, err),
                  0)
            << err;
        ASSERT_EQ(runCli({"--kernel", "sssp", "--width", "4",
                          "--height", "4", "--dataset",
                          file_name.c_str(), "--engine-threads",
                          threads, "--json", "--validate"},
                         file_out, err),
                  0)
            << err;
        EXPECT_EQ(mem_out, file_out) << "engine-threads " << threads;
    }
    std::remove(path.c_str());
    datasetCacheClear();
}

TEST(CliMain, QuotedDatasetNameStaysValidJson)
{
    // A file: dataset takes its name from the .dlx header, which
    // `dalorex convert --name` sets to any text. The report, the
    // payload a serve client rebuilds from it and the sweep JSONL row
    // must all escape it.
    datasetCacheClear();
    const std::string name = "a\"b\\c";
    const std::string path = testing::TempDir() + "cli_quoted_name.dlx";
    {
        Dataset ds;
        ds.name = name;
        ds.graph = buildCsr(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
        std::string error;
        ASSERT_TRUE(saveGraphFile(path, ds, error)) << error;
    }
    const std::string file_name = "file:" + path;
    const std::vector<const char*> args = {
        "--kernel", "bfs", "--width", "2", "--height", "2",
        "--dataset", file_name.c_str(), "--json"};
    std::string out;
    std::string err;
    ASSERT_EQ(runCli(args, out, err), 0) << err;

    const serve::JsonParseResult report = serve::parseJson(out);
    ASSERT_TRUE(report.ok) << report.error << "\n" << out;
    const serve::JsonValue* dataset = report.value.find("dataset");
    ASSERT_NE(dataset, nullptr);
    ASSERT_NE(dataset->find("name"), nullptr);
    EXPECT_EQ(dataset->find("name")->text, name);

    const ParseResult parsed = parse(args);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    sweep::Row row;
    ASSERT_TRUE(serve::parseReportPayload(out, parsed.options,
                                          row.report, err))
        << err;
    EXPECT_EQ(row.report.datasetName, name);

    const std::string jsonl = sweep::toJsonl({row});
    const serve::JsonParseResult line = serve::parseJson(jsonl);
    ASSERT_TRUE(line.ok) << line.error << "\n" << jsonl;
    ASSERT_NE(line.value.find("dataset"), nullptr);
    EXPECT_EQ(line.value.find("dataset")->text, name);
    std::remove(path.c_str());
    datasetCacheClear();
}

TEST(CliMain, CorruptFileDatasetFailsRecoverably)
{
    // A clean nonzero exit with a one-line diagnostic, no crash.
    datasetCacheClear();
    std::string out;
    std::string err;
    const int code = runCli(
        {"--kernel", "bfs", "--dataset", "file:no_such_graph.dlx"},
        out, err);
    EXPECT_EQ(code, 2);
    EXPECT_NE(err.find("no_such_graph.dlx"), std::string::npos)
        << err;
    datasetCacheClear();
}

} // namespace
} // namespace cli
} // namespace dalorex

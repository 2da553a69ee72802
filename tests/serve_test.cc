/**
 * @file
 * Tests of the `dalorex serve` subsystem: the JSON reader, the wire
 * protocol (parse/render round trips, malformed/unknown/oversized
 * requests), the priority + fair-share scheduler, the server core's
 * robustness (a bad line answers with `error` and the daemon keeps
 * serving), the byte-identity contract between serve-backed and
 * standalone runs, the warm dataset cache across requests, the
 * socket transport end to end with `dalorex sweep --via`, and the
 * scenario axis table parsing every axis alike in all front ends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cli/cli.hh"
#include "cli/scenario.hh"
#include "common/journal.hh"
#include "graph/dataset_cache.hh"
#include "serve/client.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"
#include "serve/serve_cli.hh"
#include "serve/server.hh"
#include "serve/socket_io.hh"
#include "sweep/sweep.hh"
#include "sweep/sweep_cli.hh"

namespace dalorex
{
namespace serve
{
namespace
{

// --- JSON reader -----------------------------------------------------

TEST(JsonReader, ParsesScalarsAndStructure)
{
    const JsonParseResult r = parseJson(
        R"({"a":1,"b":-2.5,"c":"x\n\u0041","d":[true,false,null],)"
        R"("big":18446744073709551615})");
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.value.isObject());
    std::uint64_t v = 0;
    ASSERT_TRUE(r.value.find("a")->asU64(v));
    EXPECT_EQ(v, 1u);
    EXPECT_FALSE(r.value.find("b")->asU64(v)); // negative/fractional
    EXPECT_EQ(r.value.find("c")->text, "x\nA");
    EXPECT_EQ(r.value.find("d")->items.size(), 3u);
    // 64-bit integers round-trip exactly via the raw token.
    ASSERT_TRUE(r.value.find("big")->asU64(v));
    EXPECT_EQ(v, 18446744073709551615ull);
}

TEST(JsonReader, RejectsMalformedDocuments)
{
    EXPECT_FALSE(parseJson("").ok);
    EXPECT_FALSE(parseJson("{").ok);
    EXPECT_FALSE(parseJson("{}extra").ok);
    EXPECT_FALSE(parseJson("{\"a\":01x}").ok);
    EXPECT_FALSE(parseJson("\"\\q\"").ok);
    EXPECT_FALSE(parseJson("{\"a\" 1}").ok);
    std::string deep(100, '[');
    EXPECT_FALSE(parseJson(deep).ok); // nesting guard, no crash
}

TEST(JsonReader, QuoteEscapesRoundTrip)
{
    const std::string text = "a\"b\\c\nd\te\x01";
    const JsonParseResult r = parseJson(jsonQuote(text));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.text, text);
}

// --- protocol --------------------------------------------------------

TEST(Protocol, ParsesFullRunRequest)
{
    const ParsedRequest p = parseRequestLine(
        R"({"type":"run","id":"r1","client":"alice","priority":3,)"
        R"("weight":2.5,"kernel":"pagerank","scale":8,"width":2,)"
        R"("height":4,"topology":"mesh","policy":"round-robin",)"
        R"("distribution":"high-order","barrier":true,)"
        R"("invoke_overhead":50,"engine_threads":2,)"
        R"("params":"damping=0.9","seed":7,"validate":true})");
    ASSERT_TRUE(p.ok) << p.error;
    const Request& r = p.request;
    EXPECT_EQ(r.id, "r1");
    EXPECT_EQ(r.client, "alice");
    EXPECT_EQ(r.priority, 3);
    EXPECT_DOUBLE_EQ(r.weight, 2.5);
    EXPECT_EQ(r.options.kernel->name, "pagerank");
    EXPECT_EQ(r.options.scale, 8u);
    EXPECT_EQ(r.options.machine.width, 2u);
    EXPECT_EQ(r.options.machine.height, 4u);
    EXPECT_EQ(r.options.machine.topology, NocTopology::mesh);
    EXPECT_EQ(r.options.machine.policy, SchedPolicy::roundRobin);
    EXPECT_EQ(r.options.machine.distribution,
              Distribution::highOrder);
    EXPECT_TRUE(r.options.machine.barrier);
    EXPECT_EQ(r.options.machine.invokeOverhead, 50u);
    EXPECT_EQ(r.options.machine.engineThreads, 2u);
    ASSERT_EQ(r.options.params.size(), 1u);
    EXPECT_EQ(r.options.params[0].name, "damping");
    EXPECT_EQ(r.options.seed, 7u);
    EXPECT_TRUE(r.options.validate);
    // Mesh never has a ruche factor (mirrors cli::parseArgs).
    EXPECT_EQ(r.options.machine.rucheFactor, 0u);
}

TEST(Protocol, ScanModeFieldIsUnknown)
{
    // A scan mode is not a scenario key: a request naming one fails
    // instead of running a scenario it did not describe.
    for (const char* mode : {"full", "active"}) {
        const ParsedRequest p = parseRequestLine(
            std::string(R"({"type":"run","id":"e1","engine_scan":")") +
            mode + "\"}");
        EXPECT_FALSE(p.ok) << mode;
        EXPECT_EQ(p.request.id, "e1");
        EXPECT_NE(p.error.find("unknown request field: engine_scan"),
                  std::string::npos)
            << p.error;
    }
}

TEST(Protocol, RejectsBadRequestsWithRecoveredId)
{
    EXPECT_FALSE(parseRequestLine("not json at all").ok);
    EXPECT_FALSE(parseRequestLine("[1,2,3]").ok);
    EXPECT_FALSE(parseRequestLine(R"({"type":"run"})").ok); // no id

    ParsedRequest p =
        parseRequestLine(R"({"type":"dance","id":"x1"})");
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.request.id, "x1");

    p = parseRequestLine(
        R"({"type":"run","id":"k1","kernel":"nope"})");
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.request.id, "k1");
    EXPECT_NE(p.error.find("unknown kernel"), std::string::npos);

    p = parseRequestLine(
        R"({"type":"run","id":"d1","dataset":"nope"})");
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("unknown dataset"), std::string::npos);

    for (const char* line :
         {R"({"type":"run","id":"f1","flux_capacitor":1})",
          R"({"type":"run","id":"f1","engine_barrier":"central"})",
          R"({"type":"run","id":"f1","engine_rebalance":true})"}) {
        p = parseRequestLine(line);
        EXPECT_FALSE(p.ok) << line;
        EXPECT_NE(p.error.find("unknown request field"),
                  std::string::npos)
            << line;
    }

    p = parseRequestLine(
        R"({"type":"run","id":"p1","priority":101})");
    EXPECT_FALSE(p.ok);

    // Ruche factor 1 is out of range, as on the CLI: 0 means unset.
    p = parseRequestLine(R"({"type":"run","id":"r1",)"
                         R"("topology":"torus-ruche","ruche_factor":1})");
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.request.id, "r1");
    EXPECT_NE(p.error.find("ruche_factor"), std::string::npos);

    // The cross-axis rules every front end shares (finishScenario): a
    // grid no wider than its ruche factor, and a dataset scale on
    // anything but a named stand-in, are refused up front.
    for (const char* line :
         {R"({"type":"run","id":"x1","width":2,"height":2,)"
          R"("topology":"torus-ruche"})",
          R"({"type":"run","id":"x1","width":4,)"
          R"("topology":"torus-ruche","ruche_factor":4})",
          R"({"type":"run","id":"x1","dataset":"rmat8",)"
          R"("dataset_scale":10})",
          R"({"type":"run","id":"x1","scale":6,"dataset_scale":9})",
          R"({"type":"run","id":"x1","dataset":"file:g.dlx",)"
          R"("dataset_scale":9})"}) {
        p = parseRequestLine(line);
        EXPECT_FALSE(p.ok) << line;
        EXPECT_EQ(p.request.id, "x1") << line;
        EXPECT_EQ(p.error.find('\n'), std::string::npos) << p.error;
    }

    // Wrong JSON kinds and non-integer numbers name the field.
    for (const auto& [line, field] :
         std::vector<std::pair<const char*, const char*>>{
             {R"({"type":"run","id":"k1","width":"4"})", "width"},
             {R"({"type":"run","id":"k1","topology":3})", "topology"},
             {R"({"type":"run","id":"k1","barrier":"yes"})", "barrier"},
             {R"({"type":"run","id":"k1","width":4.5})", "width"}}) {
        p = parseRequestLine(line);
        EXPECT_FALSE(p.ok) << line;
        EXPECT_NE(p.error.find(field), std::string::npos) << p.error;
    }

    // Oversized line: refused, id recovered from the prefix.
    std::string big = R"({"type":"run","id":"big1","params":")";
    big += std::string(maxRequestBytes, 'x');
    big += "\"}";
    p = parseRequestLine(big);
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.request.id, "big1");
    EXPECT_NE(p.error.find("exceeds"), std::string::npos);
}

TEST(Protocol, EmptyAndZeroSpellingsLeaveAxesUnset)
{
    const ParsedRequest p = parseRequestLine(
        R"({"type":"run","id":"u1","kernel":"","dataset":"",)"
        R"("topology":"","policy":"","distribution":"",)"
        R"("params":"","ruche_factor":0,)"
        R"("dataset_scale":0,"max_cycles":0,"deadline_ms":0})");
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(renderRunRequest(p.request.options, "u1", "anon"),
              renderRunRequest(cli::Options{}, "u1", "anon"));

    const ParsedRequest scaled = parseRequestLine(
        R"({"type":"run","id":"u2","dataset":"amazon",)"
        R"("dataset_scale":9})");
    ASSERT_TRUE(scaled.ok) << scaled.error;
    EXPECT_EQ(scaled.request.options.datasetScale, 9u);
}

TEST(Protocol, RenderParseRoundTripPreservesScenario)
{
    cli::Options o;
    ASSERT_TRUE(cli::parseKernel("sssp", o.kernel));
    o.scale = 9;
    o.seed = 42;
    o.machine.width = 4;
    o.machine.height = 2;
    o.machine.topology = NocTopology::torusRuche;
    o.machine.rucheFactor = 3;
    o.machine.invokeOverhead = 5;
    o.machine.engineThreads = 2;
    o.params.push_back({"iterations", 12.0});
    o.validate = true;

    const ParsedRequest p = parseRequestLine(
        renderRunRequest(o, "rt1", "tester", 2));
    ASSERT_TRUE(p.ok) << p.error;
    const cli::Options& q = p.request.options;
    EXPECT_EQ(q.kernel, o.kernel);
    EXPECT_EQ(q.scale, o.scale);
    EXPECT_EQ(q.seed, o.seed);
    EXPECT_EQ(q.machine.width, o.machine.width);
    EXPECT_EQ(q.machine.height, o.machine.height);
    EXPECT_EQ(q.machine.topology, o.machine.topology);
    EXPECT_EQ(q.machine.rucheFactor, o.machine.rucheFactor);
    EXPECT_EQ(q.machine.invokeOverhead, o.machine.invokeOverhead);
    EXPECT_EQ(q.machine.engineThreads, o.machine.engineThreads);
    ASSERT_EQ(q.params.size(), 1u);
    EXPECT_EQ(q.params[0].name, "iterations");
    EXPECT_DOUBLE_EQ(q.params[0].value, 12.0);
    EXPECT_EQ(q.validate, o.validate);
    EXPECT_EQ(p.request.priority, 2);
    EXPECT_EQ(p.request.client, "tester");
}

// renderRunRequest's bytes are pointHash's input: the sweep journal
// keys rows by them, so any change here orphans every journal already
// written. Pin them literally.
TEST(Protocol, RenderRunRequestBytesArePinnedForDefaults)
{
    EXPECT_EQ(
        renderRunRequest(cli::Options{}, "d1", "anon"),
        R"({"type":"run","id":"d1","client":"anon","priority":0,)"
        R"("kernel":"bfs","dataset":"","scale":12,"dataset_scale":0,)"
        R"("width":16,"height":16,"topology":"torus","ruche_factor":0,)"
        R"("policy":"traffic-aware","distribution":"low-order",)"
        R"("barrier":false,"invoke_overhead":0,"max_cycles":0,)"
        R"("engine_threads":1,"scratchpad_bytes":0,"seed":1,)"
        R"("validate":false})");
}

TEST(Protocol, RenderRunRequestBytesArePinnedForEveryField)
{
    cli::Options o;
    ASSERT_TRUE(cli::parseKernel("sssp", o.kernel));
    o.dataset = "amazon";
    o.scale = 9;
    o.datasetScale = 13;
    o.machine.width = 8;
    o.machine.height = 4;
    o.machine.topology = NocTopology::torusRuche;
    o.machine.rucheFactor = 3;
    o.machine.policy = SchedPolicy::roundRobin;
    o.machine.distribution = Distribution::highOrder;
    o.machine.barrier = true;
    o.machine.invokeOverhead = 50;
    o.machine.maxCycles = 123456;
    o.machine.engineThreads = 4;
    o.machine.scratchpadProvisionBytes = 4096;
    o.params = {{"damping", 0.9}, {"iterations", 12.0},
                {"epsilon", 1e-5}};
    o.seed = 42;
    o.validate = true;
    o.deadlineMs = 750;
    EXPECT_EQ(
        renderRunRequest(o, "full-1", "alice", -3),
        R"({"type":"run","id":"full-1","client":"alice","priority":-3,)"
        R"("kernel":"sssp","dataset":"amazon","scale":9,)"
        R"("dataset_scale":13,"width":8,"height":4,)"
        R"("topology":"torus-ruche","ruche_factor":3,)"
        R"("policy":"round-robin","distribution":"high-order",)"
        R"("barrier":true,"invoke_overhead":50,"max_cycles":123456,)"
        R"("engine_threads":4,"scratchpad_bytes":4096,)"
        R"("params":"damping=0.9,iterations=12,epsilon=1e-05",)"
        R"("seed":42,"validate":true,"deadline_ms":750})");
}

TEST(Protocol, ResultPayloadExtractionIsExact)
{
    const std::string payload =
        "{\"kernel\":\"bfs\",\"id\":\",\\\"report\\\":\"}\n";
    const std::string line = resultLine("r,\"x", payload);
    std::string back;
    ASSERT_TRUE(extractResultPayload(line, back));
    EXPECT_EQ(back, payload);

    EXPECT_FALSE(extractResultPayload("{\"type\":\"error\"}", back));
}

// --- the scenario axis table ----------------------------------------

/** A non-default value for one axis, plus the axes it needs set. */
struct AxisSample
{
    const char* axis;  //!< the row's flag, or its key when flagless
    const char* value; //!< argv text form ("true" for a bare flag)
    std::vector<const char*> contextFlags; //!< CLI/sweep context
    const char* contextFields;             //!< the same as request JSON
};

/** One sample per table row; a new row without one fails below. */
const std::vector<AxisSample>&
axisSamples()
{
    static const std::vector<AxisSample> samples = {
        {"--kernel", "pagerank", {}, ""},
        {"--dataset", "amazon", {}, ""},
        {"--scale", "9", {}, ""},
        {"dataset_scale", "13", {}, R"("dataset":"amazon",)"},
        {"--width", "8", {}, ""},
        {"--height", "4", {}, ""},
        {"--topology", "mesh", {}, ""},
        {"--ruche-factor", "3", {"--topology", "torus-ruche"},
         R"("topology":"torus-ruche",)"},
        {"--policy", "round-robin", {}, ""},
        {"--distribution", "high-order", {}, ""},
        {"--barrier", "true", {}, ""},
        {"--invoke-overhead", "50", {}, ""},
        {"--max-cycles", "123456", {}, ""},
        {"--engine-threads", "4", {}, ""},
        {"--scratchpad-bytes", "4096", {}, ""},
        {"--param", "damping=0.9,iterations=12", {}, ""},
        {"--seed", "42", {}, ""},
        {"--validate", "true", {}, ""},
        {"--deadline-ms", "750", {}, ""},
    };
    return samples;
}

/** A request's scenario bytes: the canonical Options comparison. */
std::string
scenarioBytes(const cli::Options& options)
{
    return renderRunRequest(options, "", "");
}

/** The request that sets the row of `sample`. */
std::string
sampleRequest(const cli::Axis& axis, const AxisSample& sample)
{
    const std::string value = axis.kind == cli::JsonKind::string
                                  ? jsonQuote(sample.value)
                                  : std::string(sample.value);
    return std::string(R"({"type":"run","id":"a1",)") +
           sample.contextFields + "\"" + axis.key + "\":" + value + "}";
}

TEST(ScenarioAxes, EveryFrontEndParsesEveryAxisAlike)
{
    const std::string cli_help = cli::usageText();
    const std::string sweep_help = sweep::sweepUsageText();
    for (const cli::Axis& axis : cli::scenarioAxes()) {
        const std::string name = axis.flag != nullptr ? axis.flag
                                                      : axis.key;
        const auto sample = std::find_if(
            axisSamples().begin(), axisSamples().end(),
            [&name](const AxisSample& x) { return name == x.axis; });
        ASSERT_NE(sample, axisSamples().end())
            << name << " has no sample value";
        SCOPED_TRACE(name + " " + sample->value);

        // The reference: the CLI for rows with a flag, the request
        // for key-only rows.
        std::string expected;
        std::string context;
        if (axis.flag != nullptr) {
            std::vector<const char*> args = {"dalorex"};
            args.insert(args.end(), sample->contextFlags.begin(),
                        sample->contextFlags.end());
            const cli::ParseResult bare = cli::parseArgs(
                static_cast<int>(args.size()), args.data());
            ASSERT_TRUE(bare.ok) << bare.error;
            context = scenarioBytes(bare.options);
            args.push_back(axis.flag);
            if (axis.arg != nullptr)
                args.push_back(sample->value);
            const cli::ParseResult parsed = cli::parseArgs(
                static_cast<int>(args.size()), args.data());
            ASSERT_TRUE(parsed.ok) << parsed.error;
            expected = scenarioBytes(parsed.options);
            EXPECT_NE(cli_help.find(axis.flag), std::string::npos);

            // CLI options survive the wire unchanged.
            const ParsedRequest wire = parseRequestLine(
                renderRunRequest(parsed.options, "w1", "anon"));
            ASSERT_TRUE(wire.ok) << wire.error;
            EXPECT_EQ(scenarioBytes(wire.request.options), expected);
        } else {
            const ParsedRequest bare = parseRequestLine(
                std::string(R"({"type":"run","id":"a0",)") +
                sample->contextFields + R"("seed":1})");
            ASSERT_TRUE(bare.ok) << bare.error;
            context = scenarioBytes(bare.request.options);
            cli::Options o = bare.request.options;
            std::string err;
            ASSERT_TRUE(axis.parse(axis.key, sample->value, o, err))
                << err;
            ASSERT_TRUE(cli::finishScenario(o).ok);
            expected = scenarioBytes(o);
        }
        EXPECT_NE(expected, context) << "the sample is a default";

        const ParsedRequest request =
            parseRequestLine(sampleRequest(axis, *sample));
        ASSERT_TRUE(request.ok) << request.error;
        EXPECT_EQ(scenarioBytes(request.request.options), expected);

        if (axis.sweep != cli::SweepTakes::none) {
            // Pin the axes whose sweep defaults differ from the CLI's,
            // except the one under test.
            std::vector<const char*> args = {"sweep", "--full",
                                             "--grid-size", "16x16"};
            if (name != "--kernel")
                args.insert(args.end(), {"--kernel", "bfs"});
            if (name != "--scale" && name != "--dataset")
                args.insert(args.end(), {"--scale", "12"});
            args.insert(args.end(), sample->contextFlags.begin(),
                        sample->contextFlags.end());
            args.push_back(axis.flag);
            if (axis.arg != nullptr)
                args.push_back(sample->value);
            const sweep::SweepParseResult parsed = sweep::parseSweepArgs(
                static_cast<int>(args.size()), args.data());
            ASSERT_TRUE(parsed.ok) << parsed.error;
            const sweep::ExpandResult expanded =
                sweep::expand(parsed.options.plan);
            ASSERT_TRUE(expanded.ok) << expanded.error;
            ASSERT_EQ(expanded.points.size(), 1u);
            EXPECT_EQ(scenarioBytes(expanded.points[0]), expected);
            EXPECT_NE(sweep_help.find(axis.flag), std::string::npos);
        }
    }
    EXPECT_EQ(axisSamples().size(), cli::scenarioAxes().size())
        << "a sample names no table row";
}

// --- scheduler -------------------------------------------------------

Job
makeJob(const std::string& client, int priority,
        const std::string& id)
{
    Job job;
    job.request.id = id;
    job.request.client = client;
    job.request.priority = priority;
    return job;
}

TEST(Scheduler, PriorityBeatsFairShareAndFifoWithinClient)
{
    FairScheduler sched;
    sched.push(makeJob("a", 0, "a1"));
    sched.push(makeJob("a", 0, "a2"));
    sched.push(makeJob("b", 5, "b1"));

    Job job;
    ASSERT_TRUE(sched.pop(job));
    EXPECT_EQ(job.request.id, "b1"); // priority first
    ASSERT_TRUE(sched.pop(job));
    EXPECT_EQ(job.request.id, "a1"); // then FIFO within the client
    ASSERT_TRUE(sched.pop(job));
    EXPECT_EQ(job.request.id, "a2");

    sched.close();
    EXPECT_FALSE(sched.pop(job)); // closed + drained
}

TEST(Scheduler, WeightsShareServiceProportionally)
{
    FairScheduler sched;
    sched.setWeight("heavy", 2.0);
    for (int i = 0; i < 9; ++i) {
        sched.push(makeJob("heavy", 0, "h" + std::to_string(i)));
        sched.push(makeJob("light", 0, "l" + std::to_string(i)));
    }
    // Over the first 6 grants, a weight-2 client gets ~2x the grants
    // of a weight-1 client (stride scheduling: vtime += 1/weight).
    int heavy = 0;
    Job job;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(sched.pop(job));
        if (job.request.client == "heavy")
            ++heavy;
    }
    EXPECT_EQ(heavy, 4);
}

TEST(Scheduler, IdleClientRejoinsAtTheGlobalClock)
{
    FairScheduler sched;
    Job job;
    // `busy` accumulates vtime while `idle` submits nothing.
    for (int i = 0; i < 8; ++i)
        sched.push(makeJob("busy", 0, "b" + std::to_string(i)));
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(sched.pop(job));
    // A newcomer must not drain its backlog ahead of the incumbent's:
    // service alternates instead of bursting all of `idle` first.
    sched.push(makeJob("idle", 0, "i0"));
    sched.push(makeJob("idle", 0, "i1"));
    ASSERT_TRUE(sched.pop(job));
    const std::string first = job.request.client;
    ASSERT_TRUE(sched.pop(job));
    EXPECT_NE(job.request.client, first);
}

TEST(Scheduler, FairUnderConcurrentSubmissionFromFourClients)
{
    // Four client threads race their submissions in; the pop side
    // then verifies the fair-share contract survived the concurrent
    // pushes. Runs under TSan (sanitize-tsan CI job) to check the
    // scheduler's locking — push/setWeight/depth/clientStats from
    // four threads is exactly the daemon's contention pattern.
    FairScheduler sched;
    sched.setWeight("w4", 4.0);
    sched.setWeight("w2", 2.0);
    constexpr int per_client = 12;
    const std::vector<std::string> names = {"w4", "w2", "a1", "b1"};
    std::vector<std::thread> pushers;
    for (const std::string& name : names) {
        pushers.emplace_back([&sched, name] {
            for (int i = 0; i < per_client; ++i) {
                sched.push(
                    makeJob(name, 0, name + std::to_string(i)));
                (void)sched.depth();
                (void)sched.clientStats();
            }
        });
    }
    for (std::thread& t : pushers)
        t.join();

    // Once pushes settle, stride scheduling is deterministic: over
    // any prefix, grants are proportional to weight (4:2:1:1), and
    // each client's own jobs stay FIFO regardless of how the pushes
    // interleaved.
    std::map<std::string, int> grants;
    std::map<std::string, int> lastIndex;
    Job job;
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(sched.pop(job));
        ++grants[job.request.client];
        const std::string& client = job.request.client;
        const int index = std::stoi(
            job.request.id.substr(client.size()));
        auto it = lastIndex.find(client);
        if (it != lastIndex.end()) {
            EXPECT_LT(it->second, index) << "FIFO broke for "
                                         << client;
        }
        lastIndex[client] = index;
    }
    EXPECT_GE(grants["w4"], 7);
    EXPECT_GE(grants["w2"], 3);
    EXPECT_GE(grants["a1"], 1); // no starvation at weight 1
    EXPECT_GE(grants["b1"], 1);
    EXPECT_GT(grants["w4"], grants["w2"]);
    EXPECT_GT(grants["w2"], grants["a1"]);

    // Drain the rest: every submitted job comes out exactly once.
    int drained = 16;
    sched.close();
    while (sched.pop(job))
        ++drained;
    EXPECT_EQ(drained, per_client * 4);
}

TEST(Scheduler, ConcurrentPushPopNeverLosesOrDuplicatesJobs)
{
    // Producer/consumer crossfire — four pushers and two poppers all
    // live at once, the daemon's actual topology. The assertion is
    // exactly-once delivery; the point of running it under TSan is
    // the scheduler's mutex discipline under real contention.
    FairScheduler sched;
    constexpr int per_client = 25;
    std::mutex seenMutex;
    std::map<std::string, int> seen;
    std::vector<std::thread> poppers;
    for (int p = 0; p < 2; ++p) {
        poppers.emplace_back([&] {
            Job job;
            while (sched.pop(job)) {
                std::lock_guard<std::mutex> lock(seenMutex);
                ++seen[job.request.id];
            }
        });
    }
    std::vector<std::thread> pushers;
    for (int c = 0; c < 4; ++c) {
        pushers.emplace_back([&sched, c] {
            const std::string name = "c" + std::to_string(c);
            for (int i = 0; i < per_client; ++i)
                sched.push(
                    makeJob(name, i % 3, // mixed priorities
                            name + "_" + std::to_string(i)));
        });
    }
    for (std::thread& t : pushers)
        t.join();
    sched.close();
    for (std::thread& t : poppers)
        t.join();

    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(4 * per_client));
    for (const auto& [id, count] : seen)
        EXPECT_EQ(count, 1) << id;
    EXPECT_EQ(sched.depth(), 0u);
}

// --- server core -----------------------------------------------------

/** Collects response lines from one connection, thread-safe. */
struct Capture
{
    std::mutex mutex;
    std::vector<std::string> lines;

    Server::Sink
    sink()
    {
        return [this](const std::string& line) {
            std::lock_guard<std::mutex> lock(mutex);
            lines.push_back(line);
        };
    }

    std::vector<std::string>
    snapshot()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return lines;
    }

    /** The first line whose JSON has this type and id. */
    bool
    findLine(const std::string& type, const std::string& id,
             std::string& out)
    {
        for (const std::string& line : snapshot()) {
            const JsonParseResult r = parseJson(line);
            if (!r.ok || !r.value.isObject())
                continue;
            const JsonValue* t = r.value.find("type");
            const JsonValue* i = r.value.find("id");
            if (t != nullptr && t->isString() && t->text == type &&
                i != nullptr && i->isString() && i->text == id) {
                out = line;
                return true;
            }
        }
        return false;
    }
};

/** A tiny scenario that runs in milliseconds. */
std::string
runLine(const std::string& id, const std::string& extra = "")
{
    return "{\"type\":\"run\",\"id\":\"" + id +
           "\",\"kernel\":\"bfs\",\"scale\":6,\"width\":2,"
           "\"height\":2" + extra + "}";
}

cli::Options
tinyOptions()
{
    cli::Options o;
    EXPECT_TRUE(cli::parseKernel("bfs", o.kernel));
    o.scale = 6;
    o.machine.width = 2;
    o.machine.height = 2;
    return o;
}

TEST(ServerCore, BadLinesGetErrorsAndTheDaemonKeepsServing)
{
    Server server(1);
    Capture capture;
    const std::uint64_t conn = server.openConnection(capture.sink());

    server.handleLine(conn, "garbage{{{");
    server.handleLine(conn, R"({"type":"run","id":"bad-kernel",)"
                            R"("kernel":"warp-drive"})");
    std::string big = R"({"type":"run","id":"too-big","params":")";
    big += std::string(maxRequestBytes, 'x');
    big += "\"}";
    server.handleLine(conn, big);
    // A ruche factor as wide as the grid used to fatal() the daemon.
    server.handleLine(conn, runLine("narrow-ruche",
                                    ",\"topology\":\"torus-ruche\""));
    server.handleLine(conn, runLine("ok-after-errors"));
    server.handleLine(conn, R"({"type":"shutdown","id":"q"})");
    server.serve(); // drains the accepted run, then returns

    std::string line;
    EXPECT_TRUE(capture.findLine("error", "", line)); // garbage
    EXPECT_TRUE(capture.findLine("error", "bad-kernel", line));
    EXPECT_NE(line.find("unknown kernel"), std::string::npos);
    EXPECT_EQ(line.find("transient"), std::string::npos) << line;
    EXPECT_TRUE(capture.findLine("error", "too-big", line));
    EXPECT_TRUE(capture.findLine("error", "narrow-ruche", line));
    EXPECT_NE(line.find("ruche factor 2"), std::string::npos) << line;
    EXPECT_TRUE(capture.findLine("accepted", "ok-after-errors", line));
    EXPECT_TRUE(capture.findLine("result", "ok-after-errors", line));
    EXPECT_TRUE(capture.findLine("accepted", "q", line));
}

TEST(ServerCore, ResultPayloadIsByteIdenticalToStandaloneRun)
{
    const cli::Options options = tinyOptions();
    const cli::RunOutcome standalone = cli::runScenario(options);
    ASSERT_TRUE(standalone.ok) << standalone.error;
    const std::string expected = cli::renderJson(standalone.report);

    Server server(1);
    Capture capture;
    const std::uint64_t conn = server.openConnection(capture.sink());
    server.handleLine(conn, runLine("bytes"));
    server.requestShutdown();
    server.serve();

    std::string line;
    ASSERT_TRUE(capture.findLine("result", "bytes", line));
    std::string payload;
    ASSERT_TRUE(extractResultPayload(line, payload));
    EXPECT_EQ(payload, expected);
}

TEST(ServerCore, SecondRequestForSameDatasetBuildsNothing)
{
    datasetCacheClear();
    Server server(1);
    Capture capture;
    const std::uint64_t conn = server.openConnection(capture.sink());
    server.handleLine(conn, runLine("warm-1"));
    server.handleLine(conn, runLine("warm-2"));
    server.requestShutdown();
    server.serve();

    std::string line;
    ASSERT_TRUE(capture.findLine("result", "warm-1", line));
    ASSERT_TRUE(capture.findLine("result", "warm-2", line));
    const DatasetCacheStats cache = datasetCacheStats();
    EXPECT_EQ(cache.builds, 1u); // second request: zero extra builds
    EXPECT_EQ(cache.hits, 1u);

    // The stats response reports the same counters.
    server.handleLine(conn, R"({"type":"stats","id":"s"})");
    ASSERT_TRUE(capture.findLine("stats", "s", line));
    const JsonParseResult parsed = parseJson(line);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const JsonValue* stats = parsed.value.find("stats");
    ASSERT_NE(stats, nullptr);
    const JsonValue* dc = stats->find("dataset_cache");
    ASSERT_NE(dc, nullptr);
    std::uint64_t v = 0;
    ASSERT_TRUE(dc->find("builds")->asU64(v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(stats->find("runs_completed")->asU64(v));
    EXPECT_EQ(v, 2u);
}

TEST(ServerCore, ConcurrentClientsGetInterleavedButCompleteJsonl)
{
    Server server(2);
    Capture a;
    Capture b;
    const std::uint64_t connA = server.openConnection(a.sink());
    const std::uint64_t connB = server.openConnection(b.sink());

    constexpr int jobs = 3;
    std::thread clientA([&] {
        for (int i = 0; i < jobs; ++i)
            server.handleLine(
                connA, runLine("a" + std::to_string(i),
                               ",\"client\":\"alice\""));
    });
    std::thread clientB([&] {
        for (int i = 0; i < jobs; ++i)
            server.handleLine(
                connB, runLine("b" + std::to_string(i),
                               ",\"client\":\"bob\",\"priority\":1"));
    });
    clientA.join();
    clientB.join();
    server.requestShutdown();
    server.serve();

    // Every line each client got is whole, well-formed JSON with its
    // own ids only, and every request has accepted + result.
    std::string line;
    for (int i = 0; i < jobs; ++i) {
        EXPECT_TRUE(a.findLine("accepted", "a" + std::to_string(i),
                               line));
        EXPECT_TRUE(a.findLine("result", "a" + std::to_string(i),
                               line));
        EXPECT_TRUE(b.findLine("accepted", "b" + std::to_string(i),
                               line));
        EXPECT_TRUE(b.findLine("result", "b" + std::to_string(i),
                               line));
    }
    for (const std::string& got : a.snapshot()) {
        EXPECT_TRUE(parseJson(got).ok);
        EXPECT_EQ(got.find("\"id\":\"b"), std::string::npos);
    }
    for (const std::string& got : b.snapshot())
        EXPECT_TRUE(parseJson(got).ok);
}

// --- report reconstruction (the sweep --via data path) ---------------

TEST(ReportReconstruction, RebuiltReportAggregatesIdentically)
{
    const cli::Options options = tinyOptions();
    const cli::RunOutcome local = cli::runScenario(options);
    ASSERT_TRUE(local.ok) << local.error;

    cli::Report rebuilt;
    std::string err;
    ASSERT_TRUE(parseReportPayload(cli::renderJson(local.report),
                                   options, rebuilt, err))
        << err;
    EXPECT_EQ(rebuilt.stats.cycles, local.report.stats.cycles);
    EXPECT_EQ(rebuilt.stats.puOps, local.report.stats.puOps);
    EXPECT_EQ(rebuilt.stats.noc.flitHops,
              local.report.stats.noc.flitHops);
    EXPECT_DOUBLE_EQ(rebuilt.seconds, local.report.seconds);
    EXPECT_DOUBLE_EQ(rebuilt.energy.totalJ(),
                     local.report.energy.totalJ());
    EXPECT_DOUBLE_EQ(rebuilt.stats.utilization(),
                     local.report.stats.utilization());
    // The reconstructed report renders the same JSON bytes again, up
    // to the execution object the payload parser does not read.
    EXPECT_EQ(cli::withoutExecution(cli::renderJson(rebuilt)),
              cli::withoutExecution(cli::renderJson(local.report)));
}

TEST(ReportReconstruction, RunUnwoundBeforeItsFirstCycleParses)
{
    // What a daemon answers for a request whose deadline lapsed in its
    // queue: a timeout at cycle 0. Rebuilding it used to panic in the
    // energy model and take the whole `sweep --via` process down.
    const cli::Options options = tinyOptions();
    RunControl control;
    control.deadline = std::chrono::steady_clock::now();
    const cli::RunOutcome local = cli::runScenario(options, control);
    ASSERT_EQ(local.status, RunStatus::timeout) << local.error;
    ASSERT_EQ(local.report.stats.cycles, 0u);

    cli::Report rebuilt;
    std::string err;
    ASSERT_TRUE(parseReportPayload(cli::renderJson(local.report),
                                   options, rebuilt, err))
        << err;
    EXPECT_EQ(rebuilt.stats.status, RunStatus::timeout);
    EXPECT_EQ(rebuilt.energy.totalJ(), 0.0);
    EXPECT_EQ(cli::withoutExecution(cli::renderJson(rebuilt)),
              cli::withoutExecution(cli::renderJson(local.report)));
}

TEST(ReportReconstruction, MissingCounterOrUnknownStatusFails)
{
    const cli::Options options = tinyOptions();
    const cli::RunOutcome local = cli::runScenario(options);
    ASSERT_TRUE(local.ok) << local.error;
    const std::string payload = cli::renderJson(local.report);
    const std::size_t stats_at = payload.find("\"stats\":{");
    ASSERT_NE(stats_at, std::string::npos);

    // Every counted row is required by name: a payload whose key was
    // renamed (a daemon of another build) fails instead of reading 0.
    auto expectMisses = [&](const char* key) {
        std::string renamed = payload;
        const std::size_t at =
            renamed.find("\"" + std::string(key) + "\":", stats_at);
        ASSERT_NE(at, std::string::npos) << key;
        renamed.insert(at + 1, "x_");
        cli::Report rebuilt;
        std::string err;
        EXPECT_FALSE(parseReportPayload(renamed, options, rebuilt, err))
            << key;
        EXPECT_EQ(err, std::string("report payload misses ") + key);
    };
    for (const Counter<RunStats>& row : runCounters)
        if (row.field != nullptr)
            expectMisses(row.key);
    for (const Counter<NocStats>& row : nocCounters)
        if (row.field != nullptr)
            expectMisses(row.key);

    // A status this build does not know is not a finished run.
    const std::string completed = "\"status\":\"completed\"";
    const std::size_t status_at = payload.find(completed);
    ASSERT_NE(status_at, std::string::npos);
    for (const char* status : {"\"status\":\"bogus\"", "\"status\":1"}) {
        std::string changed = payload;
        changed.replace(status_at, completed.size(), status);
        cli::Report rebuilt;
        std::string err;
        EXPECT_FALSE(parseReportPayload(changed, options, rebuilt, err))
            << status;
        EXPECT_EQ(err, "report payload has an unknown status");
    }
}

// --- stdin transport -------------------------------------------------

TEST(ServeCli, StdinTransportAnswersAndDrainsOnShutdown)
{
    std::istringstream in(runLine("s1") + "\n" +
                          "{\"type\":\"stats\",\"id\":\"st\"}\n" +
                          "{\"type\":\"shutdown\",\"id\":\"q\"}\n");
    std::ostringstream out;
    std::ostringstream err;
    const char* argv[] = {"serve", "--workers", "1"};
    const int rc = serveMain(3, argv, in, out, err);
    EXPECT_EQ(rc, 0);
    const std::string text = out.str();
    EXPECT_NE(text.find("\"type\":\"accepted\",\"id\":\"s1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"type\":\"result\",\"id\":\"s1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"type\":\"stats\",\"id\":\"st\""),
              std::string::npos);
    EXPECT_NE(text.find("\"type\":\"accepted\",\"id\":\"q\""),
              std::string::npos);
}

TEST(ServeCli, UsageAndBadFlagsFailCleanly)
{
    std::istringstream in;
    std::ostringstream out;
    std::ostringstream err;
    const char* help[] = {"serve", "--help"};
    EXPECT_EQ(serveMain(2, help, in, out, err), 0);
    EXPECT_NE(out.str().find("usage: dalorex serve"),
              std::string::npos);

    // The daemon keeps no result journal: the sweep journal is the
    // durable record.
    for (const char* flag : {"--bogus", "--journal-dir"}) {
        std::ostringstream diag;
        const char* bad[] = {"serve", flag, "dir"};
        EXPECT_EQ(serveMain(3, bad, in, out, diag), 2) << flag;
        EXPECT_NE(diag.str().find(std::string("unknown option: ") + flag),
                  std::string::npos)
            << diag.str();
    }
}

// --- subcommand table ------------------------------------------------

TEST(SubcommandTable, HelpEnumeratesEverySubcommand)
{
    const std::string usage = cli::usageText();
    for (const cli::Subcommand& sub : cli::subcommands()) {
        EXPECT_NE(usage.find(std::string("dalorex ") + sub.name),
                  std::string::npos)
            << sub.name;
        EXPECT_NE(usage.find(sub.summary), std::string::npos)
            << sub.name;
    }
    // The historical gap this table closes: convert and serve are in.
    EXPECT_NE(usage.find("dalorex convert"), std::string::npos);
    EXPECT_NE(usage.find("dalorex serve"), std::string::npos);
}

// --- sweep cancellation (SIGINT machinery, signal-free) --------------

TEST(SweepCancel, SetFlagSkipsRemainingRowsAsInterrupted)
{
    sweep::Plan plan;
    plan.kernels = {kernelOrDie("bfs")};
    plan.datasets = {{"", 6}};
    plan.grids = {{2, 2}};
    const sweep::ExpandResult expanded = sweep::expand(plan);
    ASSERT_TRUE(expanded.ok) << expanded.error;

    std::atomic<bool> cancel{true}; // already interrupted
    sweep::RunPolicy policy;
    policy.cancel = &cancel;
    const sweep::RunResult result = sweep::run(expanded, 1, policy);
    ASSERT_TRUE(result.ok);
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_FALSE(result.outcomes[0].ok);
    EXPECT_EQ(result.outcomes[0].error, "interrupted");
}

// --- socket transport + sweep --via, end to end ----------------------

int
runSweep(const std::vector<std::string>& args, std::string& out)
{
    std::vector<const char*> argv = {"sweep"};
    for (const std::string& arg : args)
        argv.push_back(arg.c_str());
    std::ostringstream outStream;
    std::ostringstream errStream;
    const int rc = sweep::sweepMain(static_cast<int>(argv.size()),
                                    argv.data(), outStream,
                                    errStream);
    out = outStream.str();
    return rc;
}

/** A connection to the daemon at `path` once it listens (up to 5 s);
 *  -1 with `diag` when it never does. */
int
connectWhenListening(const std::string& path, std::string& diag)
{
    int fd = -1;
    for (int i = 0; i < 500 && fd < 0; ++i) {
        fd = connectUnix(path, diag);
        if (fd < 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    return fd;
}

/** Shut the daemon down over its own protocol and join its thread. */
void
shutDownDaemon(int probe, std::thread& daemon)
{
    ASSERT_TRUE(sendAll(probe,
                        "{\"type\":\"shutdown\",\"id\":\"q\"}\n"));
    LineReader reader(probe);
    std::string line;
    ASSERT_EQ(reader.readLine(line), ReadStatus::line);
    EXPECT_NE(line.find("\"accepted\""), std::string::npos);
    daemon.join();
    ::close(probe);
}

TEST(ServeSocket, SweepViaDaemonMatchesLocalSweepByteForByte)
{
    const std::string path = "serve_test_e2e.sock";
    std::istringstream in;
    std::ostringstream out;
    std::ostringstream err;
    std::thread daemon([&] {
        const char* argv[] = {"serve", "--socket", path.c_str(),
                              "--workers", "2"};
        serveMain(5, argv, in, out, err);
    });
    std::string diag;
    const int probe = connectWhenListening(path, diag);
    ASSERT_GE(probe, 0) << diag;

    const std::vector<std::string> grid = {
        "--kernel", "bfs,wcc", "--scale", "6", "--grid-size",
        "2x2,4x4", "--threads", "1", "--json"};
    std::string viaOut;
    std::vector<std::string> viaArgs = grid;
    viaArgs.insert(viaArgs.end(), {"--via", path});
    EXPECT_EQ(runSweep(viaArgs, viaOut), 0);
    std::string localOut;
    EXPECT_EQ(runSweep(grid, localOut), 0);

    // Row lines are byte-identical; only the trailing summary line
    // may differ (its dataset-cache deltas depend on run order).
    auto rows = [](const std::string& text) {
        const std::size_t last =
            text.rfind("{\"type\":\"summary\"");
        return text.substr(0, last);
    };
    EXPECT_EQ(rows(viaOut), rows(localOut));
    EXPECT_NE(viaOut.find("{\"type\":\"summary\""),
              std::string::npos);
    shutDownDaemon(probe, daemon);
}

TEST(ServeSocket, MissingFileRowJournalsFailedLocallyAndViaDaemon)
{
    // A missing file: dataset fails transiently wherever its row runs.
    // The daemon's error line says so, so the --via journal records
    // the row `failed` (re-run on resume) as the local one does, and
    // neither summary counts it as quarantined.
    const std::string path = "serve_test_transient.sock";
    std::istringstream in;
    std::ostringstream out;
    std::ostringstream err;
    std::thread daemon([&] {
        const char* argv[] = {"serve", "--socket", path.c_str(),
                              "--workers", "1"};
        serveMain(5, argv, in, out, err);
    });
    std::string diag;
    const int probe = connectWhenListening(path, diag);
    ASSERT_GE(probe, 0) << diag;

    for (const bool via : {false, true}) {
        SCOPED_TRACE(via ? "via" : "local");
        datasetCacheClear();
        const std::string journal_path =
            ::testing::TempDir() + "serve_test_transient.journal";
        std::remove(journal_path.c_str());
        std::vector<std::string> args = {
            "--kernel", "bfs", "--grid-size", "2x2", "--dataset",
            "file:serve_test_no_such.dlx", "--threads", "1", "--json",
            "--journal", journal_path};
        if (via)
            args.insert(args.end(), {"--via", path});
        std::string summary;
        EXPECT_EQ(runSweep(args, summary), 1);
        EXPECT_NE(summary.find("\"rows_quarantined\":0"),
                  std::string::npos)
            << summary;
        // EXPECTs only: the daemon thread must still be joined below.
        const journal::Replay replayed = journal::replay(journal_path);
        EXPECT_TRUE(replayed.ok) << replayed.error;
        EXPECT_EQ(replayed.records.size(), 1u);
        for (const journal::Record& record : replayed.records)
            EXPECT_EQ(record.status, journal::RowStatus::failed);
        std::remove(journal_path.c_str());
    }
    datasetCacheClear();
    shutDownDaemon(probe, daemon);
}

TEST(ServeSocket, UnparsableResultPayloadFailsItsRow)
{
    // A fake daemon answers the stats request, then the one run
    // request with a result whose report does not parse, then hangs
    // up.
    const std::string path = "serve_test_bad_payload.sock";
    std::string err;
    const int listener = listenUnix(path, err);
    ASSERT_GE(listener, 0) << err;
    std::thread daemon([listener] {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            return;
        LineReader reader(fd);
        std::string line;
        if (reader.readLine(line) == ReadStatus::line)
            sendAll(fd, R"({"type":"stats","id":"w","stats":{"workers":1}})"
                        "\n");
        if (reader.readLine(line) == ReadStatus::line)
            sendAll(fd, R"({"type":"result","id":"p0","report":{"stats":}})"
                        "\n");
        ::close(fd);
    });

    std::vector<cli::RunOutcome> outcomes;
    EXPECT_TRUE(runViaSocket(path, "test", {cli::Options{}}, outcomes,
                             err))
        << err;
    ::shutdown(listener, SHUT_RDWR); // wakes accept() if never reached
    daemon.join();
    ::close(listener);
    ::unlink(path.c_str());
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("bad report payload"),
              std::string::npos)
        << outcomes[0].error;
}

/** One line from `fd`, read a byte at a time so that nothing past it
 *  is consumed; false at EOF. */
bool
readOneLine(int fd, std::string& line)
{
    line.clear();
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1) {
        if (c == '\n')
            return true;
        line += c;
    }
    return false;
}

TEST(ServeSocket, ViaKeepsOneRowPerDaemonWorkerUnanswered)
{
    // A fake daemon with two workers answers the oldest unanswered row
    // whenever the client has sent nothing for 100 ms, and records the
    // most rows it ever held unanswered. A client that sends every row
    // at once makes it hold all five.
    const std::string path = "serve_test_window.sock";
    std::string err;
    const int listener = listenUnix(path, err);
    ASSERT_GE(listener, 0) << err;
    constexpr std::size_t rows = 5;
    std::size_t most_unanswered = 0;
    std::thread daemon([listener, &most_unanswered] {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            return;
        std::deque<std::string> unanswered; // row ids, oldest first
        std::size_t answered = 0;
        int idle_polls_left = 50; // give up on a client that stalls
        std::string line;
        while (answered < rows && idle_polls_left > 0) {
            pollfd readable{fd, POLLIN, 0};
            if (::poll(&readable, 1, 100) == 0) {
                if (unanswered.empty()) {
                    --idle_polls_left;
                    continue;
                }
                sendAll(fd, R"({"type":"error","id":")" +
                                unanswered.front() +
                                R"(","error":"fake"})" "\n");
                unanswered.pop_front();
                ++answered;
                continue;
            }
            if (!readOneLine(fd, line))
                break;
            const JsonParseResult request = parseJson(line);
            const JsonValue* type = request.value.find("type");
            const JsonValue* id = request.value.find("id");
            if (type == nullptr || id == nullptr)
                break;
            if (type->text == "stats") {
                sendAll(fd, R"({"type":"stats","id":")" + id->text +
                                R"(","stats":{"workers":2}})" "\n");
                continue;
            }
            unanswered.push_back(id->text);
            most_unanswered =
                std::max(most_unanswered, unanswered.size());
        }
        ::close(fd);
    });

    std::vector<cli::RunOutcome> outcomes;
    const bool ok = runViaSocket(
        path, "test", std::vector<cli::Options>(rows), outcomes, err);
    ::shutdown(listener, SHUT_RDWR); // wakes accept() if never reached
    daemon.join();
    ::close(listener);
    ::unlink(path.c_str());
    EXPECT_TRUE(ok) << err;
    EXPECT_EQ(most_unanswered, 2u);
    ASSERT_EQ(outcomes.size(), rows);
    for (const cli::RunOutcome& outcome : outcomes)
        EXPECT_EQ(outcome.error, "fake");
}

TEST(ServeSocket, AnswersForRowsNotYetSentAreIgnored)
{
    // A fake one-worker daemon meets the first run request with
    // answers for rows 1 and 2, which the client has not sent yet,
    // then answers each request it reads. The early answers must not
    // resolve those rows.
    const std::string path = "serve_test_unsent.sock";
    std::string err;
    const int listener = listenUnix(path, err);
    ASSERT_GE(listener, 0) << err;
    std::thread daemon([listener] {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            return;
        auto answer = [fd](const std::string& id, const char* error) {
            sendAll(fd, R"({"type":"error","id":")" + id +
                            R"(","error":")" + error + "\"}\n");
        };
        LineReader reader(fd);
        std::string line;
        bool first_run = true;
        while (reader.readLine(line) == ReadStatus::line) {
            const JsonParseResult request = parseJson(line);
            const JsonValue* id = request.value.find("id");
            if (id == nullptr)
                break;
            if (id->text == "w") {
                sendAll(fd, R"({"type":"stats","id":"w","stats":{"workers":1}})"
                            "\n");
                continue;
            }
            if (first_run) {
                first_run = false;
                answer("p1", "early");
                answer("p2", "early");
            }
            answer(id->text, "fake");
        }
        ::close(fd);
    });

    std::vector<cli::RunOutcome> outcomes;
    const bool ok = runViaSocket(
        path, "test", std::vector<cli::Options>(4), outcomes, err);
    ::shutdown(listener, SHUT_RDWR); // wakes accept() if never reached
    daemon.join();
    ::close(listener);
    ::unlink(path.c_str());
    EXPECT_TRUE(ok) << err;
    ASSERT_EQ(outcomes.size(), 4u);
    for (const cli::RunOutcome& outcome : outcomes)
        EXPECT_EQ(outcome.error, "fake");
}

// --- fault tolerance: deadlines, oversized lines, retries, drain ----

TEST(Protocol, OversizedLineReportsObservedBytesAndLimit)
{
    const std::string big(maxRequestBytes + 123, 'x');
    const ParsedRequest p = parseRequestLine(big);
    ASSERT_FALSE(p.ok);
    EXPECT_NE(p.error.find(std::to_string(big.size())),
              std::string::npos)
        << p.error;
    EXPECT_NE(p.error.find("65536-byte limit"), std::string::npos)
        << p.error;
}

TEST(Protocol, DeadlineMsRoundTripsButIsNotScenarioIdentity)
{
    const ParsedRequest p = parseRequestLine(
        runLine("dl", ",\"deadline_ms\":250"));
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.request.options.deadlineMs, 250u);
    const std::string rendered =
        renderRunRequest(p.request.options, "dl2", "");
    EXPECT_NE(rendered.find("\"deadline_ms\":250"),
              std::string::npos);

    // The run-control budget must not change which journaled row a
    // scenario maps to.
    cli::Options bare = p.request.options;
    bare.deadlineMs = 0;
    EXPECT_EQ(pointHash(p.request.options), pointHash(bare));
}

TEST(ServerCore, DeadlineExpiresAsTimeoutResultAndDaemonSurvives)
{
    // A request whose compute far exceeds its wall-clock budget must
    // come back as a `result` carrying status "timeout" within ~2x
    // the budget, and the daemon must keep serving afterwards.
    datasetCacheClear();
    // Prewarm the dataset so the budget measures engine time, not
    // graph generation.
    {
        const cli::Options warm = tinyOptions();
        ASSERT_TRUE(
            datasetCacheGet("rmat10", 0, warm.seed).ok);
    }
    Server server(1);
    Capture capture;
    const std::uint64_t conn = server.openConnection(capture.sink());
    const std::uint64_t deadline_ms = 1000;
    const auto t0 = std::chrono::steady_clock::now();
    server.handleLine(
        conn, "{\"type\":\"run\",\"id\":\"dl\","
              "\"kernel\":\"pagerank\",\"scale\":10,"
              "\"width\":2,\"height\":2,"
              "\"params\":\"iterations=1000\","
              "\"deadline_ms\":" +
                  std::to_string(deadline_ms) + "}");
    server.handleLine(conn, runLine("alive-after"));
    server.requestShutdown();
    server.serve();
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();

    std::string line;
    ASSERT_TRUE(capture.findLine("result", "dl", line)) << line;
    std::string payload;
    ASSERT_TRUE(extractResultPayload(line, payload));
    EXPECT_NE(payload.find("\"status\":\"timeout\""),
              std::string::npos)
        << payload;
    EXPECT_TRUE(capture.findLine("result", "alive-after", line));
    EXPECT_LT(elapsed_ms,
              static_cast<long long>(2 * deadline_ms))
        << "timeout did not cut the run promptly";
    datasetCacheClear();
}

TEST(ServerCore, StatsReportFaultCounters)
{
    datasetCacheClear();
    Server server(1);
    Capture capture;
    const std::uint64_t conn = server.openConnection(capture.sink());
    // One deadline casualty (already expired at enqueue: the budget
    // counts from acceptance, so deadline_ms of a request that waits
    // behind a long queue can lapse before its first cycle).
    server.handleLine(
        conn, "{\"type\":\"run\",\"id\":\"t1\","
              "\"kernel\":\"pagerank\",\"scale\":8,"
              "\"width\":2,\"height\":2,"
              "\"params\":\"iterations=1000\","
              "\"deadline_ms\":1}");
    server.handleLine(conn, runLine("ok1"));
    server.requestShutdown();
    server.serve();
    server.handleLine(conn, "{\"type\":\"stats\",\"id\":\"st\"}");

    std::string line;
    ASSERT_TRUE(capture.findLine("stats", "st", line));
    EXPECT_NE(line.find("\"fault\":{"), std::string::npos) << line;
    EXPECT_NE(line.find("\"timeouts\":1"), std::string::npos) << line;
    for (const char* key :
         {"\"cancellations\":", "\"retries\":", "\"quarantined\":"})
        EXPECT_NE(line.find(key), std::string::npos) << key;
    // The daemon keeps no result journal, so it counts none.
    for (const char* key :
         {"\"journal_written\":", "\"journal_replayed\":"})
        EXPECT_EQ(line.find(key), std::string::npos) << key;
    datasetCacheClear();
}

TEST(ServerCore, BudgetTooLargeForTheClockMeansNoDeadline)
{
    // Untrusted lines may carry any u64 budget. Neither of these fits
    // steady_clock's nanosecond count; both used to answer a cycle-0
    // timeout (and abort the daemon under UBSan).
    const cli::RunOutcome standalone = cli::runScenario(tinyOptions());
    ASSERT_TRUE(standalone.ok) << standalone.error;
    const std::string expected = cli::renderJson(standalone.report);

    Server server(1);
    Capture capture;
    const std::uint64_t conn = server.openConnection(capture.sink());
    server.handleLine(
        conn, runLine("max63", ",\"deadline_ms\":9223372036854775807"));
    server.handleLine(
        conn, runLine("max64", ",\"deadline_ms\":18446744073709551615"));
    server.requestShutdown();
    server.serve();

    for (const char* id : {"max63", "max64"}) {
        std::string line;
        ASSERT_TRUE(capture.findLine("result", id, line)) << id;
        std::string payload;
        ASSERT_TRUE(extractResultPayload(line, payload));
        EXPECT_NE(payload.find("\"status\":\"completed\""),
                  std::string::npos)
            << payload;
        EXPECT_EQ(payload, expected) << id;
    }
}

/** A run request whose dataset file does not exist: a transient
 *  (I/O) failure, so the server's retry policy applies. */
std::string
missingFileLine(const std::string& id)
{
    return "{\"type\":\"run\",\"id\":\"" + id +
           "\",\"kernel\":\"bfs\",\"width\":2,\"height\":2,"
           "\"dataset\":\"file:serve_test_no_such.dlx\"}";
}

TEST(ServerCore, TransientFailureIsRetriedThenAnsweredAsError)
{
    datasetCacheClear();
    Server server(1);
    server.setRetries(2, 1);
    Capture capture;
    const std::uint64_t conn = server.openConnection(capture.sink());
    // The crew runs beside the test: a shutdown requested before the
    // run would (by design) cut its retries short.
    std::thread crew([&server] { server.serve(); });
    server.handleLine(conn, missingFileLine("missing"));
    std::string line;
    for (int i = 0;
         i < 2000 && !capture.findLine("error", "missing", line); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.requestShutdown();
    crew.join();

    ASSERT_TRUE(capture.findLine("error", "missing", line));
    EXPECT_NE(line.find("serve_test_no_such.dlx"), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"transient\":true"), std::string::npos)
        << line;
    server.handleLine(conn, R"({"type":"stats","id":"st"})");
    ASSERT_TRUE(capture.findLine("stats", "st", line));
    EXPECT_NE(line.find("\"retries\":2"), std::string::npos) << line;
    datasetCacheClear();
}

TEST(ServerCore, ShutdownDuringRetryBackoffAnswersAtOnce)
{
    datasetCacheClear();
    Server server(1);
    server.setRetries(1, 30'000); // the backoff alone is 30 s
    Capture capture;
    const std::uint64_t conn = server.openConnection(capture.sink());
    const auto t0 = std::chrono::steady_clock::now();
    std::thread crew([&server] { server.serve(); });
    server.handleLine(conn, missingFileLine("missing"));
    // The first attempt fails within microseconds; let the worker
    // settle into its backoff before shutting down.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.requestShutdown();
    crew.join();

    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
    std::string line;
    EXPECT_TRUE(capture.findLine("error", "missing", line));
    server.handleLine(conn, R"({"type":"stats","id":"st"})");
    ASSERT_TRUE(capture.findLine("stats", "st", line));
    EXPECT_NE(line.find("\"retries\":0"), std::string::npos) << line;
    datasetCacheClear();
}

TEST(ServeSocket, SigtermDrainsAcceptedWorkBeforeExit)
{
    // kill -TERM on a busy daemon: every accepted request still gets
    // its response before the process exits (satellite of the crash
    // recovery story — clients never see a half-served socket).
    const std::string path = "serve_test_sigterm.sock";
    std::istringstream in;
    std::ostringstream out;
    std::ostringstream err;
    int rc = -1;
    std::thread daemon([&] {
        const char* argv[] = {"serve", "--socket", path.c_str(),
                              "--workers", "1"};
        rc = serveMain(5, argv, in, out, err);
    });
    std::string diag;
    const int fd = connectWhenListening(path, diag);
    ASSERT_GE(fd, 0) << diag;

    ASSERT_TRUE(sendAll(fd, runLine("drain-1") + "\n"));
    ASSERT_TRUE(sendAll(fd, runLine("drain-2") + "\n"));
    LineReader reader(fd);
    std::string line;
    // Both accepted before the signal lands (results may already be
    // interleaved — count them too, they mustn't be lost).
    int results = 0;
    for (int accepted = 0; accepted < 2;) {
        ASSERT_EQ(reader.readLine(line), ReadStatus::line);
        if (line.find("\"accepted\"") != std::string::npos)
            ++accepted;
        if (line.find("\"type\":\"result\"") != std::string::npos)
            ++results;
    }
    ::raise(SIGTERM);

    // The daemon drains: both results arrive, then the socket closes.
    while (reader.readLine(line) == ReadStatus::line)
        if (line.find("\"type\":\"result\"") != std::string::npos)
            ++results;
    EXPECT_EQ(results, 2);
    daemon.join();
    EXPECT_EQ(rc, 0);
    EXPECT_NE(err.str().find("drained, exiting"),
              std::string::npos);
    ::close(fd);
}

} // namespace
} // namespace serve
} // namespace dalorex

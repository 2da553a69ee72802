/**
 * @file
 * The golden corpus: whole runs pinned across commits.
 *
 * determinism_test compares runs of one build, so a change to the
 * TSU, the tile phase, the NoC or a kernel that shifts cycles would
 * pass it as long as results still validate. This test pins every
 * scenario of a fixed matrix — every registered kernel on mesh, torus
 * and torus-ruche, on 4x4 and 8x4 grids, with the barrier off and on,
 * at RMAT scale 9 — to its line of tests/golden/expected.jsonl. A
 * line holds the headline counters and the FNV-1a of the report minus
 * its execution object (cli::withoutExecution), so a change anywhere
 * in the report fails the test, and the failure prints a per-field
 * diff.
 *
 * A deliberate model change re-blesses the corpus with the disabled
 * case below, and CHANGES.md says why the numbers moved:
 *
 *   ./build/golden_test --gtest_also_run_disabled_tests \
 *       --gtest_filter=Golden.DISABLED_Bless
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/kernels.hh"
#include "cli/cli.hh"
#include "cli/scenario.hh"
#include "common/table.hh"
#include "serve/json.hh"

namespace dalorex
{
namespace
{

using serve::JsonParseResult;
using serve::JsonValue;
using serve::parseJson;

/** The corpus in the source tree (path set by CMake). */
constexpr const char* corpusPath = DALOREX_GOLDEN_FILE;

/** Every scenario of the matrix, in corpus order. */
std::vector<cli::Options>
scenarios()
{
    std::vector<cli::Options> out;
    for (const KernelInfo* kernel : allKernels()) {
        for (const NocTopology topology :
             {NocTopology::mesh, NocTopology::torus,
              NocTopology::torusRuche}) {
            for (const std::uint32_t width : {4u, 8u}) {
                for (const bool barrier : {false, true}) {
                    cli::Options o;
                    o.kernel = kernel;
                    o.scale = 9;
                    o.validate = true;
                    o.machine.width = width;
                    o.machine.height = 4;
                    o.machine.topology = topology;
                    o.machine.barrier = barrier;
                    const cli::ScenarioCheck check =
                        cli::finishScenario(o);
                    EXPECT_TRUE(check.ok) << check.error;
                    out.push_back(o);
                }
            }
        }
    }
    return out;
}

std::string
scenarioName(const cli::Options& o)
{
    return o.kernel->name + "/" + toString(o.machine.topology) + "/" +
           std::to_string(o.machine.width) + "x" +
           std::to_string(o.machine.height) + "/barrier-" +
           (o.machine.barrier ? "on" : "off");
}

std::uint64_t
fnv1a(const std::string& bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** The corpus line of one scenario, run now. */
std::string
runLine(const cli::Options& o)
{
    const cli::RunOutcome outcome = cli::runScenario(o);
    EXPECT_TRUE(outcome.ok) << scenarioName(o) << ": " << outcome.error;
    const cli::Report& report = outcome.report;
    const RunStats& s = report.stats;
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(fnv1a(
                      cli::withoutExecution(cli::renderJson(report)))));
    std::ostringstream out;
    out << "{\"scenario\":\"" << scenarioName(o) << "\","
        << "\"cycles\":" << s.cycles << ","
        << "\"epochs\":" << s.epochs << ","
        << "\"invocations\":" << s.invocations << ","
        << "\"edges_processed\":" << s.edgesProcessed << ","
        << "\"messages_delivered\":" << s.noc.messagesDelivered << ","
        << "\"flit_hops\":" << s.noc.flitHops << ","
        << "\"total_j\":" << Table::num(report.energy.totalJ()) << ","
        << "\"report_fnv1a\":\"" << hash << "\"}";
    return out.str();
}

/** A member's text: a string's contents or a number's token. */
std::string
memberText(const JsonValue* value)
{
    if (value == nullptr)
        return "(missing)";
    return value->isString() ? value->text : value->raw;
}

/** One "  field: expected -> got" line per field that differs. */
std::string
fieldDiff(const std::string& want, const std::string& got)
{
    const JsonParseResult expected = parseJson(want);
    const JsonParseResult actual = parseJson(got);
    std::string out;
    if (expected.ok && actual.ok) {
        for (const auto& [key, value] : expected.value.members) {
            const std::string was = memberText(&value);
            const std::string now = memberText(actual.value.find(key));
            if (was != now)
                out += "  " + key + ": " + was + " -> " + now + "\n";
        }
    }
    if (out.empty())
        out = "  expected " + want + "\n  got      " + got + "\n";
    return out;
}

TEST(Golden, EveryScenarioMatchesTheCorpus)
{
    std::ifstream in(corpusPath);
    ASSERT_TRUE(in) << "cannot read " << corpusPath;
    std::map<std::string, std::string> corpus; // scenario -> line
    std::string line;
    while (std::getline(in, line)) {
        const JsonParseResult parsed = parseJson(line);
        ASSERT_TRUE(parsed.ok) << "bad corpus line: " << line;
        corpus[memberText(parsed.value.find("scenario"))] = line;
    }

    const std::vector<cli::Options> matrix = scenarios();
    EXPECT_EQ(corpus.size(), matrix.size())
        << "the corpus and the matrix differ in size";
    for (const cli::Options& o : matrix) {
        const std::string name = scenarioName(o);
        const auto it = corpus.find(name);
        if (it == corpus.end()) {
            ADD_FAILURE() << name << " is not in the corpus";
            continue;
        }
        const std::string got = runLine(o);
        if (got != it->second)
            ADD_FAILURE() << name << " differs from the corpus "
                          << "(expected -> got):\n"
                          << fieldDiff(it->second, got);
    }
}

/** Rewrites the corpus from this build; see the file comment. */
TEST(Golden, DISABLED_Bless)
{
    std::ofstream out(corpusPath, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << corpusPath;
    for (const cli::Options& o : scenarios())
        out << runLine(o) << "\n";
}

} // namespace
} // namespace dalorex

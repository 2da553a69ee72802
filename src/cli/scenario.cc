#include "cli/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/text.hh"
#include "graph/datasets.hh"

namespace dalorex
{
namespace cli
{
namespace
{

using Text = std::optional<std::string>;

/** The field a member pointer into Options or its MachineConfig names. */
template <typename O, typename T, typename Part>
auto&
fieldOf(O& o, T Part::*field)
{
    if constexpr (std::is_same_v<Part, MachineConfig>)
        return o.machine.*field;
    else
        return o.*field;
}

/**
 * `row` as an unsigned-integer axis stored in `field`, accepting
 * [min, max] and, when `zeroUnset`, 0 for "unset". A render the row
 * brings is kept.
 */
template <typename T, typename Part>
Axis
number(Axis row, T Part::*field, std::uint64_t min, std::uint64_t max,
       bool zeroUnset = false)
{
    const bool bounded = max != std::numeric_limits<std::uint64_t>::max();
    const std::string range =
        std::string(zeroUnset ? "0 or " : "") +
        (bounded ? "in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]"
                 : "a non-negative integer");
    if (bounded)
        row.usage += "; " + range;
    row.kind = JsonKind::number;
    row.parse = [=](const std::string& name, const std::string& text,
                    Options& o, std::string& err) {
        std::uint64_t v = 0;
        if (!parseU64(text, v) ||
            ((v < min || v > max) && !(zeroUnset && v == 0))) {
            err = name + " must be " + range + ", got " + text;
            return false;
        }
        fieldOf(o, field) = static_cast<T>(v);
        return true;
    };
    if (!row.render)
        row.render = [=](const Options& o) -> Text {
            return std::to_string(fieldOf(o, field));
        };
    return row;
}

/**
 * `row` as a named-choice axis: `names` maps every accepted spelling
 * (case-insensitive) to its value, and toString(value) is the
 * canonical one. The usage gains the choices and the default.
 */
template <typename E>
Axis
choice(Axis row, E MachineConfig::*field,
       std::vector<std::pair<std::string, E>> names)
{
    std::string choices;
    for (const auto& [name, value] : names)
        if (name == toString(value))
            choices += (choices.empty() ? "" : "|") + name;
    row.usage = choices + " (default " + toString(MachineConfig{}.*field) +
                ")" + row.usage;
    row.kind = JsonKind::string;
    row.parse = [=](const std::string& name, const std::string& text,
                    Options& o, std::string& err) {
        const std::string lower = toLower(text);
        for (const auto& [spelling, value] : names) {
            if (lower == spelling) {
                o.machine.*field = value;
                return true;
            }
        }
        err = name + " must be " + choices + ", got " + text;
        return false;
    };
    row.render = [=](const Options& o) -> Text {
        return toString(o.machine.*field);
    };
    return row;
}

/** `row` as an on/off axis: a bare flag on the CLI, a JSON boolean. */
template <typename Part>
Axis
toggle(Axis row, bool Part::*field)
{
    row.kind = JsonKind::boolean;
    row.parse = [=](const std::string& name, const std::string& text,
                    Options& o, std::string& err) {
        if (text != "true" && text != "false") {
            err = name + " must be true or false, got " + text;
            return false;
        }
        fieldOf(o, field) = text == "true";
        return true;
    };
    row.render = [=](const Options& o) -> Text {
        return fieldOf(o, field) ? "true" : "false";
    };
    return row;
}

/** Shortest round-trippable rendering of a double (param values). */
std::string
formatDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    for (int precision = 1; precision < 17; ++precision) {
        char candidate[32];
        std::snprintf(candidate, sizeof candidate, "%.*g", precision,
                      value);
        double back = 0.0;
        std::sscanf(candidate, "%lf", &back);
        if (back == value)
            return candidate;
    }
    return buf;
}

std::vector<Axis>
buildAxes()
{
    constexpr std::uint64_t any = std::numeric_limits<std::uint64_t>::max();
    using S = SweepTakes;
    return {
        {.flag = "--kernel", .key = "kernel", .arg = "K",
         .usage = KernelRegistry::instance().namesText() +
                  " (default bfs; sweep: also all, its default)",
         .kind = JsonKind::string, .sweep = S::list,
         .parse = [](auto&, const std::string& text, Options& o,
                     std::string& err) {
             err = "unknown kernel: " + text + " (" +
                   KernelRegistry::instance().namesText() +
                   "; try --list-kernels)";
             return parseKernel(text, o.kernel);
         },
         .render = [](const Options& o) -> Text { return o.kernel->name; }},
        {.flag = "--dataset", .key = "dataset", .arg = "NAME",
         .usage = "named dataset instead of --scale: "
                  "amazon|wiki|livejournal|rmatN, or file:PATH for a "
                  "binary CSR graph written by `dalorex convert`; sweep "
                  "takes NAME@SCALE to pin a stand-in's vertex scale",
         .kind = JsonKind::string, .sweep = S::list,
         .parse = [](auto&, const std::string& text, Options& o,
                     std::string& err) {
             if (!knownDataset(text)) {
                 err = "unknown dataset: " + text +
                       " (try --list-datasets)";
                 return false;
             }
             o.dataset = text;
             return true;
         },
         .render = [](const Options& o) -> Text { return o.dataset; }},
        number({.flag = "--scale", .key = "scale", .arg = "N",
                .usage = "RMAT dataset scale, V = 2^N (default 12; "
                         "sweep: 10 with --quick, 14 with --full)",
                .sweep = S::list},
               &Options::scale, 4, 26),
        number({.key = "dataset_scale",
                .usage = "vertex scale of a named stand-in (0 = native "
                         "size)"},
               &Options::datasetScale, 4, 31, true),
        number({.flag = "--width", .key = "width", .arg = "N",
                .usage = "grid width (default 16)"},
               &MachineConfig::width, 1, 1024),
        number({.flag = "--height", .key = "height", .arg = "N",
                .usage = "grid height (default 16)"},
               &MachineConfig::height, 1, 1024),
        choice({.flag = "--topology", .key = "topology", .arg = "T",
                .sweep = S::list},
               &MachineConfig::topology,
               {{"mesh", NocTopology::mesh},
                {"torus", NocTopology::torus},
                {"torus-ruche", NocTopology::torusRuche},
                {"ruche", NocTopology::torusRuche}}),
        number({.flag = "--ruche-factor", .key = "ruche_factor",
                .arg = "N",
                .usage = "ruche hop distance for torus-ruche (0 = the "
                         "default 2)",
                .sweep = S::one},
               &MachineConfig::rucheFactor, 2, 64, true),
        choice({.flag = "--policy", .key = "policy", .arg = "P",
                .sweep = S::list},
               &MachineConfig::policy,
               {{"round-robin", SchedPolicy::roundRobin},
                {"rr", SchedPolicy::roundRobin},
                {"traffic-aware", SchedPolicy::trafficAware},
                {"ta", SchedPolicy::trafficAware}}),
        choice({.flag = "--distribution", .key = "distribution",
                .arg = "D", .sweep = S::list},
               &MachineConfig::distribution,
               {{"low-order", Distribution::lowOrder},
                {"low", Distribution::lowOrder},
                {"high-order", Distribution::highOrder},
                {"high", Distribution::highOrder}}),
        toggle({.flag = "--barrier", .key = "barrier",
                .usage = "force epoch-synchronized execution"},
               &MachineConfig::barrier),
        number({.flag = "--invoke-overhead", .key = "invoke_overhead",
                .arg = "N", .usage = "extra cycles per task invocation",
                .sweep = S::one},
               &MachineConfig::invokeOverhead, 0, 1'000'000),
        number({.flag = "--max-cycles", .key = "max_cycles", .arg = "N",
                .usage = "hard cycle limit (0 = none); the run ends "
                         "with status \"timeout\" and exit code 3 when "
                         "exceeded"},
               &MachineConfig::maxCycles, 0, any),
        number({.flag = "--engine-threads", .key = "engine_threads",
                .arg = "N",
                .usage = "engine worker threads (default 1; clamped to "
                         "the tile count; stats are byte-identical for "
                         "every N)",
                .sweep = S::list},
               &MachineConfig::engineThreads, 1, 256),
        number({.flag = "--scratchpad-bytes", .key = "scratchpad_bytes",
                .arg = "N",
                .usage = "per-tile scratchpad provision in bytes (0 = "
                         "size to usage)",
                .sweep = S::one},
               &MachineConfig::scratchpadProvisionBytes, 0,
               std::uint64_t(1) << 40),
        {.flag = "--param", .key = "params", .arg = "K=V,...",
         .usage = "override kernel defaults, e.g. damping=0.9,"
                  "iterations=20,epsilon=1e-5 (PageRank convergence "
                  "stop; iterations stays the cap); keys a kernel does "
                  "not use are skipped",
         .kind = JsonKind::string, .sweep = S::one,
         .parse = [](auto&, const std::string& text, Options& o,
                     std::string& err) {
             return parseParamOverrides(text, o.params, err);
         },
         .render = [](const Options& o) -> Text {
             if (o.params.empty())
                 return std::nullopt;
             std::string text;
             for (const ParamOverride& p : o.params)
                 text += (text.empty() ? "" : ",") + p.name + "=" +
                         formatDouble(p.value);
             return text;
         }},
        number({.flag = "--seed", .key = "seed", .arg = "N",
                .usage = "dataset/weight seed (default 1)",
                .sweep = S::one},
               &Options::seed, 0, any),
        toggle({.flag = "--validate", .key = "validate",
                .usage = "check output against the sequential reference "
                         "(exit 2 on mismatch)",
                .sweep = S::one},
               &Options::validate),
        // Run control, not scenario identity: rendered only when set,
        // so pointHash (taken with it zeroed) matches a submission
        // without one.
        number({.flag = "--deadline-ms", .key = "deadline_ms", .arg = "N",
                .usage = "wall-clock budget for the engine run (0 = "
                         "none), counted from engine start, so each "
                         "retry of a sweep row gets a whole budget: the "
                         "engine reads the clock itself, notices expiry "
                         "within 64 stepped cycles and unwinds with "
                         "status \"timeout\" at a cycle boundary; a "
                         "budget too large for the clock means no "
                         "deadline",
                .sweep = S::one,
                .render = [](const Options& o) -> Text {
                    if (o.deadlineMs == 0)
                        return std::nullopt;
                    return std::to_string(o.deadlineMs);
                }},
               &Options::deadlineMs, 0, any),
    };
}

const Axis*
findAxis(const char* Axis::*name, const std::string& value)
{
    for (const Axis& axis : scenarioAxes())
        if (axis.*name != nullptr && value == axis.*name)
            return &axis;
    return nullptr;
}

} // namespace

const std::vector<Axis>&
scenarioAxes()
{
    static const std::vector<Axis> axes = buildAxes();
    return axes;
}

const Axis*
axisByFlag(const std::string& flag)
{
    return findAxis(&Axis::flag, flag);
}

const Axis*
axisByKey(const std::string& key)
{
    return findAxis(&Axis::key, key);
}

bool
flagValue(const Axis& axis, int argc, const char* const* argv, int& i,
          std::string& value)
{
    if (axis.arg == nullptr) {
        value = "true";
        return true;
    }
    if (i + 1 >= argc)
        return false;
    value = argv[++i];
    return true;
}

std::string
usageLine(const std::string& head, const std::string& text)
{
    constexpr std::size_t column = 24;
    constexpr std::size_t width = 78;
    std::string out = "  " + head;
    if (out.size() >= column)
        out += "\n" + std::string(column, ' ');
    else
        out += std::string(column - out.size(), ' ');
    std::size_t len = column;
    std::istringstream words(text);
    std::string word;
    while (words >> word) {
        if (len > column && len + 1 + word.size() > width) {
            out += "\n" + std::string(column, ' ');
            len = column;
        } else if (len > column) {
            out += ' ';
            ++len;
        }
        out += word;
        len += word.size();
    }
    return out + "\n";
}

std::string
axisUsage(bool sweep)
{
    std::string out;
    for (const Axis& axis : scenarioAxes()) {
        if (axis.flag == nullptr ||
            (sweep && axis.sweep == SweepTakes::none))
            continue;
        std::string head = axis.flag;
        if (axis.arg != nullptr)
            head += std::string(" ") + axis.arg +
                    (sweep && axis.sweep == SweepTakes::list ? ",..."
                                                             : "");
        out += usageLine(head, axis.usage);
    }
    return out;
}

ScenarioCheck
finishScenario(Options& o)
{
    ScenarioCheck check;
    auto fail = [&check](const std::string& message) {
        check.ok = false;
        check.error = message;
        return check;
    };
    MachineConfig& m = o.machine;
    const std::string grid =
        std::to_string(m.width) + "x" + std::to_string(m.height);

    if (m.topology != NocTopology::torusRuche) {
        m.rucheFactor = 0;
    } else {
        m.rucheFactor = std::max<std::uint32_t>(2, m.rucheFactor);
        // The ruche hop must stay inside one row of the torus.
        if (m.width > 1 && m.rucheFactor >= m.width)
            return fail("ruche factor " + std::to_string(m.rucheFactor) +
                        " needs a grid wider than " +
                        std::to_string(m.rucheFactor) + ", got " + grid);
    }

    // Every axis must render to text its own row accepts, so options
    // built in code (sweep plans, bench drivers) get the same range
    // checks as parsed input.
    for (const Axis& axis : scenarioAxes()) {
        const Text text = axis.render(o);
        Options scratch;
        std::string err;
        if (text && !(axis.kind == JsonKind::string && text->empty()) &&
            !axis.parse(axis.key, *text, scratch, err))
            return fail(err);
    }

    if (o.datasetScale != 0) {
        const std::string drop = "; drop dataset scale " +
                                 std::to_string(o.datasetScale) +
                                 " from " + o.dataset;
        if (o.dataset.empty())
            return fail("a dataset scale applies only to named "
                        "stand-ins; RMAT takes its scale from --scale");
        if (toLower(o.dataset).rfind("rmat", 0) == 0)
            return fail("rmatN datasets carry their scale in the name" +
                        drop);
        if (isFileDataset(o.dataset))
            return fail("file: datasets are fixed size" + drop);
    }

    // The engine shards one contiguous tile range per worker, so
    // threads beyond the tile count could never receive a shard.
    const std::uint32_t tiles = m.numTiles();
    if (m.engineThreads > tiles) {
        check.note = "--engine-threads " +
                     std::to_string(m.engineThreads) + " exceeds the " +
                     grid + " grid's " + std::to_string(tiles) +
                     " shards; running clamped to " +
                     std::to_string(tiles);
        m.engineThreads = tiles;
    }
    return check;
}

} // namespace cli
} // namespace dalorex

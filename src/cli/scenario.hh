/**
 * @file
 * The scenario axis table: one row per knob of a `dalorex` scenario
 * (kernel, dataset, machine shape, NoC/TSU/placement policy, engine
 * execution, run control).
 *
 * Every front end reads its scenario knobs from this table: the
 * `dalorex` argv parser, the `dalorex sweep` flags, the `dalorex
 * serve` request fields, the serve request renderer (and with it the
 * sweep journal's point hash) and the scenario sections of both --help
 * texts. A new knob is one row in scenarioAxes(), plus one rule in
 * finishScenario() when it constrains other axes.
 */

#ifndef DALOREX_CLI_SCENARIO_HH
#define DALOREX_CLI_SCENARIO_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cli/cli.hh"

namespace dalorex
{
namespace cli
{

/** The JSON type of an axis's request value. */
enum class JsonKind
{
    number,  //!< unsigned integer
    string,  //!< a request's "" leaves the axis unset
    boolean,
};

/** How `dalorex sweep` takes an axis. */
enum class SweepTakes
{
    none, //!< not a sweep flag
    one,  //!< one value applied to every point
    list, //!< a comma list: one grid axis of the sweep Plan
};

/** One scenario axis. Every member has a default initializer, so a
 *  row names only what it sets. */
struct Axis
{
    const char* flag = nullptr; //!< CLI/sweep flag; nullptr = key only
    const char* key = nullptr;  //!< request key (every row has one)
    /** Usage metavar; nullptr = a bare flag, which parses "true". */
    const char* arg = nullptr;
    std::string usage{}; //!< help text (wrapped when printed)
    JsonKind kind = JsonKind::number;
    SweepTakes sweep = SweepTakes::none;
    /**
     * Set the axis on `o` from its text form (argv word, request
     * value); false with a one-line `err` naming `name`, the flag or
     * key the text came from.
     */
    std::function<bool(const std::string& name, const std::string& text,
                       Options& o, std::string& err)>
        parse{};
    /** The axis's text form in a request; nullopt omits the key. */
    std::function<std::optional<std::string>(const Options& o)> render{};
};

/** Every scenario axis, in request-rendering order. */
const std::vector<Axis>& scenarioAxes();

/** The row with this flag, or with this request key; nullptr if none. */
const Axis* axisByFlag(const std::string& flag);
const Axis* axisByKey(const std::string& key);

/**
 * Fetch the value argv gives `axis` at argv[i]: the next word, or
 * "true" for a bare flag. Advances `i` past it; false when missing.
 */
bool flagValue(const Axis& axis, int argc, const char* const* argv,
               int& i, std::string& value);

/**
 * Usage lines for the rows with a flag. For `sweep`, only the rows
 * `dalorex sweep` takes, with a ",..." metavar on its list axes.
 */
std::string axisUsage(bool sweep);

/** One help entry: "  HEAD" padded to column 24, `text` wrapped. */
std::string usageLine(const std::string& head, const std::string& text);

/** Outcome of finishScenario(). */
struct ScenarioCheck
{
    bool ok = true;
    std::string error; //!< one line, set when !ok
    std::string note;  //!< one-line advisory, or ""
};

/**
 * The cross-axis rules every front end applies once all axes are
 * set: torus-ruche gets ruche factor 2 when unset and other
 * topologies get none; the ruche factor must fit the grid width;
 * every axis must render to text its row accepts (the range
 * check for options built in code); a dataset scale applies only to
 * named stand-ins; engine threads clamp to the tile count, with a
 * note.
 */
ScenarioCheck finishScenario(Options& o);

} // namespace cli
} // namespace dalorex

#endif // DALOREX_CLI_SCENARIO_HH

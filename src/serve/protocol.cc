#include "serve/protocol.hh"

#include <optional>

#include "cli/scenario.hh"
#include "common/stats.hh"
#include "energy/model.hh"
#include "graph/graphfile.hh"
#include "serve/json.hh"

namespace dalorex
{
namespace serve
{
namespace
{

ParsedRequest
fail(ParsedRequest parsed, const std::string& message)
{
    parsed.ok = false;
    parsed.error = message;
    return parsed;
}

/**
 * Best-effort id recovery from a line that cannot be fully parsed
 * (oversized or malformed after the id): scan for the first
 * `"id":"..."` member so the error response still routes. Purely a
 * diagnostic nicety — a wrong guess only mislabels the error line.
 */
std::string
scavengeId(const std::string& line)
{
    const std::size_t key = line.find("\"id\"");
    if (key == std::string::npos)
        return "";
    std::size_t pos = line.find(':', key + 4);
    if (pos == std::string::npos)
        return "";
    ++pos;
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t'))
        ++pos;
    if (pos >= line.size() || line[pos] != '"')
        return "";
    std::string id;
    for (++pos; pos < line.size(); ++pos) {
        if (line[pos] == '\\') {
            ++pos; // skip the escaped char; good enough for an id
            if (pos < line.size())
                id.push_back(line[pos]);
            continue;
        }
        if (line[pos] == '"')
            return id;
        id.push_back(line[pos]);
    }
    return "";
}

bool
stringField(const JsonValue& object, const char* name,
            const std::string& def, std::string& out,
            std::string& err)
{
    const JsonValue* field = object.find(name);
    if (field == nullptr) {
        out = def;
        return true;
    }
    if (!field->isString()) {
        err = std::string(name) + " must be a string";
        return false;
    }
    out = field->text;
    return true;
}

/** The request fields outside the scenario axis table. */
bool
requestField(const std::string& name)
{
    for (const char* field : {"type", "id", "client", "priority", "weight"})
        if (name == field)
            return true;
    return false;
}

/** A scenario field's value in the text form its axis parses;
 *  false when the JSON type does not match the axis. */
bool
fieldText(const cli::Axis& axis, const JsonValue& field,
          std::string& text)
{
    switch (axis.kind) {
      case cli::JsonKind::number:
        text = field.raw;
        return field.isNumber();
      case cli::JsonKind::string:
        text = field.text;
        return field.isString();
      case cli::JsonKind::boolean:
        text = field.boolean ? "true" : "false";
        return field.isBool();
    }
    return false;
}

} // namespace

ParsedRequest
parseRequestLine(const std::string& line)
{
    ParsedRequest parsed;
    Request& r = parsed.request;

    if (line.size() > maxRequestBytes) {
        r.id = scavengeId(line.substr(0, maxRequestBytes));
        return fail(std::move(parsed),
                    "request line of " + std::to_string(line.size()) +
                        " bytes exceeds the " +
                        std::to_string(maxRequestBytes) +
                        "-byte limit");
    }

    const JsonParseResult json = parseJson(line);
    if (!json.ok) {
        r.id = scavengeId(line);
        return fail(std::move(parsed), "bad JSON: " + json.error);
    }
    if (!json.value.isObject()) {
        r.id = scavengeId(line);
        return fail(std::move(parsed),
                    "request must be a JSON object");
    }
    const JsonValue& object = json.value;

    std::string err;
    if (!stringField(object, "id", "", r.id, err))
        return fail(std::move(parsed), err);

    std::string type;
    if (!stringField(object, "type", "run", type, err))
        return fail(std::move(parsed), err);
    if (type == "run")
        r.type = Request::Type::run;
    else if (type == "stats")
        r.type = Request::Type::stats;
    else if (type == "shutdown")
        r.type = Request::Type::shutdown;
    else
        return fail(std::move(parsed),
                    "unknown request type: " + type +
                        " (run|stats|shutdown)");

    if (r.id.empty())
        return fail(std::move(parsed),
                    "request needs a non-empty string id");

    for (const auto& [name, value] : object.members) {
        (void)value;
        if (!requestField(name) && cli::axisByKey(name) == nullptr)
            return fail(std::move(parsed),
                        "unknown request field: " + name);
    }

    if (!stringField(object, "client", "anon", r.client, err))
        return fail(std::move(parsed), err);
    if (r.client.empty())
        return fail(std::move(parsed), "client must be non-empty");

    if (const JsonValue* priority = object.find("priority")) {
        if (!priority->isNumber() ||
            priority->number != static_cast<int>(priority->number) ||
            priority->number < -100 || priority->number > 100)
            return fail(std::move(parsed),
                        "priority must be an integer in [-100, 100]");
        r.priority = static_cast<int>(priority->number);
    }
    if (const JsonValue* weight = object.find("weight")) {
        if (!weight->isNumber() || weight->number <= 0.0 ||
            weight->number > 1000.0)
            return fail(std::move(parsed),
                        "weight must be in (0, 1000]");
        r.weight = weight->number;
    }

    if (r.type != Request::Type::run)
        return parsed;

    // Table order, first occurrence of a key: the same fields in the
    // same order whatever the request's member order.
    for (const cli::Axis& axis : cli::scenarioAxes()) {
        const JsonValue* field = object.find(axis.key);
        if (field == nullptr)
            continue;
        std::string text;
        if (!fieldText(axis, *field, text))
            return fail(std::move(parsed), std::string(axis.key) +
                                               " has the wrong JSON type");
        if (axis.kind == cli::JsonKind::string && text.empty())
            continue; // "" leaves the axis unset
        if (!axis.parse(axis.key, text, r.options, err))
            return fail(std::move(parsed), err);
    }
    const cli::ScenarioCheck check = cli::finishScenario(r.options);
    if (!check.ok)
        return fail(std::move(parsed), check.error);
    return parsed;
}

std::string
renderRunRequest(const cli::Options& options, const std::string& id,
                 const std::string& client, int priority)
{
    std::string out = "{\"type\":\"run\",\"id\":" + jsonQuote(id) +
                      ",\"client\":" + jsonQuote(client) +
                      ",\"priority\":" + std::to_string(priority);
    for (const cli::Axis& axis : cli::scenarioAxes()) {
        const std::optional<std::string> text = axis.render(options);
        if (!text)
            continue;
        out += ",\"" + std::string(axis.key) + "\":" +
               (axis.kind == cli::JsonKind::string ? jsonQuote(*text)
                                                   : *text);
    }
    return out + "}";
}

std::uint64_t
pointHash(const cli::Options& options)
{
    cli::Options canonical = options;
    canonical.deadlineMs = 0; // run control, not scenario identity
    const std::string bytes = renderRunRequest(canonical, "", "");
    return hashBytes(bytes.data(), bytes.size());
}

std::string
acceptedLine(const std::string& id, std::uint64_t queued)
{
    return "{\"type\":\"accepted\",\"id\":" + jsonQuote(id) +
           ",\"queued\":" + std::to_string(queued) + "}\n";
}

std::string
errorLine(const std::string& id, const std::string& error,
          bool transient)
{
    return "{\"type\":\"error\",\"id\":" + jsonQuote(id) +
           ",\"error\":" + jsonQuote(error) +
           (transient ? ",\"transient\":true}\n" : "}\n");
}

namespace
{
/** The result-line prefix up to the verbatim payload. */
constexpr const char* reportKey = ",\"report\":";
} // namespace

std::string
resultLine(const std::string& id, const std::string& reportJson)
{
    // Embed the renderJson bytes verbatim (sans trailing newline):
    // extractResultPayload recovers them exactly, so a serve-backed
    // result diffs byte-for-byte against a standalone run.
    std::string payload = reportJson;
    while (!payload.empty() && payload.back() == '\n')
        payload.pop_back();
    return "{\"type\":\"result\",\"id\":" + jsonQuote(id) +
           reportKey + payload + "}\n";
}

bool
extractResultPayload(const std::string& line, std::string& out)
{
    if (line.rfind("{\"type\":\"result\",\"id\":", 0) != 0)
        return false;
    // The id is JSON-escaped, so the unquoted `,"report":` sequence
    // cannot occur before the real payload key.
    const std::size_t key = line.find(reportKey);
    if (key == std::string::npos)
        return false;
    std::size_t end = line.size();
    while (end > 0 && (line[end - 1] == '\n' || line[end - 1] == '\r'))
        --end;
    if (end == 0 || line[end - 1] != '}')
        return false;
    --end; // the response object's closing brace
    const std::size_t start = key + std::string(reportKey).size();
    if (start > end)
        return false;
    out = line.substr(start, end - start) + "\n";
    return true;
}

bool
parseReportPayload(const std::string& payload,
                   const cli::Options& submitted, cli::Report& out,
                   std::string& err)
{
    const JsonParseResult json = parseJson(payload);
    if (!json.ok) {
        err = "bad report payload: " + json.error;
        return false;
    }
    const JsonValue& root = json.value;
    if (!root.isObject()) {
        err = "report payload is not an object";
        return false;
    }

    out = cli::Report{};
    out.options = submitted;

    const JsonValue* dataset = root.find("dataset");
    const JsonValue* stats = root.find("stats");
    if (dataset == nullptr || !dataset->isObject() ||
        stats == nullptr || !stats->isObject()) {
        err = "report payload misses dataset/stats";
        return false;
    }

    auto u64At = [&err](const JsonValue& object, const char* name,
                        std::uint64_t& value) {
        const JsonValue* field = object.find(name);
        if (field == nullptr || !field->asU64(value)) {
            err = std::string("report payload misses ") + name;
            return false;
        }
        return true;
    };

    const JsonValue* name = dataset->find("name");
    if (name == nullptr || !name->isString()) {
        err = "report payload misses dataset.name";
        return false;
    }
    out.datasetName = name->text;
    std::uint64_t v = 0;
    if (!u64At(*dataset, "vertices", v))
        return false;
    out.numVertices = static_cast<VertexId>(v);
    if (!u64At(*dataset, "edges", v))
        return false;
    out.numEdges = static_cast<EdgeId>(v);

    RunStats& s = out.stats;
    for (const Counter<RunStats>& row : runCounters)
        if (row.field != nullptr && !u64At(*stats, row.key, s.*row.field))
            return false;

    const JsonValue* noc = stats->find("noc");
    if (noc == nullptr || !noc->isObject()) {
        err = "report payload misses stats.noc";
        return false;
    }
    for (const Counter<NocStats>& row : nocCounters)
        if (row.field != nullptr &&
            !u64At(*noc, row.key, s.noc.*row.field))
            return false;

    // Older payloads predate the status field; absence means the run
    // completed (the only status they could report). A status this
    // build does not know is an error, not a finished run.
    if (const JsonValue* status = root.find("status")) {
        bool known = false;
        for (const RunStatus candidate :
             {RunStatus::completed, RunStatus::timeout,
              RunStatus::cancelled, RunStatus::deadlock})
            if (status->isString() &&
                status->text == toString(candidate)) {
                s.status = candidate;
                known = true;
            }
        if (!known) {
            err = "report payload has an unknown status";
            return false;
        }
    }

    if (const JsonValue* validated = root.find("validated");
        validated != nullptr && validated->isBool())
        out.validated = validated->boolean;

    // utilization() divides busy cycles by cycles x tile count, with
    // the tile count taken from the per-tile vector's length; the
    // payload carries no per-tile data, so size the vector (zeros) to
    // the submitted machine shape.
    s.puBusyPerTile.assign(submitted.machine.numTiles(), 0);

    // Derive the remaining report fields exactly as runScenario does:
    // identical integers through identical code give identical
    // doubles, so aggregation downstream is byte-identical. A run the
    // daemon unwound before its first cycle (a deadline that lapsed in
    // the queue) has no energy to model and keeps them zeroed.
    if (s.cycles > 0) {
        out.energy = dalorexEnergy(s, submitted.machine);
        out.seconds = runSeconds(s);
        out.bandwidthBytesPerSec = avgMemoryBandwidth(s);
    }
    return true;
}

} // namespace serve
} // namespace dalorex

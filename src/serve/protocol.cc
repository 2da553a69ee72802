#include "serve/protocol.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "apps/kernels.hh"
#include "energy/model.hh"
#include "graph/datasets.hh"
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

/** Shortest round-trippable rendering of a double (param values). */
std::string
formatDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    // Prefer the shortest representation that still round-trips.
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

/** Fetch an unsigned field bounded to [min, max]; absent = `def`. */
bool
u64Field(const JsonValue& object, const char* name,
         std::uint64_t min, std::uint64_t max, std::uint64_t def,
         std::uint64_t& out, std::string& err)
{
    const JsonValue* field = object.find(name);
    if (field == nullptr) {
        out = def;
        return true;
    }
    std::uint64_t v = 0;
    if (!field->asU64(v) || v < min || v > max) {
        err = std::string(name) + " must be an integer in [" +
              std::to_string(min) + ", " + std::to_string(max) + "]";
        return false;
    }
    out = v;
    return true;
}

bool
u32Field(const JsonValue& object, const char* name,
         std::uint32_t min, std::uint32_t max, std::uint32_t def,
         std::uint32_t& out, std::string& err)
{
    std::uint64_t v = 0;
    if (!u64Field(object, name, min, max, def, v, err))
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
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

bool
boolField(const JsonValue& object, const char* name, bool def,
          bool& out, std::string& err)
{
    const JsonValue* field = object.find(name);
    if (field == nullptr) {
        out = def;
        return true;
    }
    if (!field->isBool()) {
        err = std::string(name) + " must be true or false";
        return false;
    }
    out = field->boolean;
    return true;
}

/** The scenario/scheduling fields a run request may carry. */
constexpr const char* knownFields[] = {
    "type",           "id",           "client",
    "priority",       "weight",       "kernel",
    "dataset",        "scale",        "dataset_scale",
    "width",          "height",       "topology",
    "ruche_factor",   "policy",       "distribution",
    "barrier",        "invoke_overhead", "max_cycles",
    "engine_threads", "engine_scan",  "params",
    "seed",           "validate",     "scratchpad_bytes",
    "deadline_ms",
};

bool
knownField(const std::string& name)
{
    for (const char* field : knownFields)
        if (name == field)
            return true;
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
        if (!knownField(name))
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

    cli::Options& o = r.options;

    std::string kernel;
    if (!stringField(object, "kernel", "", kernel, err))
        return fail(std::move(parsed), err);
    if (!kernel.empty() && !cli::parseKernel(kernel, o.kernel))
        return fail(std::move(parsed),
                    "unknown kernel: " + kernel + " (" +
                        KernelRegistry::instance().namesText() + ")");

    if (!stringField(object, "dataset", "", o.dataset, err))
        return fail(std::move(parsed), err);
    if (!o.dataset.empty() && !knownDataset(o.dataset))
        return fail(std::move(parsed),
                    "unknown dataset: " + o.dataset);

    std::uint32_t scale = 0;
    if (!u32Field(object, "scale", 4, 26, o.scale, scale, err))
        return fail(std::move(parsed), err);
    o.scale = scale;
    std::uint32_t dataset_scale = 0;
    if (!u32Field(object, "dataset_scale", 0, 31, 0, dataset_scale,
                  err))
        return fail(std::move(parsed), err);
    if (dataset_scale != 0 && dataset_scale < 4)
        return fail(std::move(parsed),
                    "dataset_scale must be 0 or in [4, 31]");
    o.datasetScale = dataset_scale;

    if (!u32Field(object, "width", 1, 1024, o.machine.width,
                  o.machine.width, err) ||
        !u32Field(object, "height", 1, 1024, o.machine.height,
                  o.machine.height, err))
        return fail(std::move(parsed), err);

    std::string topology;
    if (!stringField(object, "topology", "", topology, err))
        return fail(std::move(parsed), err);
    if (!topology.empty() &&
        !cli::parseTopology(topology, o.machine.topology))
        return fail(std::move(parsed),
                    "unknown topology: " + topology +
                        " (mesh|torus|torus-ruche)");
    if (!u32Field(object, "ruche_factor", 0, 64, 0,
                  o.machine.rucheFactor, err))
        return fail(std::move(parsed), err);
    if (o.machine.rucheFactor == 1)
        return fail(std::move(parsed),
                    "ruche_factor must be 0 or in [2, 64]");

    std::string policy;
    if (!stringField(object, "policy", "", policy, err))
        return fail(std::move(parsed), err);
    if (!policy.empty() && !cli::parsePolicy(policy, o.machine.policy))
        return fail(std::move(parsed),
                    "unknown policy: " + policy +
                        " (round-robin|traffic-aware)");

    std::string distribution;
    if (!stringField(object, "distribution", "", distribution, err))
        return fail(std::move(parsed), err);
    if (!distribution.empty() &&
        !cli::parseDistribution(distribution,
                                o.machine.distribution))
        return fail(std::move(parsed),
                    "unknown distribution: " + distribution +
                        " (low-order|high-order)");

    if (!boolField(object, "barrier", false, o.machine.barrier, err))
        return fail(std::move(parsed), err);
    if (!u32Field(object, "invoke_overhead", 0, 1'000'000, 0,
                  o.machine.invokeOverhead, err))
        return fail(std::move(parsed), err);
    std::uint64_t max_cycles = 0;
    if (!u64Field(object, "max_cycles", 0, ~std::uint64_t(0), 0,
                  max_cycles, err))
        return fail(std::move(parsed), err);
    o.machine.maxCycles = max_cycles;

    std::uint32_t engine_threads = 1;
    if (!u32Field(object, "engine_threads", 1, 256, 1, engine_threads,
                  err))
        return fail(std::move(parsed), err);
    // Mirror cli::parseArgs's clamp: never more workers than shards,
    // so a request and the equivalent argv render the same
    // machine.engine_threads in the report.
    o.machine.engineThreads = std::min(
        engine_threads, o.machine.width * o.machine.height);

    std::string engine_scan;
    if (!stringField(object, "engine_scan", "", engine_scan, err))
        return fail(std::move(parsed), err);
    if (!engine_scan.empty() &&
        !cli::parseEngineScan(engine_scan, o.machine.engineScan))
        return fail(std::move(parsed),
                    "engine_scan must be full|active");

    std::uint64_t scratchpad = 0;
    if (!u64Field(object, "scratchpad_bytes", 0,
                  std::uint64_t(1) << 40, 0, scratchpad, err))
        return fail(std::move(parsed), err);
    o.machine.scratchpadProvisionBytes = scratchpad;

    std::string params;
    if (!stringField(object, "params", "", params, err))
        return fail(std::move(parsed), err);
    if (!params.empty() &&
        !parseParamOverrides(params, o.params, err))
        return fail(std::move(parsed), err);

    if (!u64Field(object, "seed", 0, ~std::uint64_t(0), 1, o.seed,
                  err))
        return fail(std::move(parsed), err);
    if (!boolField(object, "validate", false, o.validate, err))
        return fail(std::move(parsed), err);
    if (!u64Field(object, "deadline_ms", 0, ~std::uint64_t(0), 0,
                  o.deadlineMs, err))
        return fail(std::move(parsed), err);

    // Mirror cli::parseArgs's ruche normalization so a request and
    // the equivalent argv produce the same MachineConfig.
    if (o.machine.topology == NocTopology::torusRuche &&
        o.machine.rucheFactor < 2)
        o.machine.rucheFactor = 2;
    if (o.machine.topology != NocTopology::torusRuche)
        o.machine.rucheFactor = 0;
    return parsed;
}

std::string
renderRunRequest(const cli::Options& options, const std::string& id,
                 const std::string& client, int priority)
{
    const cli::Options& o = options;
    std::ostringstream out;
    out << "{\"type\":\"run\",\"id\":" << jsonQuote(id)
        << ",\"client\":" << jsonQuote(client)
        << ",\"priority\":" << priority
        << ",\"kernel\":" << jsonQuote(o.kernel->name)
        << ",\"dataset\":" << jsonQuote(o.dataset)
        << ",\"scale\":" << o.scale
        << ",\"dataset_scale\":" << o.datasetScale
        << ",\"width\":" << o.machine.width
        << ",\"height\":" << o.machine.height
        << ",\"topology\":" << jsonQuote(toString(o.machine.topology))
        << ",\"ruche_factor\":" << o.machine.rucheFactor
        << ",\"policy\":" << jsonQuote(toString(o.machine.policy))
        << ",\"distribution\":"
        << jsonQuote(toString(o.machine.distribution))
        << ",\"barrier\":" << (o.machine.barrier ? "true" : "false")
        << ",\"invoke_overhead\":" << o.machine.invokeOverhead
        << ",\"max_cycles\":" << o.machine.maxCycles
        << ",\"engine_threads\":"
        << std::max(1u, o.machine.engineThreads)
        << ",\"engine_scan\":"
        << jsonQuote(toString(o.machine.engineScan))
        << ",\"scratchpad_bytes\":"
        << o.machine.scratchpadProvisionBytes;
    if (!o.params.empty()) {
        std::string params;
        for (const ParamOverride& p : o.params) {
            if (!params.empty())
                params += ',';
            params += p.name + "=" + formatDouble(p.value);
        }
        out << ",\"params\":" << jsonQuote(params);
    }
    out << ",\"seed\":" << o.seed
        << ",\"validate\":" << (o.validate ? "true" : "false");
    // Run-control knob, not scenario identity: emit only when set so
    // journal point hashes (computed with deadlineMs zeroed) match the
    // request bytes of an undeadlined submission.
    if (o.deadlineMs > 0)
        out << ",\"deadline_ms\":" << o.deadlineMs;
    out << "}";
    return out.str();
}

std::string
renderControlRequest(const std::string& type, const std::string& id)
{
    return "{\"type\":" + jsonQuote(type) + ",\"id\":" +
           jsonQuote(id) + "}";
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
errorLine(const std::string& id, const std::string& error)
{
    return "{\"type\":\"error\",\"id\":" + jsonQuote(id) +
           ",\"error\":" + jsonQuote(error) + "}\n";
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
    if (!u64At(*stats, "cycles", s.cycles))
        return false;
    if (!u64At(*stats, "epochs", v))
        return false;
    s.epochs = static_cast<std::uint32_t>(v);
    if (!u64At(*stats, "invocations", s.invocations) ||
        !u64At(*stats, "edges_processed", s.edgesProcessed) ||
        !u64At(*stats, "pu_busy_cycles", s.puBusyCycles) ||
        !u64At(*stats, "pu_ops", s.puOps) ||
        !u64At(*stats, "sram_reads", s.sramReads) ||
        !u64At(*stats, "sram_writes", s.sramWrites) ||
        !u64At(*stats, "tsu_reads", s.tsuReads) ||
        !u64At(*stats, "tsu_writes", s.tsuWrites) ||
        !u64At(*stats, "local_bypass_msgs", s.localBypassMsgs) ||
        !u64At(*stats, "scratchpad_bytes_total",
               s.scratchpadBytesTotal) ||
        !u64At(*stats, "scratchpad_bytes_max", s.scratchpadBytesMax))
        return false;

    const JsonValue* noc = stats->find("noc");
    if (noc == nullptr || !noc->isObject()) {
        err = "report payload misses stats.noc";
        return false;
    }
    if (!u64At(*noc, "messages_injected", s.noc.messagesInjected) ||
        !u64At(*noc, "messages_delivered", s.noc.messagesDelivered) ||
        !u64At(*noc, "flit_hops", s.noc.flitHops) ||
        !u64At(*noc, "flit_wire_tiles", s.noc.flitWireTiles) ||
        !u64At(*noc, "router_passages", s.noc.routerPassages) ||
        !u64At(*noc, "delivery_stalls", s.noc.deliveryStalls))
        return false;

    if (const JsonValue* engine = stats->find("engine");
        engine != nullptr && engine->isObject()) {
        (void)u64At(*engine, "stepped_cycles", s.engineSteppedCycles);
        (void)u64At(*engine, "noc_stepped_cycles",
                    s.nocSteppedCycles);
        (void)u64At(*engine, "tile_scans", s.tileScans);
        (void)u64At(*engine, "router_scans", s.routerScans);
        (void)u64At(*engine, "active_tile_cycles_saved",
                    s.activeTileCyclesSaved);
        (void)u64At(*engine, "active_router_cycles_saved",
                    s.activeRouterCyclesSaved);
        err.clear(); // engine counters are simulator-only; optional
    }

    // Older payloads predate the status field; absence means the run
    // completed (the only status they could report).
    if (const JsonValue* status = root.find("status");
        status != nullptr && status->isString()) {
        if (status->text == "timeout")
            s.status = RunStatus::timeout;
        else if (status->text == "cancelled")
            s.status = RunStatus::cancelled;
        else if (status->text == "deadlock")
            s.status = RunStatus::deadlock;
        else
            s.status = RunStatus::completed;
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
    // doubles, so aggregation downstream is byte-identical.
    out.energy = dalorexEnergy(s, submitted.machine);
    out.seconds = runSeconds(s);
    out.bandwidthBytesPerSec = avgMemoryBandwidth(s);
    return true;
}

} // namespace serve
} // namespace dalorex

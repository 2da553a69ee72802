#include "sweep/aggregate.hh"
#include "common/text.hh"
#include "serve/json.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

namespace dalorex
{
namespace sweep
{
namespace
{

/** Dataset label: the scale override distinguishes e.g. WK@14 from
 *  WK@16 (the generated name alone is scale-blind). */
std::string
datasetLabel(const cli::Report& report)
{
    std::string label = report.datasetName;
    if (report.options.datasetScale > 0)
        label += "@" + std::to_string(report.options.datasetScale);
    return label;
}

/**
 * Every result-changing axis except the grid shape: rows sharing it
 * form a group. Engine threads are left out: they never change
 * results, and the per-grid clamp gives one threads value different
 * counts on different grids.
 */
std::string
groupKey(const cli::Report& report)
{
    const cli::Options& o = report.options;
    std::ostringstream key;
    key << o.kernel->name << '|' << datasetLabel(report) << '|'
        << o.seed << '|' << toString(o.machine.topology) << '|'
        << o.machine.rucheFactor << '|' << toString(o.machine.policy)
        << '|' << toString(o.machine.distribution) << '|'
        << o.machine.barrier << '|' << o.machine.invokeOverhead << '|'
        << o.machine.scratchpadProvisionBytes;
    return key.str();
}

GridShape
shapeOf(const cli::Report& report)
{
    return {report.options.machine.width,
            report.options.machine.height};
}

std::string
describeGroup(const cli::Report& report)
{
    const cli::Options& o = report.options;
    return o.kernel->display + " on " + datasetLabel(report) + ", " +
           toString(o.machine.topology) + "/" +
           toString(o.machine.policy);
}

} // namespace

AggregateResult
aggregate(const std::vector<cli::Report>& reports,
          const GridShape& baseline, MissingBaseline missing)
{
    AggregateResult result;

    // First matching row per group becomes that group's baseline.
    std::map<std::string, std::size_t> baselineIndex;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (!(shapeOf(reports[i]) == baseline))
            continue;
        baselineIndex.emplace(groupKey(reports[i]), i);
    }

    for (const cli::Report& report : reports) {
        Row row;
        row.report = report;
        row.energyPerEdgeJ =
            report.stats.edgesProcessed > 0
                ? report.energy.totalJ() /
                      static_cast<double>(report.stats.edgesProcessed)
                : 0.0;

        const auto base = baselineIndex.find(groupKey(report));
        if (base == baselineIndex.end()) {
            if (missing == MissingBaseline::error) {
                result.ok = false;
                result.error = "no baseline row (" +
                               toString(baseline) + ") for " +
                               describeGroup(report);
                result.rows.clear();
                return result;
            }
            row.hasBaseline = false;
            row.speedup = 0.0;
            row.parallelEff = 0.0;
        } else {
            const cli::Report& ref = reports[base->second];
            row.isBaseline = shapeOf(report) == baseline;
            row.speedup = report.seconds > 0.0
                              ? ref.seconds / report.seconds
                              : 0.0;
            const double tileRatio =
                static_cast<double>(
                    report.options.machine.numTiles()) /
                static_cast<double>(ref.options.machine.numTiles());
            row.parallelEff =
                tileRatio > 0.0 ? row.speedup / tileRatio : 0.0;
        }
        result.rows.push_back(std::move(row));
    }
    return result;
}

Table
toTable(const std::vector<Row>& rows)
{
    Table table({"kernel",        "dataset",     "vertices",
                 "edges",         "tiles",       "grid",
                 "topology",      "policy",      "distribution",
                 "barrier",       "eng_thr",     "cycles",
                 "epochs",
                 "seconds",       "edges_proc",  "pu_util",
                 "edges/s",       "ops/s",       "mem_bw_B/s",
                 "KB/tile",       "verts/tile",  "energy_J",
                 "logic_pct",     "memory_pct",  "network_pct",
                 "energy/edge_J", "speedup",     "par_eff"});
    for (const Row& row : rows) {
        const cli::Report& r = row.report;
        const cli::Options& o = r.options;
        const std::uint32_t tiles = o.machine.numTiles();
        table.addRow(
            {o.kernel->name, datasetLabel(r),
             std::to_string(r.numVertices),
             std::to_string(r.numEdges), std::to_string(tiles),
             toString(shapeOf(r)), toString(o.machine.topology),
             toString(o.machine.policy),
             toString(o.machine.distribution),
             o.machine.barrier ? "on" : "off",
             std::to_string(std::max(1u, o.machine.engineThreads)),
             std::to_string(r.stats.cycles),
             std::to_string(r.stats.epochs), Table::sci(r.seconds, 3),
             std::to_string(r.stats.edgesProcessed),
             Table::fmt(r.stats.utilization(), 3),
             Table::sci(static_cast<double>(r.stats.edgesProcessed) /
                            r.seconds,
                        3),
             Table::sci(static_cast<double>(r.stats.puOps) /
                            r.seconds,
                        3),
             Table::sci(r.bandwidthBytesPerSec, 3),
             Table::fmt(static_cast<double>(
                            r.stats.scratchpadBytesMax) /
                            1024.0,
                        1),
             std::to_string(r.numVertices / tiles),
             Table::sci(r.energy.totalJ(), 3),
             Table::fmt(r.energy.logicPct(), 1),
             Table::fmt(r.energy.memoryPct(), 1),
             Table::fmt(r.energy.networkPct(), 1),
             Table::sci(row.energyPerEdgeJ, 3),
             row.hasBaseline ? Table::fmt(row.speedup, 3) : "-",
             row.hasBaseline ? Table::fmt(row.parallelEff, 3) : "-"});
    }
    return table;
}

std::string
toJsonl(const std::vector<Row>& rows)
{
    std::ostringstream out;
    for (const Row& row : rows) {
        const cli::Report& r = row.report;
        const cli::Options& o = r.options;
        const std::uint32_t tiles = o.machine.numTiles();
        out << "{"
            << "\"kernel\":\"" << o.kernel->name << "\","
            << "\"dataset\":" << serve::jsonQuote(datasetLabel(r))
            << ","
            << "\"vertices\":" << r.numVertices << ","
            << "\"edges\":" << r.numEdges << ","
            << "\"width\":" << o.machine.width << ","
            << "\"height\":" << o.machine.height << ","
            << "\"tiles\":" << tiles << ","
            << "\"topology\":\"" << toString(o.machine.topology)
            << "\","
            << "\"policy\":\"" << toString(o.machine.policy) << "\","
            << "\"distribution\":\""
            << toString(o.machine.distribution) << "\","
            << "\"barrier\":"
            << (o.machine.barrier ? "true" : "false") << ","
            << "\"engine_threads\":"
            << std::max(1u, o.machine.engineThreads) << ","
            << "\"seed\":" << o.seed << ","
            << "\"cycles\":" << r.stats.cycles << ","
            << "\"epochs\":" << r.stats.epochs << ","
            << "\"seconds\":" << Table::num(r.seconds) << ","
            << "\"edges_processed\":" << r.stats.edgesProcessed << ","
            << "\"pu_utilization\":"
            << Table::num(r.stats.utilization()) << ","
            << "\"edges_per_sec\":"
            << Table::num(
                   static_cast<double>(r.stats.edgesProcessed) /
                   r.seconds)
            << ","
            << "\"ops_per_sec\":"
            << Table::num(static_cast<double>(r.stats.puOps) /
                          r.seconds)
            << ","
            << "\"mem_bw_bytes_per_sec\":"
            << Table::num(r.bandwidthBytesPerSec) << ","
            << "\"kb_per_tile\":"
            << Table::num(
                   static_cast<double>(r.stats.scratchpadBytesMax) /
                   1024.0)
            << ","
            << "\"vertices_per_tile\":" << (r.numVertices / tiles)
            << ","
            << "\"energy_j\":" << Table::num(r.energy.totalJ()) << ","
            << "\"logic_pct\":" << Table::num(r.energy.logicPct())
            << ","
            << "\"memory_pct\":" << Table::num(r.energy.memoryPct())
            << ","
            << "\"network_pct\":" << Table::num(r.energy.networkPct())
            << ","
            << "\"energy_per_edge_j\":"
            << Table::num(row.energyPerEdgeJ) << ","
            << "\"speedup\":"
            << (row.hasBaseline ? Table::num(row.speedup) : "null")
            << ","
            << "\"parallel_efficiency\":"
            << (row.hasBaseline ? Table::num(row.parallelEff)
                                : "null")
            << ","
            << "\"is_baseline\":" << (row.isBaseline ? "true" : "false")
            << ","
            << "\"validated\":" << (r.validated ? "true" : "false")
            << "}\n";
    }
    return out.str();
}

} // namespace sweep
} // namespace dalorex

/**
 * @file
 * Aggregation of sweep results into paper-figure tables.
 *
 * Takes the cli::Report of every executed scenario point and derives
 * the columns the paper's figures are built from: speedup versus a
 * named baseline grid shape (within the scenario group that shares
 * every non-grid axis value), strong-scaling parallel efficiency, and
 * energy per processed edge. Rows render uniformly as an aligned text
 * table, RFC-4180 CSV, or JSON-lines — one flat object per row — for
 * `dalorex sweep` and the figure files under bench/figures/. The C++
 * bench drivers do not share this schema: they build their own tables
 * from each cell's cli::Report.
 */

#ifndef DALOREX_SWEEP_AGGREGATE_HH
#define DALOREX_SWEEP_AGGREGATE_HH

#include <string>
#include <vector>

#include "common/table.hh"
#include "sweep/plan.hh"

namespace dalorex
{
namespace sweep
{

/** One aggregated result row: the raw report plus derived columns. */
struct Row
{
    cli::Report report;
    /** baseline seconds / this row's seconds; 1.0 on the baseline. */
    double speedup = 1.0;
    /** speedup / (tiles / baseline tiles): strong-scaling efficiency. */
    double parallelEff = 1.0;
    /** Total joules / edges processed. */
    double energyPerEdgeJ = 0.0;
    /** False when the row's group has no baseline shape (skip mode):
     *  speedup/parallelEff render as "-" / null. */
    bool hasBaseline = true;
    bool isBaseline = false;
};

/** What to do when a scenario group lacks the baseline grid shape. */
enum class MissingBaseline
{
    error, //!< fail aggregation with a one-line diagnostic
    skip,  //!< leave the group's speedup columns empty
};

/** Outcome of aggregation: derived rows, or a diagnostic. */
struct AggregateResult
{
    std::vector<Row> rows; //!< input order preserved
    bool ok = true;
    std::string error; //!< one line, set when !ok
};

/**
 * Derive speedup/efficiency/energy columns. Rows group by every
 * scenario axis except the grid shape; the group's baseline is its
 * first row whose machine is `baseline`.
 */
AggregateResult
aggregate(const std::vector<cli::Report>& reports,
          const GridShape& baseline,
          MissingBaseline missing = MissingBaseline::error);

/** Render rows with the standard sweep schema (shared by toCsv). */
Table toTable(const std::vector<Row>& rows);

/** Render rows as JSON-lines: one flat JSON object per row. */
std::string toJsonl(const std::vector<Row>& rows);

} // namespace sweep
} // namespace dalorex

#endif // DALOREX_SWEEP_AGGREGATE_HH

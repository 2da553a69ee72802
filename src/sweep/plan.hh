/**
 * @file
 * Declarative scenario grids for the sweep orchestrator.
 *
 * A Plan names one value set per scenario axis (kernels, datasets,
 * machine shapes, topology/policy/barrier knobs); expansion takes the
 * cartesian product into concrete cli::Options, one per point, in a
 * deterministic kernel-major order. All user errors — an empty axis,
 * an unknown dataset name, a speedup baseline that is not on the grid
 * axis, a point cli::finishScenario() refuses — surface as a one-line
 * diagnostic at expansion time, before any worker thread runs, so the
 * parallel phase only ever sees pre-validated scenarios.
 */

#ifndef DALOREX_SWEEP_PLAN_HH
#define DALOREX_SWEEP_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cli/cli.hh"

namespace dalorex
{
namespace sweep
{

/** One machine shape on the grid axis ("8x8"). */
struct GridShape
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;

    std::uint32_t tiles() const { return width * height; }
    bool
    operator==(const GridShape& other) const
    {
        return width == other.width && height == other.height;
    }
};

/** Parse "WxH" (e.g. "16x16"); false on malformed text. */
bool parseGridShape(const std::string& text, GridShape& out);

/** Render a shape back as "WxH". */
std::string toString(const GridShape& shape);

/** One dataset axis point: a named dataset or an RMAT scale. */
struct DatasetSpec
{
    /** Named dataset ("amazon", "rmat14", ...); empty = RMAT at
     *  `scale`. */
    std::string name;
    /** Vertex scale override for named stand-ins (0 = native size);
     *  the RMAT scale when `name` is empty. */
    unsigned scale = 0;

    bool
    operator==(const DatasetSpec& other) const
    {
        return name == other.name && scale == other.scale;
    }
};

/**
 * A declarative scenario grid. Every axis must be non-empty at
 * expansion time; each axis is deduplicated order-preservingly, so
 * repeated points collapse instead of re-running.
 */
struct Plan
{
    /** Registry handles; `allKernels()` enumerates every registered
     *  kernel (the `--kernel all` axis). */
    std::vector<const KernelInfo*> kernels;
    std::vector<DatasetSpec> datasets;
    std::vector<GridShape> grids;
    std::vector<NocTopology> topologies{NocTopology::torus};
    std::vector<SchedPolicy> policies{SchedPolicy::trafficAware};
    std::vector<Distribution> distributions{Distribution::lowOrder};
    std::vector<bool> barriers{false};
    /**
     * Engine worker threads per point (`--engine-threads N,...`). An
     * axis like any other so scaling studies can sweep it — but stats
     * are byte-identical across its values by engine contract; only
     * wall-clock changes.
     */
    std::vector<unsigned> engineThreads{1};

    /**
     * Every other knob, copied into each point before the axes above
     * set theirs (kernel, dataset and its scale, width, height,
     * topology, policy, distribution, barrier, engine threads). Each
     * point then goes through cli::finishScenario().
     */
    cli::Options base;

    /**
     * Grid shape of the speedup baseline row within each scenario
     * group; {0, 0} means the first shape on the grid axis.
     */
    GridShape baseline{};
};

/** Outcome of expanding a Plan: scenario points, or a diagnostic. */
struct ExpandResult
{
    std::vector<cli::Options> points; //!< kernel-major order
    GridShape baseline{};             //!< resolved baseline shape
    bool ok = true;
    std::string error; //!< one line, set when !ok
    /** Distinct finishScenario() notes (engine-thread clamps). */
    std::vector<std::string> notes;
};

/**
 * Validate `plan` and expand it into concrete scenario options.
 * Never crashes on malformed plans: empty axes, out-of-range shapes,
 * unknown dataset names, a baseline missing from the grid axis and
 * points the machine cannot build all yield ok == false with a
 * one-line error.
 */
ExpandResult expand(const Plan& plan);

} // namespace sweep
} // namespace dalorex

#endif // DALOREX_SWEEP_PLAN_HH

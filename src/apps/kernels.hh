/**
 * @file
 * Kernel setup: adapts a base dataset for a registered kernel, driven
 * entirely by the kernel's declared traits (weights for SSSP/SPMV,
 * symmetrization for WCC/k-core, an input vector for SPMV), owns the
 * adapted graph, builds the App through the kernel's factory, and
 * checks runs against the kernel's sequential reference.
 *
 * No per-kernel code lives here: kernels describe themselves via
 * KernelInfo (apps/registry.hh) and this module interprets the
 * description, so new kernels need no edits in this file.
 */

#ifndef DALOREX_APPS_KERNELS_HH
#define DALOREX_APPS_KERNELS_HH

#include <memory>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "graph/csr.hh"
#include "sim/app.hh"

namespace dalorex
{

class GraphAppBase;
class Machine;

/** A kernel instance bound to its adapted dataset. */
struct KernelSetup
{
    const KernelInfo* kernel = nullptr;
    Csr graph;           //!< adapted copy (weights/symmetrized)
    std::vector<Word> x; //!< SPMV input vector (else empty)
    VertexId root = 0;   //!< BFS/SSSP source
    double damping = 0.85;    //!< from kernel->defaults
    unsigned iterations = 10; //!< synchronous epochs (PageRank)
    double epsilon = 0.0;     //!< convergence threshold (0 = off)

    /** Whether the result validates as floats (kernel trait). */
    bool
    floatResult() const
    {
        return kernel->traits.hasFloatResult;
    }

    /** Build the App; the returned app references this->graph. */
    std::unique_ptr<GraphAppBase> makeApp() const;

    /** Sequential reference for integer-valued kernels. */
    std::vector<Word> referenceWords() const;
    /** Sequential reference for float-valued kernels. */
    std::vector<double> referenceFloats() const;
};

/**
 * Adapt `base` for `kernel` per its declared traits:
 *  - traits.symmetrize: undirected view (WCC, k-core);
 *  - traits.needsWeights: + uniform random weights in
 *    [weightMin, weightMax] (SSSP, SPMV);
 *  - traits.needsInputVector: + x in [0, 255] (SPMV);
 *  - traits.needsRoot: root = first vertex with out-degree > 0;
 *  - defaults: damping/iterations copied from kernel->defaults.
 */
KernelSetup makeKernelSetup(const KernelInfo& kernel, const Csr& base,
                            std::uint64_t seed = 7);

/** Same, looking the kernel up by name/alias (fatal() on unknown). */
KernelSetup makeKernelSetup(const std::string& kernel, const Csr& base,
                            std::uint64_t seed = 7);

/** First vertex with out-degree > 0 (deterministic search root). */
VertexId pickRoot(const Csr& graph);

/**
 * Parse a `--param` value ("damping=0.9,iterations=20") into
 * overrides. Unknown keys, malformed numbers and out-of-range values
 * (damping in (0, 1), iterations in [1, 1000]) yield false with a
 * one-line diagnostic — the key set is validated here, once, instead
 * of per scenario point.
 */
bool parseParamOverrides(const std::string& text,
                         std::vector<ParamOverride>& out,
                         std::string& err);

/**
 * Apply overrides to a setup per its kernel's KernelDefaults: keys
 * the kernel declares unused are skipped, so one override list can
 * span every kernel of a sweep (PageRank takes damping/iterations,
 * BFS takes neither).
 */
void applyParamOverrides(KernelSetup& setup,
                         const std::vector<ParamOverride>& params);

/**
 * Check a finished run's per-vertex words against the setup's
 * sequential reference (the kernel's validator; exact equality by
 * default). Returns the mismatch as data instead of fatal()ing, so a
 * failed scenario fails its own sweep row, not the whole process.
 */
ValidationResult validateWords(const KernelSetup& setup,
                               const std::vector<Word>& got);

/** Same for float-valued kernels (1e-3 relative tolerance default). */
ValidationResult validateFloats(const KernelSetup& setup,
                                const std::vector<double>& got);

/**
 * The default float comparison with an extra absolute `slack` added
 * to every per-vertex tolerance — for kernels whose engine and
 * reference may legitimately diverge by a bounded amount (PageRank's
 * convergence-threshold mode stops within O(epsilon) of the
 * reference). slack == 0 is exactly the default validator.
 */
ValidationResult validateFloatsWithSlack(const KernelSetup& setup,
                                         const std::vector<double>& got,
                                         double slack);

/**
 * Gather the app's result from `machine` (words or floats per the
 * kernel's trait) and validate it. Shared by cli::runScenario (the
 * run path of the CLI, sweep, serve and the benches) and the tests.
 */
ValidationResult validateRun(const KernelSetup& setup,
                             GraphAppBase& app, Machine& machine);

} // namespace dalorex

#endif // DALOREX_APPS_KERNELS_HH

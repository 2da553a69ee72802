/**
 * @file
 * Shared plumbing for the figure-reproduction benches: option parsing,
 * the Fig. 5 ablation ladder, dataset sets at quick/full scale, and
 * validated run helpers for both the Dalorex engine and the Tesseract
 * baseline.
 */

#ifndef DALOREX_BENCH_BENCH_UTIL_HH
#define DALOREX_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "apps/kernels.hh"
#include "baseline/tesseract.hh"
#include "common/table.hh"
#include "energy/model.hh"
#include "graph/datasets.hh"
#include "sim/machine.hh"
#include "sweep/aggregate.hh"

namespace dalorex
{
namespace bench
{

/** Command-line options shared by every bench. */
struct BenchOptions
{
    /** Paper-scale stand-ins (slower); default is quick scale. */
    bool full = false;
    /** Directory for CSV mirrors of each printed table ("" = off). */
    std::string csvDir;
    /** Dataset/weight seed. */
    std::uint64_t seed = 1;

    /** Parse argv; a bad flag or value prints one line, prefixed with
     *  the program name, and exits 2, as `dalorex` does. */
    static BenchOptions parse(int argc, char** argv);
};

/** The Fig. 5 ablation ladder, left to right. */
enum class AblationStep
{
    tesseract,    //!< HMC baseline
    tesseractLc,  //!< + large SRAM caches, no DRAM background
    dataLocal,    //!< Dalorex chunking, interrupting invocations
    basicTsu,     //!< + non-interrupting TSU, round-robin
    uniformDistr, //!< + low-order vertex placement
    trafficAware, //!< + occupancy-based scheduling
    torusNoc,     //!< + torus instead of mesh
    dalorexFull,  //!< + barrierless frontiers
};

const char* toString(AblationStep step);

/** The six Dalorex-engine steps (tesseract* run on the baseline). */
std::vector<AblationStep> dalorexSteps();

/** MachineConfig realizing one Dalorex ablation step. */
MachineConfig ablationConfig(AblationStep step, std::uint32_t width,
                             std::uint32_t height);

/** One validated Dalorex run with derived energy. */
struct DalorexRun
{
    RunStats stats;
    EnergyBreakdown energy;
    double seconds = 0.0;
    double joules = 0.0;
};

/**
 * Run `setup` on a machine with `config`; validates the kernel output
 * against the sequential reference (fatal on mismatch).
 */
DalorexRun runDalorex(const KernelSetup& setup,
                      const MachineConfig& config);

/** One validated Tesseract-baseline run. */
struct BaselineRun
{
    baseline::TesseractResult result;
    double seconds = 0.0;
    double joules = 0.0;
};

/** Run `setup` on the Tesseract model (validated). */
BaselineRun runTesseractBaseline(const KernelSetup& setup,
                                 bool large_cache);

/**
 * The Fig. 5/8/9 dataset set: AZ, WK, LJ and the RMAT entry (the
 * paper's R22). Quick scale uses 2^14..2^15-vertex stand-ins; full
 * scale uses the 2^18 stand-ins (README "Modelling substitutions").
 */
std::vector<Dataset> figDatasets(const BenchOptions& opts);

} // namespace bench
} // namespace dalorex

#endif // DALOREX_BENCH_BENCH_UTIL_HH

/**
 * @file
 * Shared plumbing for the figure-reproduction benches: option parsing,
 * the Fig. 5 ablation ladder, the figure dataset set, and the one run
 * path every bench's Dalorex cells take: scenario points run in one
 * batch on the sweep pool, plus the validated Tesseract baseline.
 */

#ifndef DALOREX_BENCH_BENCH_UTIL_HH
#define DALOREX_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "apps/kernels.hh"
#include "cli/cli.hh"
#include "common/table.hh"
#include "sweep/plan.hh"

namespace dalorex
{
namespace bench
{

/** Command-line options shared by every bench. */
struct BenchOptions
{
    /** Program name, the prefix of every one-line error. */
    std::string program;
    /** Paper-scale stand-ins (slower); default is quick scale. */
    bool full = false;
    /** Directory for CSV mirrors of each printed table ("" = off). */
    std::string csvDir;
    /** Dataset/weight seed. */
    std::uint64_t seed = 1;

    /** Parse argv; a bad flag or value (an unwritable --csv DIR too)
     *  fails with exit code 2, as `dalorex` does. */
    static BenchOptions parse(int argc, char** argv);

    /** Write `table` as `csvDir/name.csv` when --csv was given. */
    void writeCsv(const Table& table, const std::string& name) const;

    /** Print `program: message` on stderr and exit with `code`. */
    [[noreturn]] void fail(const std::string& message, int code = 1) const;
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

/** A cell with the bench's seed on the 16x16 machine of a Dalorex
 *  ablation step; the bench sets its kernel, dataset and knobs. */
cli::Options ablationCell(const BenchOptions& opts,
                          AblationStep step = AblationStep::dalorexFull);

/** Run the cells, validated, in one batch on the sweep pool (one
 *  worker per host core); reports come back in cell order. A cell
 *  that fails fails the bench with one line. */
std::vector<cli::Report> runCells(const BenchOptions& opts,
                                  std::vector<cli::Options> cells);

/** What one run took. */
struct RunCost
{
    double seconds = 0.0;
    double joules = 0.0;
};

/** Run `setup` on the Tesseract model; a result that does not
 *  validate fails the bench with one line. */
RunCost runTesseractBaseline(const BenchOptions& opts,
                             const KernelSetup& setup, bool large_cache);

/** One dataset of the figure set: its table label and what to run. */
struct FigDataset
{
    std::string label;       //!< AZ, WK, LJ, R22s
    sweep::DatasetSpec spec; //!< name and stand-in scale
};

/**
 * The Fig. 5/8 dataset set: AZ, WK, LJ and the RMAT entry (the
 * paper's R22). Quick scale uses 2^14..2^15-vertex stand-ins; full
 * scale uses the 2^18 stand-ins (README "Modelling substitutions").
 */
std::vector<FigDataset> figDatasets(const BenchOptions& opts);

} // namespace bench
} // namespace dalorex

#endif // DALOREX_BENCH_BENCH_UTIL_HH

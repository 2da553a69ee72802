/**
 * @file
 * Tesseract baseline: HMC-based processing-in-memory graph system
 * (Ahn et al. [2]), modeled at epoch granularity as the Fig. 5
 * comparison point.
 *
 * Architecture modeled per the paper's Sec. IV-B configuration: 16
 * Hybrid Memory Cubes x 16 vaults, one in-order core per vault (256
 * cores total). Data is distributed vertex-based: each core owns a
 * contiguous vertex block plus its adjacency rows in its local DRAM
 * vault — the placement whose load imbalance Dalorex's chunking fixes.
 * Remote vertex updates are non-blocking remote function calls that
 * *interrupt* the receiving core, "incurring 50-cycle penalties"
 * (Sec. II-C). Every epoch ends with a global barrier.
 *
 * Timing model (a substitution for the authors' Zsim setup, README
 * "Modelling substitutions"): per epoch, each core's cycles are the
 * sum of its compute phase (vertex reads + edge streaming + message
 * issue) and its apply phase (interrupt + DRAM read-modify-write per
 * received call); inter-cube traffic serializes over the cube's SerDes
 * links; the epoch takes the maximum core time plus communication and
 * barrier costs. The Tesseract-LC variant gives each core an SRAM-speed 2MB
 * cache and removes DRAM background power (Fig. 5's Tesseract-LC bar).
 */

#ifndef DALOREX_BASELINE_TESSERACT_HH
#define DALOREX_BASELINE_TESSERACT_HH

#include <cstdint>
#include <vector>

#include "apps/kernels.hh"
#include "energy/tech.hh"
#include "graph/csr.hh"

namespace dalorex
{
namespace baseline
{

/** Tesseract machine configuration (defaults: the paper's setup). */
struct TesseractConfig
{
    std::uint32_t numCubes = 16;
    std::uint32_t vaultsPerCube = 16; //!< one core per vault
    /** Remote-call receive penalty (Sec. II-C: 50 cycles). */
    std::uint32_t interruptCycles = 50;
    /** Large-cache variant (Fig. 5 "Tesseract-LC"). */
    bool largeCache = false;

    // DRAM vault timing (cycles at 1 GHz) as seen by the blocking
    // in-order vault core. Random touches pay activate + precharge +
    // bus turnaround on a vault contended by incoming remote calls.
    std::uint32_t dramVertexReadCycles = 80; //!< random row touch
    std::uint32_t dramEdgeStreamCycles = 2;  //!< sequential stream
    std::uint32_t dramRmwCycles = 100;       //!< read-modify-write
    // Tesseract-LC timing (SRAM-cache speed).
    std::uint32_t cacheVertexReadCycles = 2;
    std::uint32_t cacheEdgeStreamCycles = 1;
    std::uint32_t cacheRmwCycles = 4;

    /** Remote-call message size in 32-bit words (addr + arg + fn). */
    std::uint32_t wordsPerCall = 3;
    /** Aggregate inter-cube SerDes bandwidth per cube (words/cycle). */
    double serdesWordsPerCycle = 4.0;
    /** Per-epoch barrier cost (cycles). */
    std::uint32_t barrierCycles = 128;

    std::uint32_t numCores() const { return numCubes * vaultsPerCube; }
};

/** Energy-relevant activity plus timing of one Tesseract run. */
struct TesseractResult
{
    Cycle cycles = 0;
    std::uint32_t epochs = 0;

    std::uint64_t dramAccesses = 0;  //!< word-granularity touches
    std::uint64_t cacheAccesses = 0; //!< LC variant accesses
    std::uint64_t serdesWords = 0;   //!< words crossing cube links
    std::uint64_t intraCubeWords = 0;
    std::uint64_t coreOps = 0;       //!< retired instructions
    std::uint64_t remoteCalls = 0;
    std::uint64_t edgesProcessed = 0;

    /** Kernel output for validation (BFS/SSSP/WCC/SPMV). */
    std::vector<Word> values;
    /** PageRank output for validation. */
    std::vector<double> floatValues;

    /** Per-core busy cycles (load-imbalance analysis). */
    std::vector<Cycle> coreBusyCycles;

    double energyJ(const TesseractConfig& config,
                   const TechParams& tech = {}) const;
};

/** Run one kernel setup on the Tesseract model. */
TesseractResult runTesseract(const KernelSetup& setup,
                             const TesseractConfig& config = {});

} // namespace baseline
} // namespace dalorex

#endif // DALOREX_BASELINE_TESSERACT_HH

/**
 * @file
 * Fundamental scalar types shared by every Dalorex subsystem.
 *
 * The paper models a 32-bit machine: flits, queue entries, memory words
 * and the PU ALU are all 32 bits wide ("A 32-bit Dalorex can process
 * graphs of up to 2^32 edges", Sec. III-E). All dataset indices therefore
 * fit in a Word.
 */

#ifndef DALOREX_COMMON_TYPES_HH
#define DALOREX_COMMON_TYPES_HH

#include <cstdint>

namespace dalorex
{

/** One machine word: the width of flits, queue entries and the PU ALU. */
using Word = std::uint32_t;

/** Simulation time in clock cycles (1 GHz in the paper's power model). */
using Cycle = std::uint64_t;

/** Linear tile identifier: y * gridWidth + x. */
using TileId = std::uint32_t;

/** Vertex identifier inside a graph (global index). */
using VertexId = std::uint32_t;

/** Edge identifier, i.e., a global index into the CSR edge arrays. */
using EdgeId = std::uint32_t;

/** Task identifier within a program (T1..T4 in Listing 1). */
using TaskId = std::uint8_t;

/** Logical network-channel identifier (CQ1, CQ2, ... in Listing 1). */
using ChannelId = std::uint8_t;

/** Number of bytes in one queue entry word / network flit. */
constexpr unsigned wordBytes = sizeof(Word);

/**
 * Why a Machine::run ended. Anything but `completed` means the run
 * unwound early through the cooperative RunControl path — the crew
 * exits at a cycle boundary with partial (but internally consistent)
 * stats instead of the process dying. `timeout` covers both the
 * wall-clock deadline and the hard cycle limit; `deadlock` is the
 * no-progress watchdog that used to panic.
 */
enum class RunStatus : std::uint8_t
{
    completed,
    timeout,
    cancelled,
    deadlock,
};

constexpr const char*
toString(RunStatus status)
{
    switch (status) {
    case RunStatus::timeout: return "timeout";
    case RunStatus::cancelled: return "cancelled";
    case RunStatus::deadlock: return "deadlock";
    case RunStatus::completed: break;
    }
    return "completed";
}

/** Sentinel for "no tile". */
constexpr TileId invalidTile = ~TileId(0);

/** Sentinel used by BFS/SSSP for unreached vertices. */
constexpr Word infDist = ~Word(0);

} // namespace dalorex

#endif // DALOREX_COMMON_TYPES_HH

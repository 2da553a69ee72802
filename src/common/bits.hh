/**
 * @file
 * Small bit-manipulation helpers used across the simulator.
 */

#ifndef DALOREX_COMMON_BITS_HH
#define DALOREX_COMMON_BITS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace dalorex
{

/** True iff x is a power of two (0 is not). */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)); requires x > 0. */
constexpr unsigned
log2Floor(std::uint64_t x)
{
    return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/** ceil(log2(x)); requires x > 0. log2Ceil(1) == 0. */
constexpr unsigned
log2Ceil(std::uint64_t x)
{
    return x <= 1 ? 0u : log2Floor(x - 1) + 1;
}

/** ceil(a / b) for positive integers. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Index (from bit 0) of the most significant set bit; requires x != 0. */
inline unsigned
searchMsb(std::uint32_t x)
{
    panic_if(x == 0, "searchMsb on zero word");
    return 31u - static_cast<unsigned>(std::countl_zero(x));
}

/** Set bit `bit` in `word` (Listing 1's mask_in_bit). */
constexpr std::uint32_t
maskInBit(std::uint32_t word, unsigned bit)
{
    return word | (std::uint32_t(1) << bit);
}

/** Clear bit `bit` in `word` (Listing 1's mask_out_bit). */
constexpr std::uint32_t
maskOutBit(std::uint32_t word, unsigned bit)
{
    return word & ~(std::uint32_t(1) << bit);
}

/**
 * Intrusive bitmap worklist: the membership structure of the
 * engine's active-set scheduling (one bit per tile/router of a
 * shard's range). Adding is an O(1) idempotent bit-set; sweeping
 * walks the set bits in ascending index order — the prefetch
 * pattern of a full scan, minus the inactive members.
 */

/** Queue index `i` on the worklist (idempotent). */
inline void
worklistAdd(std::vector<std::uint64_t>& mask, std::size_t i)
{
    mask[i >> 6] |= std::uint64_t(1) << (i & 63);
}

/** Whether index `i` is queued on the worklist. */
inline bool
worklistHas(const std::vector<std::uint64_t>& mask, std::size_t i)
{
    return (mask[i >> 6] >> (i & 63)) & 1;
}

/**
 * Visit every queued index in ascending order; `visit(i)` returns
 * whether the index stays queued (deferred removal). Words ahead of
 * the walk must not change mid-sweep — the engine guarantees this
 * because a member's visit never activates *other* members of the
 * same worklist (and cross-shard activity is staged to the serial
 * commit).
 */
template <typename VisitFn>
inline void
worklistSweep(std::vector<std::uint64_t>& mask, VisitFn&& visit)
{
    for (std::size_t w = 0; w < mask.size(); ++w) {
        std::uint64_t bits = mask[w];
        if (bits == 0)
            continue;
        std::uint64_t keep = bits;
        do {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            if (!visit((w << 6) + b))
                keep &= ~(std::uint64_t(1) << b);
        } while (bits != 0);
        mask[w] = keep;
    }
}

} // namespace dalorex

#endif // DALOREX_COMMON_BITS_HH

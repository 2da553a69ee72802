/**
 * @file
 * Statistics helpers: scalar summaries, geometric means, load-imbalance
 * metrics and simple histograms.
 *
 * Hot-path counters live as plain struct members in their owning
 * components (e.g., RunStats); this header provides the row type that
 * lists them for reports and the math used when reducing them.
 */

#ifndef DALOREX_COMMON_STATS_HH
#define DALOREX_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace dalorex
{

/**
 * One report counter of a stats struct `S`: its JSON key and either
 * the field that counts it or, for a derived value, the member
 * function that computes it. Each struct that owns report counters
 * lists them in report order (runCounters, nocCounters, ...), and the
 * report renderer, the serve payload parser, the NoC shard merge and
 * the determinism checks loop over those lists.
 */
template <typename S>
struct Counter
{
    const char* key;
    std::uint64_t S::*field = nullptr;
    double (S::*ratio)() const = nullptr;
};

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double>& xs);

/** Geometric mean; requires all values > 0. 0 for an empty vector. */
double geomean(const std::vector<double>& xs);

/** Population standard deviation. */
double stddev(const std::vector<double>& xs);

/**
 * Gini coefficient in [0, 1): 0 is perfect balance. Used to quantify
 * per-tile load imbalance of data distributions (Sec. III-A / V-A).
 */
double giniCoefficient(std::vector<double> xs);

/** max / mean: >= 1; the classic load-imbalance factor. */
double imbalanceFactor(const std::vector<double>& xs);

/**
 * Fixed-bin histogram over non-negative integers with a final overflow
 * bin; used for degree-distribution checks on generated graphs.
 */
class Histogram
{
  public:
    /** Bins [0, numBins); values >= numBins land in the overflow bin. */
    explicit Histogram(std::size_t num_bins);

    void add(std::uint64_t value);

    std::uint64_t binCount(std::size_t bin) const;
    std::uint64_t overflowCount() const { return overflow_; }
    std::uint64_t totalCount() const { return total_; }
    std::size_t numBins() const { return bins_.size(); }

    /** Smallest value v such that at least `fraction` of samples <= v. */
    std::uint64_t percentile(double fraction) const;

  private:
    std::vector<std::uint64_t> bins_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace dalorex

#endif // DALOREX_COMMON_STATS_HH

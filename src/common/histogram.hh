/**
 * @file
 * Histograms over positive values with power-of-two bucketing.
 *
 * Write intervals span seven decades (sub-millisecond to minutes), so
 * the analyses in Sections 4.1 and 6 bucket them logarithmically:
 * bucket i+1 holds samples in [2^i, 2^(i+1)) of the base unit, with
 * bucket 0 holding [0, 1). The histogram tracks both sample counts and
 * per-bucket weight (used to accumulate time-in-interval, where each
 * interval contributes its own length).
 */

#ifndef MEMCON_COMMON_HISTOGRAM_HH
#define MEMCON_COMMON_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace memcon
{

class LogHistogram
{
  public:
    /**
     * @param max_exponent highest power-of-two bucket kept distinct;
     *        larger samples land in the overflow bucket.
     */
    explicit LogHistogram(unsigned max_exponent = 40);

    /** Add a sample; its weight defaults to 1 (a pure count). */
    void add(double value, double weight = 1.0);

    /** Number of buckets including the [0,1) and overflow buckets. */
    std::size_t numBuckets() const { return counts.size(); }

    /** Lower edge of bucket i in the base unit. */
    double bucketLow(std::size_t i) const;

    /** Upper edge of bucket i (inf for the overflow bucket). */
    double bucketHigh(std::size_t i) const;

    /** Sample count in bucket i. */
    std::uint64_t count(std::size_t i) const { return counts[i]; }

    /** Accumulated weight in bucket i. */
    double weight(std::size_t i) const { return weights[i]; }

    /** Total sample count. */
    std::uint64_t totalCount() const { return total; }

    /** Total accumulated weight. */
    double totalWeight() const { return totalW; }

    /** Replace the buckets with counts of unit-weight samples, one
     * per bucket; the weights and totals follow from them. */
    void assign(std::vector<std::uint64_t> bucket_counts);

    /** Render "low count pct weight-pct" rows for inspection. */
    std::string format(const std::string &unit) const;

  private:
    std::size_t bucketFor(double value) const;

    unsigned maxExponent;
    std::vector<std::uint64_t> counts;
    std::vector<double> weights;
    std::uint64_t total = 0;
    double totalW = 0.0;
};

} // namespace memcon

#endif // MEMCON_COMMON_HISTOGRAM_HH

#include "common/histogram.hh"

#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace memcon
{

LogHistogram::LogHistogram(unsigned max_exponent)
    : maxExponent(max_exponent)
{
    // Bucket 0: [0, 1). Buckets 1..maxExponent+1: [2^(i-1), 2^i).
    // Last bucket: overflow [2^maxExponent, inf).
    counts.assign(maxExponent + 2, 0);
    weights.assign(maxExponent + 2, 0.0);
}

std::size_t
LogHistogram::bucketFor(double value) const
{
    panic_if(value < 0.0, "histogram samples must be non-negative");
    if (value < 1.0)
        return 0;
    unsigned e = static_cast<unsigned>(std::floor(std::log2(value)));
    if (e >= maxExponent)
        return counts.size() - 1;
    return e + 1;
}

void
LogHistogram::add(double value, double weight_value)
{
    std::size_t b = bucketFor(value);
    counts[b] += 1;
    weights[b] += weight_value;
    total += 1;
    totalW += weight_value;
}

void
LogHistogram::assign(std::vector<std::uint64_t> bucket_counts)
{
    counts = std::move(bucket_counts);
    weights.assign(counts.begin(), counts.end());
    total = std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    totalW = static_cast<double>(total);
}

double
LogHistogram::bucketLow(std::size_t i) const
{
    if (i == 0)
        return 0.0;
    return std::pow(2.0, static_cast<double>(i - 1));
}

double
LogHistogram::bucketHigh(std::size_t i) const
{
    if (i + 1 == counts.size())
        return std::numeric_limits<double>::infinity();
    return std::pow(2.0, static_cast<double>(i));
}

std::string
LogHistogram::format(const std::string &unit) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        double pct = total ? 100.0 * static_cast<double>(counts[i]) /
                                  static_cast<double>(total)
                           : 0.0;
        double wpct = totalW > 0.0 ? 100.0 * weights[i] / totalW : 0.0;
        os << strprintf(">=%12.0f %-4s  n=%10llu  %6.3f%%  w=%6.3f%%\n",
                        bucketLow(i), unit.c_str(),
                        static_cast<unsigned long long>(counts[i]), pct,
                        wpct);
    }
    return os.str();
}

} // namespace memcon

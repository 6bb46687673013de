// Descriptive statistics over samples.
#ifndef SSPLANE_UTIL_STATS_H
#define SSPLANE_UTIL_STATS_H

#include <cstddef>
#include <span>
#include <vector>

namespace ssplane {

/// Arithmetic mean; 0 for an empty sample.
double mean(std::span<const double> xs) noexcept;

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
double stddev(std::span<const double> xs) noexcept;

/// Smallest element; 0 for an empty sample.
double min_value(std::span<const double> xs) noexcept;

/// Largest element; 0 for an empty sample.
double max_value(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100]. Copies and sorts.
double percentile(std::span<const double> xs, double p);

/// Linear-interpolated percentile over an already ascending-sorted sample —
/// callers that need several percentiles of one sample sort once and avoid
/// the per-call copy+sort of `percentile`. p in [0, 100]; 0 for empty input.
double percentile_sorted(std::span<const double> sorted, double p);

/// Median (50th percentile).
double median(std::span<const double> xs);

/// Pearson correlation coefficient of two equal-length samples. Requires
/// xs.size() == ys.size(); 0 when fewer than 2 samples or when either
/// sample is constant (no variance to correlate against).
double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

/// Evenly spaced values from lo to hi inclusive; n >= 2.
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Logarithmically spaced values from lo to hi inclusive; lo, hi > 0, n >= 2.
std::vector<double> logspace(double lo, double hi, std::size_t n);

} // namespace ssplane

#endif // SSPLANE_UTIL_STATS_H

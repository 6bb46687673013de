#include "util/stats.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "util/expects.h"

namespace ssplane {
namespace {

TEST(Stats, MeanAndStddev)
{
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(mean(xs), 5.0, 1e-12);
    EXPECT_NEAR(stddev(xs), 2.138089935299395, 1e-9);
}

TEST(Stats, EmptySamplesAreZero)
{
    const std::vector<double> empty;
    EXPECT_EQ(mean(empty), 0.0);
    EXPECT_EQ(stddev(empty), 0.0);
    EXPECT_EQ(min_value(empty), 0.0);
    EXPECT_EQ(max_value(empty), 0.0);
    EXPECT_EQ(median(empty), 0.0);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_NEAR(percentile(xs, 0.0), 1.0, 1e-12);
    EXPECT_NEAR(percentile(xs, 100.0), 4.0, 1e-12);
    EXPECT_NEAR(percentile(xs, 50.0), 2.5, 1e-12);
    EXPECT_NEAR(percentile(xs, 25.0), 1.75, 1e-12);
}

TEST(Stats, PercentileRejectsBadP)
{
    const std::vector<double> xs{1.0};
    EXPECT_THROW(percentile(xs, -1.0), contract_violation);
    EXPECT_THROW(percentile(xs, 101.0), contract_violation);
}

TEST(Stats, MedianUnsortedInput)
{
    const std::vector<double> xs{9.0, 1.0, 5.0};
    EXPECT_NEAR(median(xs), 5.0, 1e-12);
}

TEST(Stats, LinspaceEndpointsAndSpacing)
{
    const auto xs = linspace(0.0, 10.0, 11);
    ASSERT_EQ(xs.size(), 11u);
    EXPECT_EQ(xs.front(), 0.0);
    EXPECT_EQ(xs.back(), 10.0);
    for (std::size_t i = 1; i < xs.size(); ++i)
        EXPECT_NEAR(xs[i] - xs[i - 1], 1.0, 1e-12);
}

TEST(Stats, LogspaceEndpointsAndRatio)
{
    const auto xs = logspace(1.0, 1000.0, 4);
    ASSERT_EQ(xs.size(), 4u);
    EXPECT_NEAR(xs[0], 1.0, 1e-9);
    EXPECT_NEAR(xs[1], 10.0, 1e-9);
    EXPECT_NEAR(xs[2], 100.0, 1e-9);
    EXPECT_NEAR(xs[3], 1000.0, 1e-9);
}

TEST(Stats, LinspaceLogspaceValidation)
{
    EXPECT_THROW(linspace(0.0, 1.0, 1), contract_violation);
    EXPECT_THROW(logspace(0.0, 1.0, 3), contract_violation);
    EXPECT_THROW(logspace(1.0, -1.0, 3), contract_violation);
}

TEST(Stats, PercentileSortedMatchesPercentile)
{
    const std::vector<double> unsorted = {9.0, 1.0, 5.0, 3.0, 7.0, 2.0};
    std::vector<double> sorted = unsorted;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 95.0, 100.0})
        EXPECT_DOUBLE_EQ(percentile_sorted(sorted, p), percentile(unsorted, p));
}

TEST(Stats, PercentileSortedEdgeCases)
{
    EXPECT_EQ(percentile_sorted({}, 50.0), 0.0);
    const std::vector<double> one = {4.0};
    EXPECT_EQ(percentile_sorted(one, 95.0), 4.0);
    const std::vector<double> two = {1.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile_sorted(two, 50.0), 2.0);
    EXPECT_THROW(percentile_sorted(two, -1.0), contract_violation);
    EXPECT_THROW(percentile_sorted(two, 101.0), contract_violation);
}

TEST(Stats, PearsonCorrelation)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> up{2.0, 4.0, 6.0, 8.0, 10.0};
    const std::vector<double> down{5.0, 4.0, 3.0, 2.0, 1.0};
    EXPECT_NEAR(pearson_correlation(xs, up), 1.0, 1e-12);
    EXPECT_NEAR(pearson_correlation(xs, down), -1.0, 1e-12);
    // Hand-computed partial correlation.
    const std::vector<double> ys{1.0, 3.0, 2.0, 5.0, 4.0};
    EXPECT_NEAR(pearson_correlation(xs, ys), 0.8, 1e-12);
    // Degenerate samples report 0, not NaN.
    const std::vector<double> flat{3.0, 3.0, 3.0, 3.0, 3.0};
    EXPECT_DOUBLE_EQ(pearson_correlation(xs, flat), 0.0);
    EXPECT_DOUBLE_EQ(pearson_correlation({}, {}), 0.0);
    const std::vector<double> one{1.0};
    EXPECT_DOUBLE_EQ(pearson_correlation(one, one), 0.0);
    EXPECT_THROW(pearson_correlation(xs, one), contract_violation);
}

} // namespace
} // namespace ssplane

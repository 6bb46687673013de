#include "lsn/failures.h"

#include <gtest/gtest.h>

#include "util/expects.h"

namespace ssplane::lsn {
namespace {

TEST(Failures, RateScalesWithFluence)
{
    const double base = annual_failure_rate(7.0e9);
    EXPECT_DOUBLE_EQ(base, 0.03);
    // Linear exponent: doubling the fluence doubles the rate.
    EXPECT_NEAR(annual_failure_rate(2.0 * 7.0e9), 2.0 * base, 1e-12);
    EXPECT_EQ(annual_failure_rate(0.0), 0.0);
}

TEST(Failures, AvailabilityImprovesWithSpares)
{
    const double rate = 0.3; // harsh environment to make the effect visible
    double prev = 0.0;
    for (int spares : {0, 2, 6}) {
        const auto r = simulate_plane_availability(20, spares, rate, 42, 128);
        EXPECT_GE(r.availability, prev - 0.005);
        EXPECT_GE(r.availability, 0.0);
        EXPECT_LE(r.availability, 1.0);
        prev = r.availability;
    }
}

TEST(Failures, ZeroRateGivesPerfectAvailability)
{
    const auto r = simulate_plane_availability(10, 0, 0.0, 1, 16);
    EXPECT_DOUBLE_EQ(r.availability, 1.0);
    EXPECT_DOUBLE_EQ(r.expected_failures_per_plane, 0.0);
}

TEST(Failures, ExpectedFailuresMatchPoisson)
{
    const double rate = 0.1;
    const int slots = 20;
    const auto r = simulate_plane_availability(slots, 100, rate, 7, 512);
    // Expectation: slots * rate * 5-year mission = 10 failures per plane.
    EXPECT_NEAR(r.expected_failures_per_plane, 10.0, 1.0);
}

TEST(Failures, DowntimePerFailureIsTheSpareDriftOrTheLaunchLead)
{
    // A failure with a spare on orbit costs the 3-day drift; with no spare
    // it costs the 60-day launch lead. Failures near the end of the 5-year
    // mission are cut short, so the mean sits just under each bound.
    const double mission_days = 5.0 * 365.25;
    const int slots = 20;
    const auto mean_downtime_days = [&](const sparing_result& r) {
        return (1.0 - r.availability) * mission_days * slots /
               r.expected_failures_per_plane;
    };
    const auto spared = simulate_plane_availability(slots, 100, 0.1, 7, 256);
    EXPECT_LE(mean_downtime_days(spared), 3.0 + 1e-9);
    EXPECT_GE(mean_downtime_days(spared), 2.9);
    const auto bare = simulate_plane_availability(slots, 0, 0.1, 7, 256);
    EXPECT_LE(mean_downtime_days(bare), 60.0 + 1e-9);
    EXPECT_GE(mean_downtime_days(bare), 57.0);
}

TEST(Failures, DeterministicInSeed)
{
    const auto a = simulate_plane_availability(12, 2, 0.2, 99, 64);
    const auto b = simulate_plane_availability(12, 2, 0.2, 99, 64);
    EXPECT_DOUBLE_EQ(a.availability, b.availability);
    EXPECT_DOUBLE_EQ(a.expected_failures_per_plane, b.expected_failures_per_plane);
}

TEST(Failures, SparesForAvailabilityMeetsTarget)
{
    // (Each failure costs >= the 3-day spare drift of slot downtime, so the
    // achievable ceiling at this rate is ~0.998.)
    const auto r = spares_for_availability(20, 0.25, 0.995, 5, 128);
    EXPECT_GE(r.availability, 0.995);
    EXPECT_GE(r.spares, 1);
    // A higher target needs at least as many spares.
    const auto relaxed = spares_for_availability(20, 0.25, 0.98, 5, 128);
    EXPECT_LE(relaxed.spares, r.spares);
}

TEST(Failures, TargetMetFlagOnReachableTarget)
{
    const auto r = spares_for_availability(20, 0.25, 0.995, 5, 128);
    EXPECT_TRUE(r.target_met);
    EXPECT_GE(r.availability, 0.995);
}

TEST(Failures, UnreachableTargetIsNotMasqueradedAsSuccess)
{
    // At 20 failures/slot/year every failure costs >= the 3-day spare drift of
    // downtime no matter how many spares are on orbit, so 0.999 cannot be
    // reached and the search must say so instead of returning the 32-spare
    // result as if it succeeded.
    const auto r = spares_for_availability(10, 20.0, 0.999, 5, 32);
    EXPECT_FALSE(r.target_met);
    EXPECT_EQ(r.spares, 32);
    EXPECT_LT(r.availability, 0.999);
}

TEST(Failures, SimulateAloneLeavesTargetMetUnset)
{
    const auto r = simulate_plane_availability(10, 2, 0.1, 1, 32);
    EXPECT_FALSE(r.target_met);
}

TEST(Failures, HigherRateNeedsMoreSpares)
{
    const auto low = spares_for_availability(20, 0.05, 0.999, 11, 128);
    const auto high = spares_for_availability(20, 0.5, 0.999, 11, 128);
    EXPECT_LE(low.spares, high.spares);
}

TEST(Failures, Validation)
{
    EXPECT_THROW(simulate_plane_availability(0, 1, 0.1, 1), contract_violation);
    EXPECT_THROW(simulate_plane_availability(5, -1, 0.1, 1), contract_violation);
    EXPECT_THROW(simulate_plane_availability(5, 1, -0.1, 1), contract_violation);
    EXPECT_THROW(spares_for_availability(5, 0.1, 1.5, 1), contract_violation);
}

} // namespace
} // namespace ssplane::lsn

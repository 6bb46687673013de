#include "core/walker_baseline.h"

#include <chrono>
#include <cmath>

#include <gtest/gtest.h>

#include "util/angles.h"

namespace ssplane::core {
namespace {

const demand::population_model& shared_population()
{
    static const demand::population_model model;
    return model;
}

design_problem coarse_problem(double multiplier, double altitude_m = 560.0e3)
{
    demand::demand_options opts;
    opts.lat_cell_deg = 2.0;
    opts.tod_cell_h = 1.0;
    const demand::demand_model model(shared_population(), opts);
    return make_design_problem(model, multiplier, altitude_m);
}

wd_baseline_options fast_options()
{
    wd_baseline_options o;
    o.grid_spacing_deg = 8.0;
    o.n_time_steps = 24;
    return o;
}

TEST(WalkerBaseline, StrictModeUsesCeilPeakShells)
{
    walker_baseline_designer designer(fast_options());
    const auto result = designer.design(coarse_problem(4.0));
    // Peak demand is 4 -> at least 4 shells; the fat latitude profile keeps
    // it exactly at ceil(peak) because shells cover all lower latitudes too.
    EXPECT_EQ(result.shells.size(), 4u);
    EXPECT_TRUE(result.satisfied);
    EXPECT_GT(result.total_satellites, 0);
}

TEST(WalkerBaseline, ShellCountGrowsWithDemand)
{
    walker_baseline_designer designer(fast_options());
    const auto small = designer.design(coarse_problem(2.0));
    const auto large = designer.design(coarse_problem(6.0));
    EXPECT_LT(small.shells.size(), large.shells.size());
    EXPECT_LT(small.total_satellites, large.total_satellites);
}

TEST(WalkerBaseline, ShellInclinationsDecreaseAcrossStack)
{
    walker_baseline_designer designer(fast_options());
    const auto result = designer.design(coarse_problem(6.0));
    ASSERT_GE(result.shells.size(), 2u);
    // Later shells target the residual high-demand (lower) latitudes.
    const double first = result.shells.front().parameters.inclination_rad;
    const double last = result.shells.back().parameters.inclination_rad;
    EXPECT_GE(first, last);
}

TEST(WalkerBaseline, ShellAltitudesAlternateAroundBase)
{
    walker_baseline_designer designer(fast_options());
    const auto result = designer.design(coarse_problem(4.0));
    ASSERT_GE(result.shells.size(), 2u);
    const double base = 560.0e3;
    EXPECT_GT(result.shells[0].altitude_m, base);
    EXPECT_LT(result.shells[1].altitude_m, base);
    for (const auto& shell : result.shells) {
        EXPECT_NEAR(shell.altitude_m, base, 50.0e3);
        EXPECT_DOUBLE_EQ(shell.altitude_m, shell.parameters.altitude_m);
    }
}

TEST(WalkerBaseline, SizingCacheMakesRepeatDesignFast)
{
    walker_baseline_designer designer(fast_options());
    const auto problem = coarse_problem(3.0);
    (void)designer.design(problem); // warm the cache

    const auto start = std::chrono::steady_clock::now();
    const auto result = designer.design(problem);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(result.satisfied);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              500);
}

TEST(WalkerBaseline, ReusedDesignerMatchesFreshDesigner)
{
    // The sizing memo must not serve a 560 km problem's shells to a
    // 1200 km one.
    const auto high = coarse_problem(3.0, 1200.0e3);
    walker_baseline_designer reused(fast_options());
    (void)reused.design(coarse_problem(3.0));
    const auto from_reused = reused.design(high);
    walker_baseline_designer fresh(fast_options());
    const auto from_fresh = fresh.design(high);

    ASSERT_EQ(from_reused.shells.size(), from_fresh.shells.size());
    for (std::size_t i = 0; i < from_fresh.shells.size(); ++i) {
        const auto& a = from_reused.shells[i].parameters;
        const auto& b = from_fresh.shells[i].parameters;
        EXPECT_EQ(from_reused.shells[i].altitude_m, from_fresh.shells[i].altitude_m);
        EXPECT_EQ(a.altitude_m, b.altitude_m);
        EXPECT_EQ(a.inclination_rad, b.inclination_rad);
        EXPECT_EQ(a.n_planes, b.n_planes);
        EXPECT_EQ(a.sats_per_plane, b.sats_per_plane);
        EXPECT_EQ(a.phasing_f, b.phasing_f);
        EXPECT_EQ(a.raan0_rad, b.raan0_rad);
        EXPECT_EQ(a.anomaly0_rad, b.anomaly0_rad);
    }
    EXPECT_EQ(from_reused.total_satellites, from_fresh.total_satellites);
    EXPECT_EQ(from_reused.satisfied, from_fresh.satisfied);
}

TEST(WalkerBaseline, OverlapCreditReducesShells)
{
    wd_baseline_options strict = fast_options();
    wd_baseline_options credit = fast_options();
    credit.credit_overlap_capacity = true;

    walker_baseline_designer strict_designer(strict);
    walker_baseline_designer credit_designer(credit);
    const auto problem = coarse_problem(8.0);
    const auto strict_result = strict_designer.design(problem);
    const auto credit_result = credit_designer.design(problem);
    EXPECT_LE(credit_result.shells.size(), strict_result.shells.size());
    EXPECT_LE(credit_result.total_satellites, strict_result.total_satellites);
    EXPECT_TRUE(credit_result.satisfied);
}

TEST(WalkerBaseline, MinInclinationFloorApplies)
{
    wd_baseline_options opts = fast_options();
    opts.min_inclination_deg = 40.0;
    walker_baseline_designer designer(opts);
    const auto result = designer.design(coarse_problem(3.0));
    for (const auto& shell : result.shells) {
        // Within one 2° sizing bucket of the floor.
        EXPECT_GE(rad2deg(shell.parameters.inclination_rad), 40.0 - 2.0);
    }
}

} // namespace
} // namespace ssplane::core

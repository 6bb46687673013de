#include "constellation/rgt.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::constellation {
namespace {

TEST(Rgt, FifteenToOneAltitude)
{
    const auto d = design_rgt(15, 1, deg2rad(65.0));
    ASSERT_TRUE(d.has_value());
    // J2-adjusted 15:1 at 65 degrees sits near 519 km (mean-radius altitude).
    EXPECT_NEAR(d->altitude_m / 1000.0, 518.7, 3.0);
    EXPECT_EQ(d->revolutions, 15);
    EXPECT_EQ(d->days, 1);
}

TEST(Rgt, ResonanceConditionHolds)
{
    for (const auto& [j, k] : std::vector<std::pair<int, int>>{
             {15, 1}, {14, 1}, {13, 1}, {29, 2}, {43, 3}}) {
        const auto d = design_rgt(j, k, deg2rad(65.0));
        ASSERT_TRUE(d.has_value()) << j << ":" << k;
        // j nodal periods == k nodal days to high relative accuracy.
        const double lhs = static_cast<double>(j) * d->nodal_period_s;
        const double rhs = static_cast<double>(k) * d->nodal_day_s;
        EXPECT_NEAR(lhs / rhs, 1.0, 1e-9) << j << ":" << k;
        EXPECT_NEAR(d->repeat_period_s, rhs, 1e-3);
    }
}

TEST(Rgt, AltitudeDecreasesWithMoreRevolutions)
{
    const auto d15 = design_rgt(15, 1, deg2rad(65.0));
    const auto d14 = design_rgt(14, 1, deg2rad(65.0));
    const auto d13 = design_rgt(13, 1, deg2rad(65.0));
    ASSERT_TRUE(d15 && d14 && d13);
    EXPECT_LT(d15->altitude_m, d14->altitude_m);
    EXPECT_LT(d14->altitude_m, d13->altitude_m);
}

TEST(Rgt, OutOfRangeReturnsNullopt)
{
    // 16:1 sits near 250 km -> outside [400, 2100] km.
    EXPECT_FALSE(design_rgt(16, 1, deg2rad(65.0), 400.0e3, 2100.0e3).has_value());
    // 10:1 sits above 2500 km.
    EXPECT_FALSE(design_rgt(10, 1, deg2rad(65.0), 400.0e3, 2100.0e3).has_value());
}

TEST(Rgt, EnumerationIsCoprimeAndSorted)
{
    const auto designs = enumerate_rgts(deg2rad(65.0), 400.0e3, 2100.0e3, 3);
    ASSERT_GT(designs.size(), 10u);
    for (std::size_t i = 0; i < designs.size(); ++i) {
        EXPECT_EQ(std::gcd(designs[i].revolutions, designs[i].days), 1);
        if (i > 0) {
            EXPECT_GE(designs[i].altitude_m, designs[i - 1].altitude_m);
        }
        EXPECT_GE(designs[i].altitude_m, 400.0e3);
        EXPECT_LE(designs[i].altitude_m, 2100.0e3);
    }
}

TEST(Rgt, ExactlyThreeNonUniformOneDayResonances)
{
    // Paper §2.2: "only three of the possible RGTs at LEO do not
    // automatically provide uniform global coverage" — the one-day
    // resonances 15:1, 14:1 and 13:1 at the default 30° minimum elevation.
    const auto designs = enumerate_rgts(deg2rad(65.0), 400.0e3, 2100.0e3, 3);
    int non_uniform = 0;
    for (const auto& d : designs) {
        const auto sizing = size_rgt_track_coverage(d);
        if (!sizing.gives_uniform_coverage) {
            ++non_uniform;
            EXPECT_EQ(d.days, 1);
            EXPECT_GE(d.revolutions, 13);
            EXPECT_LE(d.revolutions, 15);
        }
    }
    EXPECT_EQ(non_uniform, 3);
}

TEST(Rgt, ThirteenToOneSizingNearPaperValue)
{
    // Paper: covering the ~1215 km RGT takes >= 356 satellites.
    const auto d = design_rgt(13, 1, deg2rad(65.0));
    ASSERT_TRUE(d.has_value());
    const auto sizing = size_rgt_track_coverage(*d);
    EXPECT_GT(sizing.n_satellites, 300);
    EXPECT_LT(sizing.n_satellites, 480);
    EXPECT_FALSE(sizing.gives_uniform_coverage);
}

TEST(Rgt, TrackLengthScalesWithRevolutions)
{
    const auto d15 = design_rgt(15, 1, deg2rad(65.0));
    const auto d13 = design_rgt(13, 1, deg2rad(65.0));
    ASSERT_TRUE(d15 && d13);
    const auto s15 = size_rgt_track_coverage(*d15);
    const auto s13 = size_rgt_track_coverage(*d13);
    // ~2*pi per revolution, reduced slightly by Earth rotation.
    EXPECT_NEAR(s15.track_length_rad / (15.0 * two_pi), 0.97, 0.05);
    EXPECT_NEAR(s13.track_length_rad / (13.0 * two_pi), 0.97, 0.05);
}

TEST(Rgt, ServiceSwathRespectsCaps)
{
    const auto d = design_rgt(29, 2, deg2rad(65.0));
    ASSERT_TRUE(d.has_value());
    const auto sizing = size_rgt_track_coverage(*d);
    EXPECT_LE(sizing.service_half_width_rad,
              0.9 * sizing.footprint_half_angle_rad + 1e-12);
    EXPECT_LE(sizing.service_half_width_rad, sizing.pass_spacing_rad / 2.0 + 1e-12);
    EXPECT_GT(sizing.n_satellites, 0);
}

TEST(Rgt, Validation)
{
    EXPECT_THROW(design_rgt(0, 1, 1.0), contract_violation);
    EXPECT_THROW(design_rgt(15, 0, 1.0), contract_violation);
    EXPECT_THROW(enumerate_rgts(1.0, 400.0e3, 2000.0e3, 0), contract_violation);
}

} // namespace
} // namespace ssplane::constellation

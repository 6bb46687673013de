#include "astro/propagator.h"

#include "astro/frames.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/expects.h"

namespace ssplane::astro {
namespace {

TEST(Propagator, J2RatesSignsByInclination)
{
    // Prograde orbits regress (raan_rate < 0), retrograde precess (> 0),
    // polar orbits have zero nodal rate.
    const auto rates_at = [](double i_deg) {
        return compute_j2_rates(circular_orbit(560.0e3, deg2rad(i_deg), 0.0, 0.0));
    };
    EXPECT_LT(rates_at(53.0).raan_rate, 0.0);
    EXPECT_GT(rates_at(97.6).raan_rate, 0.0);
    EXPECT_NEAR(rates_at(90.0).raan_rate, 0.0, 1e-12);
}

TEST(Propagator, NodalRateMagnitudeMatchesTextbook)
{
    // Starlink-like shell: 550 km, 53 degrees -> nodal regression about
    // -4.5 degrees/day (first-order J2 theory).
    const auto rates = compute_j2_rates(circular_orbit(550.0e3, deg2rad(53.0), 0.0, 0.0));
    const double deg_per_day = rad2deg(rates.raan_rate) * seconds_per_day;
    EXPECT_NEAR(deg_per_day, -4.5, 0.2);
}

TEST(Propagator, SunSynchronousConditionAt560km)
{
    // At 97.604 degrees / 560 km the nodal precession matches the mean sun.
    const auto rates =
        compute_j2_rates(circular_orbit(560.0e3, deg2rad(97.604), 0.0, 0.0));
    EXPECT_NEAR(rates.raan_rate / sun_synchronous_node_rate_rad_s, 1.0, 1e-3);
}

TEST(Propagator, ApsidalRateVanishesAtCriticalInclination)
{
    // The critical inclination 63.43 degrees zeroes the perigee drift.
    const auto rates =
        compute_j2_rates(circular_orbit(800.0e3, deg2rad(63.4349), 0.0, 0.0));
    EXPECT_NEAR(rates.arg_perigee_rate, 0.0, 1e-10);
}

TEST(Propagator, ElementsAdvanceLinearly)
{
    const orbital_elements el = circular_orbit(700.0e3, deg2rad(60.0), 1.0, 0.5);
    const j2_propagator prop(el, instant::j2000());
    const double dt = 5000.0;
    const auto at = prop.elements_at(instant::j2000().plus_seconds(dt));
    // Julian-date storage quantizes epochs to ~50 us, bounding accuracy.
    EXPECT_NEAR(at.raan_rad, wrap_two_pi(1.0 + prop.rates().raan_rate * dt), 1e-7);
    EXPECT_NEAR(at.mean_anomaly_rad,
                wrap_two_pi(0.5 + prop.rates().mean_anomaly_rate * dt), 1e-7);
    // a, e, i are secular-invariant.
    EXPECT_EQ(at.semi_major_axis_m, el.semi_major_axis_m);
    EXPECT_EQ(at.eccentricity, el.eccentricity);
    EXPECT_EQ(at.inclination_rad, el.inclination_rad);
}

class AltitudeSweep : public ::testing::TestWithParam<double> {};

TEST_P(AltitudeSweep, RadiusStaysOnCircle)
{
    const double alt = GetParam();
    const j2_propagator prop(circular_orbit(alt, deg2rad(65.0), 0.3, 0.7),
                             instant::j2000());
    for (double dt = 0.0; dt < 7000.0; dt += 911.0) {
        const auto sv = prop.state_at(instant::j2000().plus_seconds(dt));
        EXPECT_NEAR(sv.position_m.norm(), earth_mean_radius_m + alt, 1.0);
    }
}

TEST_P(AltitudeSweep, NodalPeriodCloseToKeplerPeriod)
{
    const double alt = GetParam();
    const j2_propagator prop(circular_orbit(alt, deg2rad(65.0), 0.0, 0.0),
                             instant::j2000());
    const double kepler = orbital_period_s(semi_major_axis_for_altitude_m(alt));
    EXPECT_NEAR(prop.nodal_period_s() / kepler, 1.0, 3e-3);
}

INSTANTIATE_TEST_SUITE_P(Altitudes, AltitudeSweep,
                         ::testing::Values(400.0e3, 560.0e3, 800.0e3, 1200.0e3,
                                           2000.0e3));

TEST(Propagator, NodalDayNearSolarDayForSunSync)
{
    // For a sun-synchronous orbit the Earth rotates under the (precessing)
    // plane exactly once per *solar* day.
    const j2_propagator prop(circular_orbit(560.0e3, deg2rad(97.604), 0.0, 0.0),
                             instant::j2000());
    EXPECT_NEAR(prop.nodal_day_s(), seconds_per_day, 20.0);
}

TEST(Propagator, NodalDayNearSiderealDayForPolar)
{
    const j2_propagator prop(circular_orbit(560.0e3, deg2rad(90.0), 0.0, 0.0),
                             instant::j2000());
    EXPECT_NEAR(prop.nodal_day_s(), sidereal_day_s, 1.0);
}

TEST(Propagator, LatitudeBoundedByInclination)
{
    const double i_deg = 65.0;
    const j2_propagator prop(circular_orbit(560.0e3, deg2rad(i_deg), 2.0, 0.0),
                             instant::j2000());
    for (double dt = 0.0; dt < 2.0 * 5746.0; dt += 60.0) {
        const auto sv = prop.state_at(instant::j2000().plus_seconds(dt));
        const double lat = rad2deg(geocentric_latitude_rad(sv.position_m));
        EXPECT_LE(std::abs(lat), i_deg + 1e-6);
    }
}

TEST(Propagator, CircularOrbitValidation)
{
    EXPECT_THROW(circular_orbit(-100.0, 1.0, 0.0, 0.0), contract_violation);
}

double geocentric_latitude_rad_of(const state_vector& sv)
{
    return geocentric_latitude_rad(sv.position_m);
}

TEST(Propagator, AscendingNodeCrossingMovesNorth)
{
    const j2_propagator prop(circular_orbit(560.0e3, deg2rad(65.0), 0.0, 0.0),
                             instant::j2000());
    const auto before = prop.state_at(instant::j2000().plus_seconds(-30.0));
    const auto after = prop.state_at(instant::j2000().plus_seconds(30.0));
    EXPECT_LT(geocentric_latitude_rad_of(before), 0.0);
    EXPECT_GT(geocentric_latitude_rad_of(after), 0.0);
}

TEST(Propagator, BatchedStatesMatchPerCallStates)
{
    const j2_propagator prop(circular_orbit(560.0e3, deg2rad(97.6), 0.3, 0.1),
                             instant::j2000());
    const instant base = instant::j2000().plus_days(40.0);

    std::vector<double> offsets;
    for (int i = 0; i < 600; ++i) offsets.push_back(5.0 + 10.0 * i);
    std::vector<state_vector> batched(offsets.size());
    prop.states_at_offsets(base, offsets, batched);

    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const auto direct = prop.state_at(base.plus_seconds(offsets[i]));
        const double pos_scale = direct.position_m.norm();
        EXPECT_NEAR((batched[i].position_m - direct.position_m).norm(), 0.0,
                    1e-6 * pos_scale);
        const double vel_scale = direct.velocity_m_s.norm();
        EXPECT_NEAR((batched[i].velocity_m_s - direct.velocity_m_s).norm(), 0.0,
                    1e-6 * vel_scale);
    }
}

TEST(Propagator, BatchedStatesOutputSpanValidation)
{
    const j2_propagator prop(circular_orbit(560.0e3, deg2rad(65.0), 0.0, 0.0),
                             instant::j2000());
    const std::vector<double> offsets(10, 0.0);
    std::vector<state_vector> too_small(5);
    EXPECT_THROW(prop.states_at_offsets(instant::j2000(), offsets, too_small),
                 contract_violation);
}

} // namespace
} // namespace ssplane::astro

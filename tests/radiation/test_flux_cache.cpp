#include "radiation/flux_cache.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "astro/frames.h"
#include "radiation/solar_cycle.h"
#include "util/parallel.h"

namespace ssplane::radiation {
namespace {

const radiation_environment& shared_env()
{
    static const radiation_environment env;
    return env;
}

const astro::instant k_day = astro::instant::from_calendar(2014, 3, 15);

void expect_relative_near(double actual, double expected, double rel_tol)
{
    const double scale = std::max(std::abs(expected), 1e-30);
    EXPECT_NEAR(actual, expected, rel_tol * scale);
}

TEST(FluxComponents, CombineMatchesDirectFlux)
{
    const auto& env = shared_env();
    // Positions spanning SAA, horn bands, quiet low latitudes and the
    // below-cutoff degenerate case.
    const std::vector<astro::geodetic> points = {
        {-25.0, -50.0, 560.0e3}, {62.0, 60.0, 560.0e3},  {18.0, 60.0, 560.0e3},
        {-62.0, -120.0, 560.0e3}, {0.0, 0.0, 100.0e3},   {45.0, 170.0, 1200.0e3},
    };
    for (const auto& g : points) {
        const vec3 r = astro::geodetic_to_ecef(g);
        for (const double activity : {0.0, 0.4, 1.3}) {
            const particle_flux direct = env.flux(r, activity);
            const particle_flux cached = env.combine(env.components_at(r), activity);
            EXPECT_DOUBLE_EQ(cached.electrons_cm2_s_mev, direct.electrons_cm2_s_mev);
            EXPECT_DOUBLE_EQ(cached.protons_cm2_s_mev, direct.protons_cm2_s_mev);
        }
    }
}

TEST(FluxMapCache, FluxMapMatchesDirectEvaluation)
{
    const auto& env = shared_env();
    const double altitude_m = 560.0e3;
    const double cell_deg = 10.0;
    const flux_map_cache cache(env, altitude_m, cell_deg);
    const double activity = solar_activity(k_day);

    const flux_maps cached = cache.flux_map(activity);
    ASSERT_EQ(cached.electrons.n_lat(), 18u);
    ASSERT_EQ(cached.electrons.n_lon(), 36u);

    for (std::size_t r = 0; r < cached.electrons.n_lat(); ++r) {
        for (std::size_t c = 0; c < cached.electrons.n_lon(); ++c) {
            const astro::geodetic g{cached.electrons.latitude_center_deg(r),
                                    cached.electrons.longitude_center_deg(c),
                                    altitude_m};
            const particle_flux direct =
                env.flux(astro::geodetic_to_ecef(g), activity);
            expect_relative_near(cached.electrons.field()(r, c),
                                 direct.electrons_cm2_s_mev, 1e-6);
            expect_relative_near(cached.protons.field()(r, c),
                                 direct.protons_cm2_s_mev, 1e-6);
        }
    }
}

TEST(FluxMapCache, MaxElectronMapMatchesDirectDayLoop)
{
    const auto& env = shared_env();
    const double altitude_m = 560.0e3;
    const double cell_deg = 15.0;
    const auto days = sample_cycle24_days(16, 99);
    std::vector<double> activities;
    for (const auto& day : days) activities.push_back(solar_activity(day));

    const flux_map_cache cache(env, altitude_m, cell_deg);
    const geo::lat_lon_grid cached = cache.max_electron_map(activities);

    // Direct path: the seed implementation's per-day, per-cell max.
    geo::lat_lon_grid direct(cell_deg);
    for (const double activity : activities) {
        for (std::size_t r = 0; r < direct.n_lat(); ++r) {
            for (std::size_t c = 0; c < direct.n_lon(); ++c) {
                const astro::geodetic g{direct.latitude_center_deg(r),
                                        direct.longitude_center_deg(c), altitude_m};
                const particle_flux f =
                    env.flux(astro::geodetic_to_ecef(g), activity);
                if (f.electrons_cm2_s_mev > direct.field()(r, c))
                    direct.field()(r, c) = f.electrons_cm2_s_mev;
            }
        }
    }

    for (std::size_t r = 0; r < direct.n_lat(); ++r)
        for (std::size_t c = 0; c < direct.n_lon(); ++c)
            expect_relative_near(cached.field()(r, c), direct.field()(r, c), 1e-6);
}

TEST(FluxMapCache, ParallelBuildMatchesSerialBuild)
{
    const auto& env = shared_env();
    set_thread_count(1);
    const flux_map_cache serial(env, 560.0e3, 15.0);
    set_thread_count(4);
    const flux_map_cache parallel(env, 560.0e3, 15.0);
    set_thread_count(0);

    const auto a = serial.flux_map(0.7);
    const auto b = parallel.flux_map(0.7);
    for (std::size_t r = 0; r < a.electrons.n_lat(); ++r) {
        for (std::size_t c = 0; c < a.electrons.n_lon(); ++c) {
            EXPECT_DOUBLE_EQ(a.electrons.field()(r, c), b.electrons.field()(r, c));
            EXPECT_DOUBLE_EQ(a.protons.field()(r, c), b.protons.field()(r, c));
        }
    }
}

} // namespace
} // namespace ssplane::radiation

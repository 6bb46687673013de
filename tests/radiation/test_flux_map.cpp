#include "radiation/fluence.h"

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

TEST(FluxMap, AtAltitudeMatchesDirectEvaluation)
{
    const auto& env = shared_env();
    const double altitude_m = 560.0e3;
    const double activity = solar_activity(k_day);

    const flux_maps maps = flux_map_at_altitude(env, altitude_m, 10.0, k_day);
    ASSERT_EQ(maps.electrons.n_lat(), 18u);
    ASSERT_EQ(maps.electrons.n_lon(), 36u);

    for (std::size_t r = 0; r < maps.electrons.n_lat(); ++r) {
        for (std::size_t c = 0; c < maps.electrons.n_lon(); ++c) {
            const astro::geodetic g{maps.electrons.latitude_center_deg(r),
                                    maps.electrons.longitude_center_deg(c),
                                    altitude_m};
            const particle_flux direct =
                env.flux(astro::geodetic_to_ecef(g), activity);
            EXPECT_EQ(maps.electrons.field()(r, c), direct.electrons_cm2_s_mev);
            EXPECT_EQ(maps.protons.field()(r, c), direct.protons_cm2_s_mev);
        }
    }
}

TEST(FluxMap, MaxElectronMatchesDirectDayLoop)
{
    const auto& env = shared_env();
    const double altitude_m = 560.0e3;
    const double cell_deg = 15.0;
    const geo::lat_lon_grid max_map =
        max_electron_flux_map(env, altitude_m, cell_deg, 16, 99);

    // Direct path: a per-day, per-cell max of full model evaluations.
    geo::lat_lon_grid direct(cell_deg);
    for (const auto& day : sample_cycle24_days(16, 99)) {
        const double activity = solar_activity(day);
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
            EXPECT_EQ(max_map.field()(r, c), direct.field()(r, c));
}

TEST(FluxMap, IndependentOfThreadCount)
{
    const auto& env = shared_env();
    set_thread_count(1);
    const auto serial = flux_map_at_altitude(env, 560.0e3, 15.0, k_day);
    const auto serial_max = max_electron_flux_map(env, 560.0e3, 15.0, 16, 99);
    set_thread_count(4);
    const auto parallel = flux_map_at_altitude(env, 560.0e3, 15.0, k_day);
    const auto parallel_max = max_electron_flux_map(env, 560.0e3, 15.0, 16, 99);
    set_thread_count(0);

    for (std::size_t r = 0; r < serial.electrons.n_lat(); ++r) {
        for (std::size_t c = 0; c < serial.electrons.n_lon(); ++c) {
            EXPECT_EQ(serial.electrons.field()(r, c), parallel.electrons.field()(r, c));
            EXPECT_EQ(serial.protons.field()(r, c), parallel.protons.field()(r, c));
            EXPECT_EQ(serial_max.field()(r, c), parallel_max.field()(r, c));
        }
    }
}

} // namespace
} // namespace ssplane::radiation

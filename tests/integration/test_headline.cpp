// End-to-end integration tests asserting the paper's headline claims on a
// reduced-resolution pipeline (full resolution runs in the benches).
#include <gtest/gtest.h>

#include "constellation/rgt.h"
#include "core/evaluator.h"
#include "lsn/failures.h"
#include "util/angles.h"

namespace ssplane {
namespace {

const demand::population_model& shared_population()
{
    static const demand::population_model model;
    return model;
}

const demand::demand_model& coarse_model()
{
    static const demand::demand_model model = [] {
        demand::demand_options opts;
        opts.lat_cell_deg = 2.0;
        opts.tod_cell_h = 1.0;
        return demand::demand_model(shared_population(), opts);
    }();
    return model;
}

core::wd_baseline_options fast_wd_options()
{
    core::wd_baseline_options o;
    o.grid_spacing_deg = 8.0;
    o.n_time_steps = 24;
    return o;
}

TEST(Headline, SsPlaneDesignBeatsWalkerAcrossDemand)
{
    // Fig. 9 direction: SS needs fewer satellites at every multiplier, and
    // the advantage is largest when demand is low.
    core::walker_baseline_designer designer(fast_wd_options());
    double ratio_low = 0.0;
    for (double multiplier : {2.0, 8.0}) {
        const auto cmp = core::compare_designs(coarse_model(), multiplier, designer);
        ASSERT_TRUE(cmp.ss.satisfied);
        ASSERT_TRUE(cmp.wd.satisfied);
        EXPECT_LT(cmp.ss.total_satellites, cmp.wd.total_satellites)
            << "multiplier " << multiplier;
        if (multiplier == 2.0) {
            ratio_low = static_cast<double>(cmp.wd.total_satellites) /
                        cmp.ss.total_satellites;
        }
    }
    EXPECT_GT(ratio_low, 1.3);
}

TEST(Headline, SsDesignCutsRadiationDose)
{
    // Fig. 10 / abstract direction: lower median per-satellite dose for SS.
    core::walker_baseline_designer designer(fast_wd_options());
    const auto cmp = core::compare_designs(coarse_model(), 6.0, designer);
    const radiation::radiation_environment env;
    const auto day = astro::instant::from_calendar(2014, 3, 15);
    core::radiation_eval_options rad;
    rad.step_s = 60.0;
    rad.max_sampled_planes = 8;
    const auto ss = ss_constellation_radiation(cmp.ss, env, day, rad);
    const auto wd = wd_constellation_radiation(cmp.wd, env, day, rad);
    const double electron_reduction =
        1.0 - ss.median_electron_fluence / wd.median_electron_fluence;
    EXPECT_GT(electron_reduction, 0.03);
    EXPECT_LT(electron_reduction, 0.5);
    EXPECT_LT(ss.median_proton_fluence, wd.median_proton_fluence);
}

TEST(Headline, RgtIsNoSilverBullet)
{
    // §2.2: covering even one repeat ground track costs more than the
    // entire uniform-coverage Walker constellation at the same altitude.
    const auto rgt13 = constellation::design_rgt(13, 1, deg2rad(65.0));
    ASSERT_TRUE(rgt13.has_value());
    const auto sizing = constellation::size_rgt_track_coverage(*rgt13);

    constellation::coverage_check_options walker_check;
    walker_check.min_elevation_rad = deg2rad(30.0);
    walker_check.max_latitude_deg = 65.0;
    walker_check.grid_spacing_deg = 6.0;
    walker_check.n_time_steps = 32;
    const auto walker = constellation::size_walker_for_coverage(
        rgt13->altitude_m, deg2rad(65.0), walker_check);
    ASSERT_TRUE(walker.found);
    EXPECT_GT(sizing.n_satellites, walker.total);
}

TEST(Headline, LowerDoseNeedsFewerSpares)
{
    // §2.1/§5(2): the SS design's lower radiation dose translates into a
    // lighter sparing requirement at equal availability targets.
    const double wd_rate = lsn::annual_failure_rate(9.0e9);  // low-incl WD dose
    const double ss_rate = lsn::annual_failure_rate(6.9e9);  // SS dose
    EXPECT_GT(wd_rate, ss_rate);
    const auto wd_spares = lsn::spares_for_availability(25, wd_rate, 0.9995, 3, 256);
    const auto ss_spares = lsn::spares_for_availability(25, ss_rate, 0.9995, 3, 256);
    EXPECT_LE(ss_spares.spares, wd_spares.spares);
}

TEST(Headline, GreedyStaysNearLowerBound)
{
    // Sanity on optimality: the greedy uses at most a small multiple of the
    // LP-ish lower bound on plane count.
    const auto problem = core::make_design_problem(coarse_model(), 5.0);
    const auto bounds = core::ss_plane_lower_bounds(problem);
    const auto result = core::greedy_ss_cover(problem);
    ASSERT_TRUE(result.satisfied);
    EXPECT_LE(static_cast<int>(result.planes.size()), 12 * bounds.best());
}

} // namespace
} // namespace ssplane

// Beam assignment under hard limits: synthetic single-cell geometries pin
// the capacity/degradation/drop arithmetic exactly; a real Walker shell
// cross-checks the bucketed visibility prefilter against brute force and
// the whole pass against thread-count perturbations.
#include "serve/beam_assignment.h"

#include <cmath>

#include <gtest/gtest.h>

#include "astro/frames.h"
#include "astro/time.h"
#include "constellation/walker.h"
#include "lsn/scenario.h"
#include "lsn/topology.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::serve {
namespace {

session_cell make_cell(double lat_deg, double lon_deg, std::int64_t homed)
{
    session_cell cell;
    cell.latitude_deg = lat_deg;
    cell.longitude_deg = lon_deg;
    cell.site_ecef_m = astro::geodetic_to_ecef({lat_deg, lon_deg, 0.0});
    cell.sessions_homed = homed;
    return cell;
}

session_grid single_cell_grid(std::int64_t homed)
{
    session_grid grid;
    grid.cells.push_back(make_cell(10.0, 20.0, homed));
    grid.total_sessions = homed;
    grid.n_grid_cells = 1;
    return grid;
}

/// A satellite at `altitude_m` directly above the cell.
vec3 overhead(const session_cell& cell, double altitude_m = 550.0e3)
{
    const double r = cell.site_ecef_m.norm();
    return cell.site_ecef_m * ((r + altitude_m) / r);
}

serving_options roomy_options()
{
    serving_options options;
    options.n_sessions = 1; // unused by assign_beams, must just validate
    options.beams_per_satellite = 10000;
    options.beam_capacity_gbps = 1.0e6;
    options.max_users_per_beam = 1000000;
    options.satellite_capacity_gbps = 1.0e6;
    return options;
}

TEST(BeamAssignment, OverheadSatelliteServesEveryActiveSessionAtFullRate)
{
    const auto grid = single_cell_grid(400);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    const auto options = roomy_options();
    const std::int64_t active = active_sessions(grid.cells[0], t);
    ASSERT_GT(active, 0);

    const auto result = assign_beams(grid, sats, {}, t, options);
    EXPECT_EQ(result.sessions_active, active);
    EXPECT_EQ(result.sessions_dropped, 0);
    EXPECT_EQ(result.sessions_degraded, 0);
    EXPECT_DOUBLE_EQ(result.served_fraction(), 1.0);
    EXPECT_NEAR(result.delivered_gbps,
                static_cast<double>(active) * options.session_rate_mbps / 1000.0,
                1e-9);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, result.offered_gbps);
    EXPECT_EQ(result.beams_used, 1);
    EXPECT_EQ(result.satellites_serving, 1);
    std::int64_t grouped = 0;
    for (const auto& g : result.rate_groups) grouped += g.sessions;
    EXPECT_EQ(grouped, result.sessions_active);
    EXPECT_DOUBLE_EQ(session_rate_percentile(result.rate_groups, 1.0),
                     options.session_rate_mbps);
}

TEST(BeamAssignment, AntipodalSatelliteDropsEverything)
{
    const auto grid = single_cell_grid(400);
    const std::vector<vec3> sats{-overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    const auto result = assign_beams(grid, sats, {}, t, roomy_options());
    ASSERT_GT(result.sessions_active, 0);
    EXPECT_EQ(result.sessions_dropped, result.sessions_active);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 0.0);
    EXPECT_DOUBLE_EQ(result.served_fraction(), 0.0);
    EXPECT_EQ(result.beams_used, 0);
    ASSERT_EQ(result.rate_groups.size(), 1u);
    EXPECT_DOUBLE_EQ(result.rate_groups[0].rate_mbps, 0.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(result.rate_groups, 99.0), 0.0);
}

TEST(BeamAssignment, FailedSatelliteServesNothing)
{
    const auto grid = single_cell_grid(400);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const std::vector<std::uint8_t> failed{1};
    const auto t = astro::instant::j2000();
    const auto result = assign_beams(grid, sats, failed, t, roomy_options());
    EXPECT_EQ(result.sessions_dropped, result.sessions_active);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 0.0);
    EXPECT_EQ(result.satellites_serving, 0);
}

TEST(BeamAssignment, PerBeamUserLimitSplitsTheCellAcrossBeams)
{
    const auto grid = single_cell_grid(1000);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    auto options = roomy_options();
    options.max_users_per_beam = 100;
    const auto result = assign_beams(grid, sats, {}, t, options);
    ASSERT_GT(result.sessions_active, 0);
    EXPECT_EQ(result.sessions_dropped, 0);
    const std::int64_t expected_beams = (result.sessions_active + 99) / 100;
    EXPECT_EQ(result.beams_used, static_cast<int>(expected_beams));
    for (const auto& g : result.rate_groups) EXPECT_LE(g.sessions, 100);
}

TEST(BeamAssignment, BeamCapacityShortfallDegradesUsers)
{
    const auto grid = single_cell_grid(1000);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    auto options = roomy_options();
    // One beam must take everyone, but delivers only 0.5 Gbps against a
    // multi-Gbps offered load → per-session rate far below the 50%
    // degraded threshold.
    options.beam_capacity_gbps = 0.5;
    const auto result = assign_beams(grid, sats, {}, t, options);
    ASSERT_GT(result.sessions_active, 0);
    EXPECT_EQ(result.sessions_dropped, 0);
    EXPECT_EQ(result.sessions_degraded, result.sessions_active);
    EXPECT_DOUBLE_EQ(result.served_fraction(), 0.0);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 0.5);
}

TEST(BeamAssignment, SatelliteCapacityCapsDeliveryAcrossBeams)
{
    const auto grid = single_cell_grid(1000);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    auto options = roomy_options();
    options.max_users_per_beam = 100;
    options.beam_capacity_gbps = 2.0;       // each beam could deliver its 2 Gbps
    options.satellite_capacity_gbps = 3.0;  // but the satellite caps the sum
    const auto result = assign_beams(grid, sats, {}, t, options);
    EXPECT_LE(result.delivered_gbps, 3.0 + 1e-9);
    EXPECT_GT(result.sessions_degraded + result.sessions_dropped, 0);
}

TEST(BeamAssignment, LoadBalancesAcrossEquallyGoodSatellites)
{
    const auto grid = single_cell_grid(1000);
    const vec3 above = overhead(grid.cells[0]);
    const std::vector<vec3> sats{above, above};
    const auto t = astro::instant::j2000();
    auto options = roomy_options();
    options.max_users_per_beam = 100;
    options.beam_capacity_gbps = 2.0; // beams drain residual capacity visibly
    const auto result = assign_beams(grid, sats, {}, t, options);
    // Residual-capacity-first placement alternates between the twins, so
    // both end up serving (first pick breaks the tie toward index 0, the
    // second then sees more headroom on index 1).
    EXPECT_EQ(result.satellites_serving, 2);
    EXPECT_EQ(result.sessions_dropped, 0);
}

TEST(BeamAssignment, MaskSizeMismatchIsRejected)
{
    const auto grid = single_cell_grid(10);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const std::vector<std::uint8_t> wrong{0, 0};
    EXPECT_THROW(
        assign_beams(grid, sats, wrong, astro::instant::j2000(), roomy_options()),
        contract_violation);
}

TEST(BeamAssignment, PercentileWalksTheSortedDistribution)
{
    const std::vector<session_rate_group> groups{
        {3.0, 80}, {1.0, 10}, {2.0, 10}};
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 10.0), 1.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 11.0), 2.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 100.0), 3.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile({}, 50.0), 0.0);
    EXPECT_THROW(session_rate_percentile(groups, 101.0), contract_violation);
}

// --- Real-shell cross-checks ----------------------------------------------

lsn::lsn_topology small_walker()
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 6;
    params.sats_per_plane = 8;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

TEST(BeamAssignment, BucketedPrefilterMatchesBruteForceVisibility)
{
    const auto topo = small_walker();
    const lsn::snapshot_builder builder(topo, lsn::default_ground_stations(),
                                        astro::instant::j2000(),
                                        deg2rad(25.0));
    const std::vector<double> offsets{0.0};
    const auto positions = builder.positions_at_offsets(offsets);

    const demand::population_model population;
    serving_options sample_options;
    sample_options.n_sessions = 20000;
    sample_options.seed = 7;
    const auto grid = sample_session_grid(population, sample_options);

    auto options = roomy_options();
    const auto t = builder.epoch();
    const auto result = assign_beams(grid, positions[0], {}, t, options);

    // With effectively unlimited capacity the only reason to drop is "no
    // satellite above the mask" — so the dropped count must equal the
    // brute-force sum over cells with zero visible satellites, catching
    // both false negatives and false positives of the banded prefilter.
    std::int64_t invisible_active = 0;
    std::int64_t total_active = 0;
    for (const auto& cell : grid.cells) {
        const std::int64_t active = active_sessions(cell, t);
        total_active += active;
        bool visible = false;
        for (const vec3& sat : positions[0]) {
            if (astro::elevation_angle_rad(cell.site_ecef_m, sat) >=
                options.min_elevation_rad) {
                visible = true;
                break;
            }
        }
        if (!visible) invisible_active += active;
    }
    EXPECT_EQ(result.sessions_active, total_active);
    EXPECT_EQ(result.sessions_dropped, invisible_active);
}

TEST(BeamAssignment, BitIdenticalAcrossThreadCounts)
{
    const auto topo = small_walker();
    const lsn::snapshot_builder builder(topo, lsn::default_ground_stations(),
                                        astro::instant::j2000(),
                                        deg2rad(25.0));
    const std::vector<double> offsets{0.0};
    const auto positions = builder.positions_at_offsets(offsets);

    const demand::population_model population;
    serving_options options; // default capacities: contention is real
    options.n_sessions = 50000;
    options.seed = 11;
    const auto grid = sample_session_grid(population, options);
    const auto t = builder.epoch();

    const auto reference = assign_beams(grid, positions[0], {}, t, options);
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        const auto result = assign_beams(grid, positions[0], {}, t, options);
        EXPECT_EQ(result.sessions_active, reference.sessions_active);
        EXPECT_EQ(result.sessions_dropped, reference.sessions_dropped);
        EXPECT_EQ(result.sessions_degraded, reference.sessions_degraded);
        EXPECT_EQ(result.delivered_gbps, reference.delivered_gbps);
        EXPECT_EQ(result.beams_used, reference.beams_used);
        EXPECT_EQ(result.satellites_serving, reference.satellites_serving);
        ASSERT_EQ(result.rate_groups.size(), reference.rate_groups.size());
        for (std::size_t g = 0; g < result.rate_groups.size(); ++g) {
            EXPECT_EQ(result.rate_groups[g].rate_mbps,
                      reference.rate_groups[g].rate_mbps);
            EXPECT_EQ(result.rate_groups[g].sessions,
                      reference.rate_groups[g].sessions);
        }
    }
    set_thread_count(0);
}

} // namespace
} // namespace ssplane::serve

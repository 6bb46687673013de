#include "core/greedy_cover.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "constellation/sun_sync.h"
#include "core/plane_trace.h"
#include "geo/coverage.h"
#include "util/angles.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::core {
namespace {

const demand::population_model& shared_population()
{
    static const demand::population_model model;
    return model;
}

design_problem coarse_problem(double multiplier)
{
    demand::demand_options opts;
    opts.lat_cell_deg = 2.0;
    opts.tod_cell_h = 1.0;
    const demand::demand_model model(shared_population(), opts);
    return make_design_problem(model, multiplier);
}

TEST(GreedyCover, SatisfiesAllDemand)
{
    const auto result = greedy_ss_cover(coarse_problem(3.0));
    EXPECT_TRUE(result.satisfied);
    EXPECT_NEAR(result.residual_demand, 0.0, 1e-9);
    EXPECT_GT(result.planes.size(), 0u);
    EXPECT_EQ(result.total_satellites,
              static_cast<int>(result.planes.size()) * result.sats_per_plane);
}

TEST(GreedyCover, SatsPerPlaneFromStreetMinimum)
{
    const auto problem = coarse_problem(1.0);
    const auto cov = geo::coverage_geometry::from(problem.altitude_m,
                                                  problem.min_elevation_rad);
    const int s_min = geo::min_sats_for_street(cov.earth_central_half_angle_rad);
    ss_design_options opts;
    EXPECT_EQ(resolve_sats_per_plane(problem, opts), s_min);
    opts.sats_per_plane = 40;
    EXPECT_EQ(resolve_sats_per_plane(problem, opts), 40);
}

TEST(GreedyCover, MonotoneInBandwidthMultiplier)
{
    const auto small = greedy_ss_cover(coarse_problem(2.0));
    const auto large = greedy_ss_cover(coarse_problem(8.0));
    EXPECT_TRUE(small.satisfied);
    EXPECT_TRUE(large.satisfied);
    EXPECT_GT(large.planes.size(), small.planes.size());
}

TEST(GreedyCover, RespectsLowerBounds)
{
    const auto problem = coarse_problem(6.0);
    const auto bounds = ss_plane_lower_bounds(problem);
    EXPECT_GE(bounds.per_cell_bound, 6);
    EXPECT_GT(bounds.volume_bound, 0);
    const auto result = greedy_ss_cover(problem);
    EXPECT_GE(static_cast<int>(result.planes.size()), bounds.best());
}

TEST(GreedyCover, EveryPlaneRemovesDemand)
{
    const auto result = greedy_ss_cover(coarse_problem(4.0));
    for (const auto& plane : result.planes) {
        EXPECT_GT(plane.covered_demand, 0.0);
        EXPECT_NEAR(rad2deg(plane.inclination_rad), 97.6, 0.2);
        EXPECT_GE(plane.ltan_h, 0.0);
        EXPECT_LT(plane.ltan_h, 24.0);
        EXPECT_EQ(plane.n_sats, result.sats_per_plane);
    }
}

TEST(GreedyCover, GreedyBeatsWorstFirstRule)
{
    const auto problem = coarse_problem(5.0);
    ss_design_options greedy_opts;
    ss_design_options worst_opts;
    worst_opts.rule = seed_rule::min_demand;
    const auto greedy = greedy_ss_cover(problem, greedy_opts);
    const auto worst = greedy_ss_cover(problem, worst_opts);
    EXPECT_TRUE(greedy.satisfied);
    EXPECT_TRUE(worst.satisfied);
    // Max-demand seeding is close to the worst-first strawman or better;
    // with swath-wide planes the orderings can locally invert.
    EXPECT_LE(static_cast<double>(greedy.planes.size()),
              1.3 * static_cast<double>(worst.planes.size()) + 2.0);
}

TEST(GreedyCover, RandomRuleDeterministicInSeed)
{
    const auto problem = coarse_problem(2.0);
    ss_design_options opts;
    opts.rule = seed_rule::random_cell;
    opts.seed = 11;
    const auto a = greedy_ss_cover(problem, opts);
    const auto b = greedy_ss_cover(problem, opts);
    ASSERT_EQ(a.planes.size(), b.planes.size());
    for (std::size_t i = 0; i < a.planes.size(); ++i)
        EXPECT_DOUBLE_EQ(a.planes[i].ltan_h, b.planes[i].ltan_h);
}

TEST(GreedyCover, MaxPlanesCapReportsUnsatisfied)
{
    ss_design_options opts;
    opts.max_planes = 2;
    const auto result = greedy_ss_cover(coarse_problem(10.0), opts);
    EXPECT_FALSE(result.satisfied);
    EXPECT_GT(result.residual_demand, 0.0);
    EXPECT_EQ(result.planes.size(), 2u);
}

TEST(GreedyCover, FixedSatsPerPlaneScalesTotal)
{
    ss_design_options opts;
    opts.sats_per_plane = 40;
    const auto result = greedy_ss_cover(coarse_problem(2.0), opts);
    EXPECT_EQ(result.sats_per_plane, 40);
    EXPECT_EQ(result.total_satellites, static_cast<int>(result.planes.size()) * 40);
}

TEST(GreedyCover, SwathIsFootprintHalfAngle)
{
    const auto problem = coarse_problem(1.0);
    const auto result = greedy_ss_cover(problem);
    const auto cov = geo::coverage_geometry::from(problem.altitude_m,
                                                  problem.min_elevation_rad);
    EXPECT_DOUBLE_EQ(result.swath_half_width_rad, cov.earth_central_half_angle_rad);
}

/// The greedy cover as dense passes: every iteration scans the whole grid
/// for its seed and scores and applies full per-cell masks, ties going to
/// the first candidate. Reference for the run-length path.
ss_design_result dense_greedy_reference(const design_problem& problem,
                                        const ss_design_options& options)
{
    const double inclination =
        *constellation::sun_synchronous_inclination_rad(problem.altitude_m);
    const double swath =
        geo::coverage_geometry::from(problem.altitude_m, problem.min_elevation_rad)
            .earth_central_half_angle_rad;
    ss_design_result result;
    result.sats_per_plane = resolve_sats_per_plane(problem, options);
    result.swath_half_width_rad = swath;

    geo::lat_tod_grid residual = problem.demand;
    const auto values = residual.field().values();
    const std::size_t cols = residual.n_tod();
    const sun_frame_table table(residual);
    rng random(options.seed);

    for (int iteration = 0; iteration < options.max_planes; ++iteration) {
        bool found = false;
        std::size_t seed = 0;
        switch (options.rule) {
        case seed_rule::max_demand: {
            double best = 0.0;
            for (std::size_t i = 0; i < values.size(); ++i) {
                if (values[i] > best) {
                    best = values[i];
                    found = true;
                    seed = i;
                }
            }
            break;
        }
        case seed_rule::min_demand: {
            double best = std::numeric_limits<double>::infinity();
            for (std::size_t i = 0; i < values.size(); ++i) {
                if (values[i] > 1e-12 && values[i] < best) {
                    best = values[i];
                    found = true;
                    seed = i;
                }
            }
            break;
        }
        case seed_rule::random_cell: {
            std::vector<std::size_t> positive;
            for (std::size_t i = 0; i < values.size(); ++i)
                if (values[i] > 1e-12) positive.push_back(i);
            if (!positive.empty()) {
                found = true;
                seed = positive[static_cast<std::size_t>(random.uniform_int(
                    0, static_cast<std::int64_t>(positive.size()) - 1))];
            }
            break;
        }
        }
        if (!found) break;

        const std::size_t row = seed / cols;
        const auto ltans = ltan_through(inclination, residual.latitude_center_deg(row),
                                        residual.tod_center_h(seed % cols));
        std::vector<std::pair<double, std::vector<std::uint8_t>>> candidates;
        const auto add_candidate = [&](std::optional<double> ltan) {
            if (!ltan) return;
            std::vector<std::uint8_t> mask;
            table.coverage_mask(inclination, *ltan, swath, mask);
            candidates.emplace_back(*ltan, std::move(mask));
        };
        add_candidate(ltans.ascending);
        add_candidate(ltans.descending);
        if (candidates.empty()) {
            for (std::size_t c = 0; c < cols; ++c) values[row * cols + c] = 0.0;
            continue;
        }

        std::size_t best = 0;
        double best_cover = -1.0;
        for (std::size_t k = 0; k < candidates.size(); ++k) {
            double cover = 0.0;
            for (std::size_t i = 0; i < values.size(); ++i)
                if (candidates[k].second[i]) cover += std::min(values[i], 1.0);
            if (cover > best_cover) {
                best_cover = cover;
                best = k;
            }
        }
        double removed = 0.0;
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (!candidates[best].second[i]) continue;
            const double take = std::min(values[i], 1.0);
            values[i] -= take;
            removed += take;
        }
        result.planes.push_back({candidates[best].first, inclination, problem.altitude_m,
                                 result.sats_per_plane, removed});
    }

    result.total_satellites =
        static_cast<int>(result.planes.size()) * result.sats_per_plane;
    result.residual_demand = total_demand(residual);
    result.satisfied = result.residual_demand <= 1e-9;
    return result;
}

void expect_identical(const ss_design_result& actual, const ss_design_result& expected)
{
    ASSERT_EQ(actual.planes.size(), expected.planes.size());
    for (std::size_t i = 0; i < expected.planes.size(); ++i) {
        const auto& a = actual.planes[i];
        const auto& e = expected.planes[i];
        EXPECT_EQ(a.ltan_h, e.ltan_h) << "plane " << i;
        EXPECT_EQ(a.inclination_rad, e.inclination_rad) << "plane " << i;
        EXPECT_EQ(a.altitude_m, e.altitude_m) << "plane " << i;
        EXPECT_EQ(a.n_sats, e.n_sats) << "plane " << i;
        EXPECT_EQ(a.covered_demand, e.covered_demand) << "plane " << i;
    }
    EXPECT_EQ(actual.total_satellites, expected.total_satellites);
    EXPECT_EQ(actual.sats_per_plane, expected.sats_per_plane);
    EXPECT_EQ(actual.swath_half_width_rad, expected.swath_half_width_rad);
    EXPECT_EQ(actual.residual_demand, expected.residual_demand);
    EXPECT_EQ(actual.satisfied, expected.satisfied);
}

/// A 5° x 1 h grid with tied maxima within a row and across rows, a
/// demand pair either side of midnight (planes through it cover a row's
/// last column and the next row's first) and an unreachable polar cell.
design_problem hand_built_problem()
{
    design_problem problem{geo::lat_tod_grid(5.0, 1.0)};
    auto& field = problem.demand.field();
    rng random(3);
    for (std::size_t r = 0; r < field.rows(); ++r) {
        if (std::abs(problem.demand.latitude_center_deg(r)) > 60.0) continue;
        for (std::size_t c = 0; c < field.cols(); ++c)
            field(r, c) = std::floor(random.uniform(0.0, 2.0) * 4.0) / 4.0;
    }
    const std::size_t last = field.cols() - 1;
    field(20, 3) = 5.0; // tied within row 20 ...
    field(20, 9) = 5.0;
    field(24, 1) = 5.0; // ... and with row 24
    field(17, 0) = 4.5; // either side of midnight
    field(17, last) = 4.5;
    field(35, 5) = 6.0; // 87.5°: above the SS plane's reach
    return problem;
}

TEST(GreedyCover, MatchesDenseReference)
{
    const std::vector<std::pair<std::string, design_problem>> problems = {
        {"coarse x1", coarse_problem(1.0)},
        {"coarse x3", coarse_problem(3.0)},
        {"coarse x7", coarse_problem(7.0)},
        {"hand-built", hand_built_problem()},
    };

    for (const auto& [name, problem] : problems) {
        for (const seed_rule rule :
             {seed_rule::max_demand, seed_rule::min_demand, seed_rule::random_cell}) {
            SCOPED_TRACE(testing::Message()
                         << name << ", rule " << static_cast<int>(rule));
            ss_design_options options;
            options.rule = rule;
            options.seed = 5;
            expect_identical(greedy_ss_cover(problem, options),
                             dense_greedy_reference(problem, options));
        }
    }
}

TEST(GreedyCover, HandBuiltGridExercisesEdgeCases)
{
    // Guards MatchesDenseReference's hand-built grid: its first max-demand
    // seed must be the unreachable polar cell, and its design must place a
    // plane whose mask runs from a row's last column into the next row's
    // first.
    const auto problem = hand_built_problem();
    const auto result = greedy_ss_cover(problem);
    ASSERT_FALSE(result.planes.empty());
    EXPECT_EQ(problem.demand.field().argmax().row, 35u);
    EXPECT_FALSE(ltan_through(result.planes.front().inclination_rad,
                              problem.demand.latitude_center_deg(35),
                              problem.demand.tod_center_h(5))
                     .ascending.has_value());

    const sun_frame_table table(problem.demand);
    const std::size_t cols = problem.demand.n_tod();
    bool crosses_row_boundary = false;
    std::vector<std::uint8_t> mask;
    for (const auto& plane : result.planes) {
        table.coverage_mask(plane.inclination_rad, plane.ltan_h,
                            result.swath_half_width_rad, mask);
        for (std::size_t r = 0; r + 1 < problem.demand.n_lat(); ++r)
            crosses_row_boundary |= mask[r * cols + cols - 1] && mask[(r + 1) * cols];
    }
    EXPECT_TRUE(crosses_row_boundary);
}

TEST(GreedyCover, DesignIndependentOfThreadCount)
{
    // The greedy loop is serial; no pool size a caller runs with may leak
    // into the design.
    const auto problem = coarse_problem(5.0);
    set_thread_count(1);
    const auto serial = greedy_ss_cover(problem);
    set_thread_count(4);
    const auto parallel = greedy_ss_cover(problem);
    set_thread_count(0);

    ASSERT_EQ(parallel.planes.size(), serial.planes.size());
    for (std::size_t i = 0; i < serial.planes.size(); ++i) {
        EXPECT_DOUBLE_EQ(parallel.planes[i].ltan_h, serial.planes[i].ltan_h);
        EXPECT_DOUBLE_EQ(parallel.planes[i].covered_demand,
                         serial.planes[i].covered_demand);
    }
    EXPECT_EQ(parallel.total_satellites, serial.total_satellites);
    EXPECT_DOUBLE_EQ(parallel.residual_demand, serial.residual_demand);
}

} // namespace
} // namespace ssplane::core

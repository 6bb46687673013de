#include "traffic/adversary.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::traffic {
namespace {

const demand::population_model& test_population()
{
    static const demand::population_model model;
    return model;
}

const demand::demand_model& test_demand()
{
    static const demand::demand_model model(test_population());
    return model;
}

lsn::lsn_topology small_walker(int planes = 6, int sats = 6)
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = planes;
    params.sats_per_plane = sats;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

std::vector<double> hourly_offsets(int n_steps)
{
    std::vector<double> offsets(static_cast<std::size_t>(n_steps));
    for (int i = 0; i < n_steps; ++i) offsets[static_cast<std::size_t>(i)] = i * 3600.0;
    return offsets;
}

lsn::failure_scenario adversary_scenario(int budget, int interval = 2,
                                         int first = 1)
{
    lsn::failure_scenario s;
    s.mode = lsn::failure_mode::greedy_adversary;
    s.adversary_budget = budget;
    s.adversary_strike_interval_steps = interval;
    s.adversary_first_strike_step = first;
    return s;
}

/// The greedy oracle as a plain serial loop: trial-kill each surviving
/// plane in index order, score it with one traffic sweep on the strided
/// grid and keep the strict-`<` argmin. The generator must reproduce it.
lsn::failure_timeline serial_reference_timeline(
    const lsn::snapshot_builder& builder, const std::vector<double>& offsets,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_scenario& scenario, const traffic_sweep_options& options)
{
    const auto& topo = builder.topology();
    const int n = builder.n_satellites();
    const int n_steps = static_cast<int>(offsets.size());
    std::vector<double> eval_offsets;
    std::vector<std::vector<vec3>> eval_positions;
    for (int i = 0; i < n_steps; i += scenario.adversary_eval_stride) {
        eval_offsets.push_back(offsets[static_cast<std::size_t>(i)]);
        eval_positions.push_back(positions[static_cast<std::size_t>(i)]);
    }
    const auto kill_plane = [&](int p, std::vector<std::uint8_t>& mask) {
        for (int s = 0; s < n; ++s)
            if (topo.satellites[static_cast<std::size_t>(s)].plane == p)
                mask[static_cast<std::size_t>(s)] = 1;
    };

    std::vector<std::uint8_t> current(static_cast<std::size_t>(n), 0);
    std::vector<bool> dead(static_cast<std::size_t>(lsn::plane_count(topo)), false);
    std::vector<int> strike_plane(static_cast<std::size_t>(n_steps), -1);
    for (int strike = 0; strike < scenario.adversary_budget; ++strike) {
        const int step = scenario.adversary_first_strike_step +
                         strike * scenario.adversary_strike_interval_steps;
        if (step >= n_steps) break;
        int best_plane = -1;
        double best_delivered = std::numeric_limits<double>::infinity();
        for (int p = 0; p < static_cast<int>(dead.size()); ++p) {
            if (dead[static_cast<std::size_t>(p)]) continue;
            auto trial = current;
            kill_plane(p, trial);
            const double delivered =
                run_traffic_sweep_timeline(
                    builder, eval_offsets, eval_positions,
                    lsn::failure_timeline::from_static_mask(std::move(trial)),
                    test_demand(), options)
                    .metrics.delivered_gbps_mean;
            if (delivered < best_delivered) {
                best_delivered = delivered;
                best_plane = p;
            }
        }
        if (best_plane < 0) break;
        dead[static_cast<std::size_t>(best_plane)] = true;
        kill_plane(best_plane, current);
        strike_plane[static_cast<std::size_t>(step)] = best_plane;
    }

    lsn::failure_timeline timeline;
    timeline.n_satellites = n;
    timeline.n_steps = n_steps;
    std::vector<std::uint8_t> row(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n_steps; ++i) {
        if (strike_plane[static_cast<std::size_t>(i)] >= 0)
            kill_plane(strike_plane[static_cast<std::size_t>(i)], row);
        timeline.masks.insert(timeline.masks.end(), row.begin(), row.end());
    }
    return timeline;
}

TEST(Adversary, TimelineFollowsTheStrikeSchedule)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    const lsn::snapshot_builder builder(topo, stations, epoch, deg2rad(25.0));
    const auto offsets = hourly_offsets(8);
    const auto positions = builder.positions_at_offsets(offsets);

    const auto timeline = generate_adversary_timeline(
        builder, offsets, positions, adversary_scenario(2), test_demand());
    lsn::validate(timeline);
    EXPECT_EQ(timeline.n_satellites, 36);
    EXPECT_EQ(timeline.n_steps, 8);
    // Strikes at steps 1 and 3, six satellites (one plane) each; rows
    // before the first strike are clean.
    EXPECT_EQ(timeline.n_failed_at(0), 0);
    EXPECT_EQ(timeline.n_failed_at(1), 6);
    EXPECT_EQ(timeline.n_failed_at(2), 6);
    EXPECT_EQ(timeline.n_failed_at(3), 12);
    EXPECT_EQ(timeline.final_n_failed(), 12);
    // Each strike kills one whole plane: the failed set is a union of
    // complete planes.
    const auto final_mask = timeline.step(7);
    for (int p = 0; p < 6; ++p) {
        int dead_in_plane = 0;
        for (int s = 0; s < 36; ++s)
            if (topo.satellites[static_cast<std::size_t>(s)].plane == p &&
                final_mask[static_cast<std::size_t>(s)] != 0)
                ++dead_in_plane;
        EXPECT_TRUE(dead_in_plane == 0 || dead_in_plane == 6);
    }
}

TEST(Adversary, ZeroBudgetAndPastHorizonStrikesLeaveTheNetworkAlone)
{
    const auto topo = small_walker(4, 4);
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(4);
    const auto positions = builder.positions_at_offsets(offsets);

    const auto unarmed = generate_adversary_timeline(
        builder, offsets, positions, adversary_scenario(0), test_demand());
    EXPECT_EQ(unarmed.final_n_failed(), 0);

    // A first strike scheduled past the horizon never lands.
    const auto late = generate_adversary_timeline(
        builder, offsets, positions, adversary_scenario(2, 1, /*first=*/10),
        test_demand());
    EXPECT_EQ(late.final_n_failed(), 0);
}

TEST(Adversary, DeterministicAcrossThreadCountsAndRepeats)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(6);
    const auto positions = builder.positions_at_offsets(offsets);
    const auto scenario = adversary_scenario(3);

    // Every run, at any thread count, equals the plain serial loop.
    set_thread_count(1);
    const auto reference =
        serial_reference_timeline(builder, offsets, positions, scenario, {});
    EXPECT_EQ(reference.final_n_failed(), 18);
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        for (int repeat = 0; repeat < 2; ++repeat) {
            const auto timeline = generate_adversary_timeline(
                builder, offsets, positions, scenario, test_demand());
            EXPECT_EQ(timeline.n_steps, reference.n_steps) << threads << " threads";
            EXPECT_EQ(timeline.masks, reference.masks) << threads << " threads";
        }
    }
    set_thread_count(0);
}

TEST(Adversary, GreedyDamageAtLeastMatchesRandomPlaneAttacks)
{
    // The regression that keeps the adversary an adversary: at equal budget
    // (killed at step 0, like a static plane attack), the greedy choice
    // never leaves more delivered traffic than random plane draws.
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(4);
    const auto positions = builder.positions_at_offsets(offsets);
    const int budget = 2;

    const auto greedy = generate_adversary_timeline(
        builder, offsets, positions, adversary_scenario(budget, 1, /*first=*/0),
        test_demand());
    const auto greedy_sweep = run_traffic_sweep_timeline(
        builder, offsets, positions, greedy, test_demand());

    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        lsn::failure_scenario random_attack;
        random_attack.mode = lsn::failure_mode::plane_attack;
        random_attack.planes_attacked = budget;
        random_attack.seed = seed;
        const auto sweep = run_traffic_sweep_timeline(
            builder, offsets, positions,
            lsn::sample_failure_timeline(topo, random_attack, offsets,
                                         builder.epoch()),
            test_demand());
        EXPECT_LE(greedy_sweep.metrics.delivered_gbps_mean,
                  sweep.metrics.delivered_gbps_mean + 1e-12)
            << "random plane attack (seed " << seed
            << ") out-damaged the greedy adversary";
    }
}

TEST(Adversary, StridedOracleStillStrikesAndScenarioSweepRoutesHere)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(6);
    const auto positions = builder.positions_at_offsets(offsets);

    auto scenario = adversary_scenario(1, 1, 0);
    scenario.adversary_eval_stride = 3;
    const auto strided = generate_adversary_timeline(builder, offsets, positions,
                                                     scenario, test_demand());
    EXPECT_EQ(strided.final_n_failed(), 6);

    // The strike lands at step 0, so every row holds the final mask: the
    // sweep of the adversary timeline matches the sweep of that mask as a
    // one-row static timeline.
    const auto final_row = strided.step(strided.n_steps - 1);
    const auto via_static = run_traffic_sweep_timeline(
        builder, offsets, positions,
        lsn::failure_timeline::from_static_mask({final_row.begin(), final_row.end()}),
        test_demand());
    const auto via_timeline = run_traffic_sweep_timeline(
        builder, offsets, positions, strided, test_demand());
    EXPECT_EQ(via_static.metrics.delivered_gbps_mean,
              via_timeline.metrics.delivered_gbps_mean);
    EXPECT_EQ(via_static.step_delivered_fraction,
              via_timeline.step_delivered_fraction);
}

TEST(Adversary, AllTiedCandidatesFallToTheLowestPlaneIndex)
{
    // No demand: every candidate delivers exactly 0 Gbps, so each strike is
    // a full tie and must take the lowest surviving plane index.
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(6);
    const auto positions = builder.positions_at_offsets(offsets);
    traffic_sweep_options options;
    options.matrix.total_demand_gbps = 0.0;

    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        const auto timeline =
            generate_adversary_timeline(builder, offsets, positions,
                                        adversary_scenario(3), test_demand(), options);
        // Strikes at steps 1, 3 and 5 take planes 0, 1 and 2 in turn.
        for (int step = 0; step < 6; ++step) {
            const int planes_dead = (step + 1) / 2;
            const auto row = timeline.step(step);
            for (int s = 0; s < 36; ++s) {
                const int plane = topo.satellites[static_cast<std::size_t>(s)].plane;
                EXPECT_EQ(row[static_cast<std::size_t>(s)] != 0, plane < planes_dead)
                    << "step " << step << ", satellite " << s << ", " << threads
                    << " threads";
            }
        }
    }
    set_thread_count(0);
}

TEST(Adversary, RejectsNonAdversaryScenarios)
{
    const auto topo = small_walker(4, 4);
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(2);
    const auto positions = builder.positions_at_offsets(offsets);

    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.2;
    EXPECT_THROW(generate_adversary_timeline(builder, offsets, positions, loss,
                                             test_demand()),
                 contract_violation);
}

} // namespace
} // namespace ssplane::traffic

#include "exp/evaluation_context.h"

#include <limits>

#include <gtest/gtest.h>

#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::exp {
namespace {

lsn::lsn_topology small_walker(int planes = 4, int sats = 4)
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = planes;
    params.sats_per_plane = sats;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

lsn::scenario_sweep_options short_grid()
{
    lsn::scenario_sweep_options grid;
    grid.duration_s = 3600.0;
    grid.step_s = 900.0;
    grid.min_elevation_rad = deg2rad(25.0);
    return grid;
}

TEST(EvaluationContext, OwnsGridAndBatchedPropagationPass)
{
    const auto topo = small_walker();
    const evaluation_context context(topo, lsn::default_ground_stations(),
                                     astro::instant::j2000(), short_grid());

    const auto offsets = lsn::sweep_offsets(3600.0, 900.0);
    ASSERT_EQ(context.offsets().size(), offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i)
        EXPECT_EQ(context.offsets()[i], offsets[i]);
    EXPECT_EQ(context.n_steps(), 4);
    EXPECT_EQ(context.n_satellites(), 16);
    EXPECT_EQ(context.n_ground(), 12);

    // The stored positions are the builder's own batched pass, verbatim.
    const auto fresh = context.builder().positions_at_offsets(context.offsets());
    ASSERT_EQ(context.positions().size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
        for (std::size_t s = 0; s < fresh[i].size(); ++s) {
            EXPECT_EQ(context.positions()[i][s].x, fresh[i][s].x);
            EXPECT_EQ(context.positions()[i][s].y, fresh[i][s].y);
            EXPECT_EQ(context.positions()[i][s].z, fresh[i][s].z);
        }
}

TEST(EvaluationContext, StaticTimelineHitIsBitIdenticalToFreshDraw)
{
    const auto topo = small_walker(5, 5);
    const evaluation_context context(topo, {}, astro::instant::j2000(), short_grid());

    lsn::failure_scenario scenario;
    scenario.mode = lsn::failure_mode::random_loss;
    scenario.loss_fraction = 0.3;
    scenario.seed = 42;

    const auto& cached = context.timeline(scenario);
    EXPECT_EQ(cached.masks, lsn::sample_failures(topo, scenario));

    // A second lookup of the identical scenario is the *same* cache entry,
    // not a re-draw.
    const auto& again = context.timeline(scenario);
    EXPECT_EQ(&again, &cached);
    EXPECT_EQ(context.timeline_cache_size(), 1u);
}

TEST(EvaluationContext, TimelineCacheDedupesOnModeKnobsAndSeed)
{
    const auto topo = small_walker(5, 5);
    const evaluation_context context(topo, {}, astro::instant::j2000(), short_grid());

    lsn::failure_scenario a;
    a.mode = lsn::failure_mode::random_loss;
    a.loss_fraction = 0.3;
    a.seed = 1;
    context.timeline(a);
    EXPECT_EQ(context.timeline_cache_size(), 1u);

    // Fields the mode never reads do not split the cache entry.
    lsn::failure_scenario a_noise = a;
    a_noise.horizon_days = 77.0;
    a_noise.planes_attacked = 3;
    EXPECT_EQ(&context.timeline(a_noise), &context.timeline(a));
    EXPECT_EQ(context.timeline_cache_size(), 1u);

    // A different seed or knob is a different draw.
    lsn::failure_scenario b = a;
    b.seed = 2;
    context.timeline(b);
    EXPECT_EQ(context.timeline_cache_size(), 2u);
    lsn::failure_scenario c = a;
    c.loss_fraction = 0.4;
    context.timeline(c);
    EXPECT_EQ(context.timeline_cache_size(), 3u);

    // `none` baselines share one all-zero mask regardless of seed.
    lsn::failure_scenario none_a;
    none_a.seed = 10;
    lsn::failure_scenario none_b;
    none_b.seed = 20;
    EXPECT_EQ(&context.timeline(none_a), &context.timeline(none_b));
    EXPECT_EQ(context.timeline_cache_size(), 4u);
}

TEST(EvaluationContext, RejectsAnUnsweepableGrid)
{
    const auto topo = small_walker(3, 3);
    auto endless = short_grid();
    endless.duration_s = std::numeric_limits<double>::infinity();
    EXPECT_THROW(evaluation_context(topo, {}, astro::instant::j2000(), endless),
                 contract_violation);
    auto no_ground_links = short_grid();
    no_ground_links.min_elevation_rad = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(evaluation_context(topo, {}, astro::instant::j2000(), no_ground_links),
                 contract_violation);
}

TEST(EvaluationContext, TimelineLookupValidatesScenario)
{
    const auto topo = small_walker(3, 3);
    const evaluation_context context(topo, {}, astro::instant::j2000(), short_grid());

    lsn::failure_scenario bad;
    bad.mode = lsn::failure_mode::random_loss;
    bad.loss_fraction = 1.5;
    EXPECT_THROW(context.timeline(bad), contract_violation);

    // A NaN knob is rejected even when a similar valid scenario is already
    // cached — NaN keys must never reach the cache's ordered lookup, where
    // they would alias the valid entry.
    lsn::failure_scenario valid;
    valid.mode = lsn::failure_mode::random_loss;
    valid.loss_fraction = 0.3;
    valid.seed = 1;
    context.timeline(valid);
    lsn::failure_scenario nan_knob = valid;
    nan_knob.loss_fraction = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(context.timeline(nan_knob), contract_violation);
    EXPECT_EQ(context.timeline_cache_size(), 1u);

    // Same for a NaN per-plane fluence, which also feeds the key.
    lsn::failure_scenario nan_rate;
    nan_rate.mode = lsn::failure_mode::radiation_poisson;
    nan_rate.plane_daily_fluence.assign(3, 1.0e9);
    nan_rate.plane_daily_fluence[1] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(context.timeline(nan_rate), contract_violation);
}

TEST(EvaluationContext, TimelineLookupWrapsStaticModesAndCachesTimelineModes)
{
    const auto topo = small_walker(5, 5);
    const evaluation_context context(topo, {}, astro::instant::j2000(), short_grid());

    // Static modes wrap their `sample_failures` draw: one row, same bytes.
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.3;
    loss.seed = 42;
    const auto& static_timeline = context.timeline(loss);
    EXPECT_TRUE(static_timeline.is_static());
    EXPECT_EQ(static_timeline.masks, lsn::sample_failures(topo, loss));
    EXPECT_EQ(context.timeline_cache_size(), 1u);

    // Timeline modes match the direct generator draw and dedupe on knobs.
    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 2;
    cascade.cascade_base_daily_hazard = 0.3;
    cascade.seed = 7;
    const auto& cached = context.timeline(cascade);
    EXPECT_EQ(cached.masks,
              lsn::sample_failure_timeline(topo, cascade, context.offsets(),
                                           context.epoch())
                  .masks);
    EXPECT_EQ(&context.timeline(cascade), &cached);
    EXPECT_EQ(context.timeline_cache_size(), 2u);

    // A different seed is a different draw; a knob the mode never reads
    // is not.
    lsn::failure_scenario reseeded = cascade;
    reseeded.seed = 8;
    context.timeline(reseeded);
    EXPECT_EQ(context.timeline_cache_size(), 3u);
    lsn::failure_scenario noisy = cascade;
    noisy.loss_fraction = 0.9;
    noisy.planes_attacked = 3;
    EXPECT_EQ(&context.timeline(noisy), &cached);
    EXPECT_EQ(context.timeline_cache_size(), 3u);

    // Validation still guards the lookup.
    lsn::failure_scenario bad = cascade;
    bad.cascade_initial_hits = -1;
    EXPECT_THROW(context.timeline(bad), contract_violation);
}

TEST(EvaluationContext, AdversaryTimelinesNeedTheOracleArmedExactlyOnce)
{
    const auto topo = small_walker(4, 4);
    evaluation_context context(topo, lsn::default_ground_stations(),
                               astro::instant::j2000(), short_grid());

    lsn::failure_scenario adversary;
    adversary.mode = lsn::failure_mode::greedy_adversary;
    adversary.adversary_budget = 1;

    // Unarmed: the lookup refuses rather than inventing demand.
    EXPECT_THROW(context.timeline(adversary), contract_violation);

    static const demand::population_model population;
    static const demand::demand_model demand(population);
    context.set_adversary_oracle(demand);
    const auto& timeline = context.timeline(adversary);
    EXPECT_EQ(timeline.final_n_failed(), 4); // one plane of the 4x4 grid
    EXPECT_EQ(&context.timeline(adversary), &timeline);

    // Re-arming after a cached adversary timeline exists would silently
    // leave stale entries keyed under the old oracle — rejected.
    EXPECT_THROW(context.set_adversary_oracle(demand), contract_violation);
}

} // namespace
} // namespace ssplane::exp

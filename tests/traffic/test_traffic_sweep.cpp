#include "traffic/traffic_sweep.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "support/sweep_grid.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::traffic {
namespace {

const demand::population_model& test_population()
{
    static const demand::population_model model;
    return model;
}

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

lsn::scenario_sweep_options short_sweep()
{
    lsn::scenario_sweep_options sweep;
    sweep.duration_s = 7200.0;
    sweep.step_s = 1800.0;
    sweep.min_elevation_rad = deg2rad(25.0);
    return sweep;
}

TEST(TrafficSweep, ProducesSaneBaselineMetrics)
{
    const demand::demand_model model(test_population());
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const test::sweep_grid g(topo, stations, short_sweep());
    const auto result = run_traffic_sweep_timeline(g.builder, g.offsets, g.positions,
                                                   g.timeline({}), model);

    EXPECT_EQ(result.n_steps, 4);
    EXPECT_EQ(result.n_stations, 4);
    ASSERT_EQ(result.step_offered_gbps.size(), 4u);
    ASSERT_EQ(result.step_delivered_fraction.size(), 4u);
    ASSERT_EQ(result.step_p95_utilization.size(), 4u);
    EXPECT_GT(result.metrics.offered_gbps_mean, 0.0);
    EXPECT_GE(result.metrics.delivered_fraction, 0.0);
    EXPECT_LE(result.metrics.delivered_fraction, 1.0 + 1e-12);
    EXPECT_GE(result.metrics.max_link_utilization, result.metrics.p95_link_utilization);
    for (double f : result.step_delivered_fraction) {
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0 + 1e-12);
    }
}

TEST(TrafficSweep, MassiveLossReducesDeliveredThroughput)
{
    const demand::demand_model model(test_population());
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const test::sweep_grid g(topo, stations, short_sweep());

    const auto baseline = run_traffic_sweep_timeline(g.builder, g.offsets, g.positions,
                                                     g.timeline({}), model);
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.6;
    loss.seed = 7;
    const auto degraded = run_traffic_sweep_timeline(g.builder, g.offsets, g.positions,
                                                     g.timeline(loss), model);

    const double ratio = delivered_throughput_ratio(baseline, degraded);
    EXPECT_GE(ratio, 0.0);
    EXPECT_LT(ratio, 1.0);
    // Offered load is a property of the demand model, not the network.
    EXPECT_DOUBLE_EQ(degraded.metrics.offered_gbps_mean,
                     baseline.metrics.offered_gbps_mean);
}

TEST(TrafficSweep, DeliveredThroughputRatioEdgeCases)
{
    // Empty sweeps (no steps) deliver nothing: the ratio degrades to 0
    // rather than dividing by zero, in either position.
    traffic_sweep_result empty;
    EXPECT_EQ(delivered_throughput_ratio(empty, empty), 0.0);

    traffic_sweep_result some;
    some.metrics.delivered_gbps_mean = 120.0;
    EXPECT_EQ(delivered_throughput_ratio(empty, some), 0.0);

    // A scenario that delivered nothing against a live baseline is a clean 0.
    EXPECT_DOUBLE_EQ(delivered_throughput_ratio(some, empty), 0.0);

    // A zero-*baseline* (delivered nothing despite steps) still reports 0 —
    // ratios against dead baselines are meaningless, not infinite.
    traffic_sweep_result dead;
    dead.n_steps = 4;
    dead.metrics.delivered_gbps_mean = 0.0;
    EXPECT_EQ(delivered_throughput_ratio(dead, some), 0.0);

    // The healthy case stays a plain quotient.
    traffic_sweep_result half = some;
    half.metrics.delivered_gbps_mean = 60.0;
    EXPECT_DOUBLE_EQ(delivered_throughput_ratio(some, half), 0.5);
}

TEST(TrafficSweep, RejectsDegenerateCapacityOptionsBeforeSweeping)
{
    const demand::demand_model model(test_population());
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const test::sweep_grid g(topo, stations, short_sweep());
    traffic_sweep_options options;
    options.capacity.k_rounds = 0;
    EXPECT_THROW(run_traffic_sweep_timeline(g.builder, g.offsets, g.positions,
                                            g.timeline({}), model, options),
                 contract_violation);
}

TEST(TrafficSweep, RejectsDegenerateMatrixOptionsBeforeSweeping)
{
    const demand::demand_model model(test_population());
    const auto topo = small_walker();
    const test::sweep_grid g(topo, stations_from_cities(4), short_sweep());
    const auto sweep_with = [&](const traffic_matrix_options& matrix) {
        traffic_sweep_options options;
        options.matrix = matrix;
        return run_traffic_sweep_timeline(g.builder, g.offsets, g.positions,
                                          g.timeline({}), model, options);
    };
    traffic_matrix_options infinite_demand;
    infinite_demand.total_demand_gbps = std::numeric_limits<double>::infinity();
    EXPECT_THROW(sweep_with(infinite_demand), contract_violation);
}

TEST(TrafficSweep, BitIdenticalAcrossThreadCounts)
{
    const demand::demand_model model(test_population());
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 3;

    const auto run_with = [&](unsigned threads) {
        set_thread_count(threads);
        const test::sweep_grid g(topo, stations, short_sweep());
        const auto result = run_traffic_sweep_timeline(
            g.builder, g.offsets, g.positions, g.timeline(loss), model);
        set_thread_count(0);
        return result;
    };
    const auto one = run_with(1);
    const auto two = run_with(2);

    EXPECT_EQ(one.metrics.offered_gbps_mean, two.metrics.offered_gbps_mean);
    EXPECT_EQ(one.metrics.delivered_gbps_mean, two.metrics.delivered_gbps_mean);
    EXPECT_EQ(one.metrics.delivered_fraction, two.metrics.delivered_fraction);
    EXPECT_EQ(one.metrics.mean_path_latency_ms, two.metrics.mean_path_latency_ms);
    EXPECT_EQ(one.metrics.mean_link_utilization, two.metrics.mean_link_utilization);
    EXPECT_EQ(one.metrics.p95_link_utilization, two.metrics.p95_link_utilization);
    EXPECT_EQ(one.metrics.max_link_utilization, two.metrics.max_link_utilization);
    EXPECT_EQ(one.metrics.congested_link_fraction,
              two.metrics.congested_link_fraction);
    EXPECT_EQ(one.step_offered_gbps, two.step_offered_gbps);
    EXPECT_EQ(one.step_delivered_fraction, two.step_delivered_fraction);
    EXPECT_EQ(one.step_p95_utilization, two.step_p95_utilization);
}

} // namespace
} // namespace ssplane::traffic

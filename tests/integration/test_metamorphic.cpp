// Metamorphic checks on the network_day constellation: properties that must
// hold between related runs, whatever the exact numbers are.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_cover.h"
#include "lsn/scenario.h"
#include "spectral/percolation.h"
#include "traffic/traffic_matrix.h"

namespace ssplane {
namespace {

/// The constellation `examples/network_day.cpp` designs and wires: the
/// greedy SS cover at 10 Gbps per satellite.
lsn::lsn_topology network_day_topology(const astro::instant& epoch)
{
    const demand::population_model population;
    const demand::demand_model demand(population);
    const auto design = core::greedy_ss_cover(core::make_design_problem(demand, 10.0));
    std::vector<constellation::ss_plane> planes;
    for (const auto& p : design.planes)
        planes.push_back({p.altitude_m, p.ltan_h, p.n_sats, 0.0});
    return lsn::build_ss_topology(planes, epoch);
}

TEST(Metamorphic, SupersetFailureMaskNeverRaisesConnectivity)
{
    // Random-loss draws on one seed are nested: the partial Fisher-Yates
    // picks the same first k satellites for every larger k. Losing more
    // satellites can only split components and cut routes, so at every step
    // the giant fraction (both the survivability and the percolation
    // engine's) and the station-pair reachability never rise.
    const auto epoch = astro::instant::from_calendar(2026, 6, 1, 0);
    const auto topology = network_day_topology(epoch);
    ASSERT_GT(topology.satellites.size(), 1000u);
    lsn::scenario_sweep_options grid;
    grid.duration_s = 86400.0;
    grid.step_s = 21600.0;
    const lsn::snapshot_builder builder(topology, traffic::stations_from_cities(12),
                                        epoch, grid.min_elevation_rad,
                                        grid.max_isl_range_m);
    const auto offsets = lsn::sweep_offsets(grid.duration_s, grid.step_s);
    const auto positions = builder.positions_at_offsets(offsets);
    spectral::percolation_options structure;
    structure.compute_lambda2 = false;
    structure.compute_clustering = false;

    std::vector<std::uint8_t> previous_mask;
    lsn::scenario_sweep_result previous;
    std::vector<double> previous_percolation;
    bool fragmented = false;
    for (const double fraction : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
        lsn::failure_scenario loss;
        loss.mode = lsn::failure_mode::random_loss;
        loss.loss_fraction = fraction;
        loss.seed = 3;
        const auto mask = lsn::sample_failures(topology, loss);
        const auto timeline = lsn::failure_timeline::from_static_mask(mask);
        const auto sweep =
            lsn::run_scenario_sweep_timeline(builder, offsets, positions, timeline);
        std::vector<double> percolation;
        for (std::size_t i = 0; i < offsets.size(); ++i)
            percolation.push_back(
                spectral::analyze_percolation(
                    builder.snapshot_from_positions(positions[i], mask), mask, structure)
                    .giant_component_fraction);

        if (!previous_mask.empty()) {
            for (std::size_t s = 0; s < mask.size(); ++s)
                ASSERT_GE(mask[s], previous_mask[s]) << "masks must be nested";
            for (std::size_t i = 0; i < offsets.size(); ++i) {
                EXPECT_LE(sweep.step_giant_fraction[i], previous.step_giant_fraction[i])
                    << fraction << " step " << i;
                EXPECT_LE(percolation[i], previous_percolation[i])
                    << fraction << " step " << i;
                EXPECT_LE(sweep.step_pair_reachable_fraction[i],
                          previous.step_pair_reachable_fraction[i])
                    << fraction << " step " << i;
            }
        }
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            EXPECT_EQ(sweep.step_giant_fraction[i], percolation[i]);
            fragmented = fragmented || sweep.step_giant_fraction[i] <
                                           1.0 - static_cast<double>(sweep.metrics.n_failed) /
                                                     static_cast<double>(mask.size());
        }
        previous_mask = mask;
        previous = sweep;
        previous_percolation = percolation;
    }
    // The ladder reaches broken graphs, not only intact ones.
    EXPECT_TRUE(fragmented);
}

} // namespace
} // namespace ssplane

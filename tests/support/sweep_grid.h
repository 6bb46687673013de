// Test fixture: one scenario-sweep time grid with its own snapshot builder
// and propagation pass, for tests that call the sweep engines' `_timeline`
// entry points directly. Built from the same (topology, stations, epoch,
// grid) inputs as an `exp::evaluation_context`, but independently of it.
#ifndef SSPLANE_TESTS_SUPPORT_SWEEP_GRID_H
#define SSPLANE_TESTS_SUPPORT_SWEEP_GRID_H

#include <utility>
#include <vector>

#include "lsn/scenario.h"

namespace ssplane::test {

struct sweep_grid {
    lsn::snapshot_builder builder;
    std::vector<double> offsets;
    std::vector<std::vector<vec3>> positions;

    /// `topology` must outlive the grid (the builder references it).
    sweep_grid(const lsn::lsn_topology& topology,
               std::vector<lsn::ground_station> stations,
               const lsn::scenario_sweep_options& grid = {},
               const astro::instant& epoch = astro::instant::j2000())
        : builder(topology, std::move(stations), epoch, grid.min_elevation_rad,
                  grid.max_isl_range_m),
          offsets(lsn::sweep_offsets(grid.duration_s, grid.step_s)),
          positions(builder.positions_at_offsets(offsets))
    {
    }

    /// The scenario's failure timeline on this grid (static modes: the
    /// one-row wrap of their `sample_failures` mask).
    lsn::failure_timeline timeline(const lsn::failure_scenario& scenario) const
    {
        return lsn::sample_failure_timeline(builder.topology(), scenario, offsets,
                                            builder.epoch());
    }
};

} // namespace ssplane::test

#endif // SSPLANE_TESTS_SUPPORT_SWEEP_GRID_H

// Input guards of every sweep entry point. Each engine has one entry point,
// its `_timeline` function, and every one of them runs the shared
// `lsn::sweep_steps` checks before any per-step work: positions must cover
// the offsets, and the timeline's satellite count must match the builder's.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serving_sweep.h"
#include "spectral/percolation.h"
#include "support/sweep_grid.h"
#include "tempo/bulk_sweep.h"
#include "traffic/traffic_sweep.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane {
namespace {

lsn::lsn_topology small_walker()
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 4;
    params.sats_per_plane = 6;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

using sweep_call =
    std::function<void(const lsn::snapshot_builder&, std::span<const double>,
                        const std::vector<std::vector<vec3>>&,
                        const lsn::failure_timeline&)>;

struct entry_point {
    std::string name;
    sweep_call call;
};

std::vector<entry_point> entry_points()
{
    static const demand::population_model population;
    static const demand::demand_model demand(population);
    serve::serving_options serving;
    serving.n_sessions = 2000;
    serving.seed = 1;
    const auto grid = std::make_shared<const serve::session_grid>(
        serve::sample_session_grid(population, serving));
    const std::vector<tempo::bulk_transfer_request> requests{
        {0, 2, 100.0, 0.0, 7200.0}};

    return {
        {"lsn::run_scenario_sweep_timeline",
         [](const auto& b, auto o, const auto& p, const auto& t) {
             lsn::run_scenario_sweep_timeline(b, o, p, t);
         }},
        {"traffic::run_traffic_sweep_timeline",
         [](const auto& b, auto o, const auto& p, const auto& t) {
             traffic::run_traffic_sweep_timeline(b, o, p, t, demand);
         }},
        {"spectral::run_percolation_sweep_timeline",
         [](const auto& b, auto o, const auto& p, const auto& t) {
             spectral::run_percolation_sweep_timeline(b, o, p, t);
         }},
        {"tempo::run_bulk_sweep_timeline",
         [requests](const auto& b, auto o, const auto& p, const auto& t) {
             tempo::run_bulk_sweep_timeline(b, o, p, t, requests);
         }},
        {"tempo::run_bulk_sweep_per_step_baseline_timeline",
         [requests](const auto& b, auto o, const auto& p, const auto& t) {
             tempo::run_bulk_sweep_per_step_baseline_timeline(b, o, p, t, requests);
         }},
        {"tempo::build_time_expanded_graph_timeline",
         [](const auto& b, auto o, const auto& p, const auto& t) {
             tempo::build_time_expanded_graph_timeline(b, o, p, t);
         }},
        {"tempo::materialize_snapshots_timeline",
         [](const auto& b, auto o, const auto& p, const auto& t) {
             tempo::materialize_snapshots_timeline(b, o, p, t);
         }},
        {"serve::run_serving_sweep_timeline",
         [grid, serving](const auto& b, auto o, const auto& p, const auto& t) {
             serve::run_serving_sweep_timeline(b, o, p, t, *grid, serving);
         }},
    };
}

TEST(SweepGuards, EveryEntryPointRejectsMismatchedInputs)
{
    const auto topo = small_walker();
    lsn::scenario_sweep_options options;
    options.duration_s = 7200.0;
    options.step_s = 1800.0;
    options.min_elevation_rad = deg2rad(25.0);
    const test::sweep_grid g(topo, traffic::stations_from_cities(4), options);
    const int n_sats = g.builder.n_satellites();

    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 2;
    const auto timeline = g.timeline(loss);

    const std::vector<std::vector<vec3>> short_positions(g.positions.begin(),
                                                         g.positions.end() - 1);
    const auto wrong_count = lsn::failure_timeline::from_static_mask(
        std::vector<std::uint8_t>(static_cast<std::size_t>(n_sats) + 1, 0));

    for (const auto& entry : entry_points()) {
        SCOPED_TRACE(entry.name);
        // Well-formed inputs pass, so each throw below is the guard's.
        EXPECT_NO_THROW(entry.call(g.builder, g.offsets, g.positions, timeline));
        EXPECT_THROW(entry.call(g.builder, g.offsets, short_positions, timeline),
                     contract_violation);
        EXPECT_THROW(entry.call(g.builder, g.offsets, g.positions, wrong_count),
                     contract_violation);
    }
}

} // namespace
} // namespace ssplane

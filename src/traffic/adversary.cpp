#include "traffic/adversary.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::traffic {

lsn::failure_timeline generate_adversary_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_scenario& scenario, const demand::demand_model& demand,
    const traffic_sweep_options& options)
{
    expects(scenario.mode == lsn::failure_mode::greedy_adversary,
            "adversary timeline needs a greedy_adversary scenario");
    const auto& topology = builder.topology();
    lsn::validate(scenario, topology);
    expects(positions.size() == offsets_s.size(),
            "positions must cover every sweep offset");
    validate(options.capacity);

    const int n = builder.n_satellites();
    const int n_steps = static_cast<int>(offsets_s.size());
    const int n_planes = lsn::plane_count(topology);

    auto timeline = lsn::failure_timeline::zeros(n, n_steps);
    if (n_steps == 0 || n == 0) return timeline;

    // The attacker's planning grid: every stride-th sweep step. Scoring a
    // candidate on the subsampled grid trades oracle fidelity for a
    // stride-fold cheaper search; stride 1 is the exact oracle.
    std::vector<double> eval_offsets;
    std::vector<std::vector<vec3>> eval_positions;
    for (int i = 0; i < n_steps; i += scenario.adversary_eval_stride) {
        eval_offsets.push_back(offsets_s[static_cast<std::size_t>(i)]);
        eval_positions.push_back(positions[static_cast<std::size_t>(i)]);
    }

    std::vector<std::uint8_t> current(static_cast<std::size_t>(n), 0);
    std::vector<std::uint8_t> plane_dead(static_cast<std::size_t>(n_planes), 0);
    const auto kill_plane = [&](int p, std::vector<std::uint8_t>& mask) {
        for (int s = 0; s < n; ++s)
            if (topology.satellites[static_cast<std::size_t>(s)].plane == p)
                mask[static_cast<std::size_t>(s)] = 1;
    };

    int fill_from = 0; // next timeline row still holding the previous mask
    for (int strike = 0; strike < scenario.adversary_budget; ++strike) {
        const int strike_step =
            scenario.adversary_first_strike_step +
            strike * scenario.adversary_strike_interval_steps;
        if (strike_step >= n_steps) break; // schedule ran past the horizon

        // Greedy choice: trial-kill every surviving plane and keep the one
        // that leaves the least delivered traffic. Candidates are scored in
        // parallel over the pool; each inner sweep then runs on its serial
        // path, bit-identical by the sweep's own contract. The argmin is a
        // serial scan in plane order with a strict `<`, so the choice and its
        // lowest-index tie-break never depend on the thread count.
        std::vector<int> candidates;
        for (int p = 0; p < n_planes; ++p)
            if (!plane_dead[static_cast<std::size_t>(p)]) candidates.push_back(p);
        if (candidates.empty()) break; // every plane already dead
        OBS_COUNT("traffic.adversary.strikes");
        OBS_COUNT_N("traffic.adversary.candidates", candidates.size());
        const auto delivered = parallel_map<double>(
            candidates.size(), [&](std::size_t c) {
                auto trial = current;
                kill_plane(candidates[c], trial);
                return run_traffic_sweep_timeline(
                           builder, eval_offsets, eval_positions,
                           lsn::failure_timeline::from_static_mask(std::move(trial)),
                           demand, options)
                    .metrics.delivered_gbps_mean;
            });
        std::size_t best = 0;
        for (std::size_t c = 1; c < delivered.size(); ++c)
            if (delivered[c] < delivered[best]) best = c;
        const int best_plane = candidates[best];

        // Rows up to the strike keep the pre-strike mask; the strike lands
        // at `strike_step` and is permanent.
        for (; fill_from < strike_step; ++fill_from)
            std::copy(current.begin(), current.end(), timeline.row(fill_from).begin());
        plane_dead[static_cast<std::size_t>(best_plane)] = 1;
        kill_plane(best_plane, current);
    }
    for (; fill_from < n_steps; ++fill_from)
        std::copy(current.begin(), current.end(), timeline.row(fill_from).begin());
    return timeline;
}

} // namespace ssplane::traffic

#include "core/walker_baseline.h"

#include <algorithm>
#include <cmath>

#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::core {

namespace {

constexpr double shell_spacing_m = 5.0e3;       // altitude offset between shells
constexpr double inclination_bucket_deg = 2.0; // sizing memoization granularity

} // namespace

walker_baseline_designer::walker_baseline_designer(const wd_baseline_options& options)
    : options_(options)
{
}

walker_baseline_designer::sized_shell_info walker_baseline_designer::sized_shell(
    double altitude_m, double inclination_deg, double min_elevation_rad)
{
    const long bucket = std::lround(inclination_deg / inclination_bucket_deg);
    const auto key = std::make_tuple(altitude_m, min_elevation_rad, bucket);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;

    const double sized_inclination =
        static_cast<double>(bucket) * inclination_bucket_deg;
    constellation::coverage_check_options check;
    check.min_elevation_rad = min_elevation_rad;
    check.max_latitude_deg = std::max(5.0, sized_inclination);
    check.grid_spacing_deg = options_.grid_spacing_deg;
    check.n_time_steps = options_.n_time_steps;

    sized_shell_info info;
    info.sizing = constellation::size_walker_for_coverage(
        altitude_m, deg2rad(sized_inclination), check);
    if (info.sizing.found && options_.credit_overlap_capacity) {
        // Generous reading: credit the shell with its *average* overlap
        // (a minimal continuous shell guarantees only 1 at its worst point
        // but averages 2-4 satellites in view).
        const auto sats = constellation::make_walker_delta(info.sizing.parameters);
        info.multiplicity = std::max(
            1, static_cast<int>(std::floor(constellation::mean_simultaneous_coverage(
                   sats, astro::instant::j2000(), check))));
    }
    cache_.emplace(key, info);
    return info;
}

wd_baseline_result walker_baseline_designer::design(const design_problem& problem)
{
    wd_baseline_result result;

    // Residual peak (over time-of-day) demand per latitude band; a shell at
    // inclination i serves every latitude with |lat| <= i.
    std::vector<double> residual = peak_demand_by_latitude(problem.demand);
    const auto lat_of = [&](std::size_t r) {
        return std::abs(problem.demand.latitude_center_deg(r));
    };

    int shell_index = 0;
    constexpr int max_shells = 100000;
    while (shell_index < max_shells) {
        // Highest latitude still demanding capacity.
        double max_lat = -1.0;
        double max_residual = 0.0;
        for (std::size_t r = 0; r < residual.size(); ++r) {
            if (residual[r] > 1e-9) {
                max_lat = std::max(max_lat, lat_of(r));
                max_residual = std::max(max_residual, residual[r]);
            }
        }
        if (max_lat < 0.0) break; // all demand satisfied

        ++shell_index;
        const double inclination_deg =
            std::max(options_.min_inclination_deg, max_lat);

        // Alternate shells above/below the design altitude, cycling the
        // offsets within +-20 steps so large stacks stay near the design
        // altitude instead of marching to unphysical heights.
        const double direction = (shell_index % 2 == 1) ? 1.0 : -1.0;
        const int step = ((shell_index + 1) / 2 - 1) % 20 + 1;
        const double altitude =
            problem.altitude_m + direction * shell_spacing_m * step;

        // Size at the problem's base altitude: the +-5 km shell offsets are
        // collision-avoidance cosmetics, and a base-altitude key keeps the
        // sizing cache consistent across run orders.
        const auto info =
            sized_shell(problem.altitude_m, inclination_deg, problem.min_elevation_rad);
        if (!info.sizing.found) {
            result.satisfied = false;
            // Remove the unserved band so the loop terminates.
            for (std::size_t r = 0; r < residual.size(); ++r)
                if (lat_of(r) >= inclination_deg - 1e-9) residual[r] = 0.0;
            continue;
        }

        constellation::walker_parameters params = info.sizing.parameters;
        params.altitude_m = altitude;
        // De-phase shells so same-index planes do not stack.
        params.raan0_rad = wrap_two_pi(0.37 * static_cast<double>(shell_index));
        params.anomaly0_rad = wrap_two_pi(0.61 * static_cast<double>(shell_index));
        result.shells.push_back({altitude, params});
        result.total_satellites += params.total();

        const double credit =
            options_.credit_overlap_capacity ? info.multiplicity : 1.0;
        for (std::size_t r = 0; r < residual.size(); ++r) {
            if (lat_of(r) <= inclination_deg + 1e-9)
                residual[r] = std::max(0.0, residual[r] - credit);
        }
    }
    return result;
}

} // namespace ssplane::core

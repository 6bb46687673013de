#include "core/greedy_cover.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "constellation/sun_sync.h"
#include "core/plane_trace.h"
#include "geo/coverage.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/rng.h"

namespace ssplane::core {

namespace {

constexpr int street_margin_sats = 0; // extra satellites beyond the street minimum

/// A stretch [begin, end) of covered flat cell indices within one row.
struct cell_run {
    std::size_t row = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

/// A plane's coverage mask as its covered runs in ascending index order.
using plane_runs = std::vector<cell_run>;

/// Residual demand a plane with the given runs would remove. Runs are walked
/// in ascending index order, the order of a dense pass over the grid, so the
/// sum is bit-identical to one.
double coverable_demand(const geo::grid2d& residual, const plane_runs& runs)
{
    double sum = 0.0;
    const auto values = residual.values();
    for (const auto& run : runs) {
        for (std::size_t i = run.begin; i < run.end; ++i)
            sum += std::min(values[i], 1.0);
    }
    return sum;
}

/// Subtract one capacity along the runs, clamping at zero; returns removed.
double apply_plane(geo::grid2d& residual, const plane_runs& runs)
{
    double removed = 0.0;
    const auto values = residual.values();
    for (const auto& run : runs) {
        for (std::size_t i = run.begin; i < run.end; ++i) {
            const double take = std::min(values[i], 1.0);
            values[i] -= take;
            removed += take;
        }
    }
    return removed;
}

struct seed_cell {
    bool found = false;
    std::size_t row = 0;
    std::size_t col = 0;
};

/// Memoized coverage runs for one greedy run. Planes are keyed by their
/// exact (inclination, ltan, swath): repeated seeds (cells needing several
/// capacities) solve to bit-identical LTANs, so their masks never get
/// rebuilt.
class mask_cache {
public:
    explicit mask_cache(const geo::lat_tod_grid& grid) : table_(grid) {}

    /// The returned reference stays valid for the cache's lifetime.
    const plane_runs& runs_for(double inclination_rad, double ltan_h, double swath_rad)
    {
        const auto key = std::make_tuple(inclination_rad, ltan_h, swath_rad);
        if (const auto it = cache_.find(key); it != cache_.end()) return it->second;
        table_.coverage_mask(inclination_rad, ltan_h, swath_rad, dense_);
        const std::size_t cols = table_.n_tod();
        plane_runs runs;
        for (std::size_t r = 0; r < table_.n_lat(); ++r) {
            const std::uint8_t* row = dense_.data() + r * cols;
            std::size_t c = 0;
            while (c < cols) {
                if (!row[c]) {
                    ++c;
                    continue;
                }
                const std::size_t first = c;
                while (c < cols && row[c]) ++c;
                runs.push_back({r, r * cols + first, r * cols + c});
            }
        }
        return cache_.emplace(key, std::move(runs)).first->second;
    }

private:
    sun_frame_table table_;
    std::vector<std::uint8_t> dense_; // scratch for coverage_mask
    std::map<std::tuple<double, double, double>, plane_runs> cache_;
};

/// Per-row maximum residual and the first column holding it, kept current
/// for seed_rule::max_demand. Values only fall, and only inside applied
/// runs, so a row's entry can change only when its recorded cell was hit.
class row_max_table {
public:
    explicit row_max_table(const geo::grid2d& residual) : rows_(residual.rows())
    {
        for (std::size_t r = 0; r < rows_.size(); ++r) rescan(residual, r);
    }

    void rescan(const geo::grid2d& residual, std::size_t row)
    {
        entry best;
        const auto values = residual.row_span(row);
        for (std::size_t c = 0; c < values.size(); ++c) {
            if (values[c] > best.value) best = {values[c], c};
        }
        rows_[row] = best;
    }

    /// Refresh the rows whose recorded maximum lies inside an applied run.
    /// A row without a positive cell never gains one, so it is skipped.
    void update(const geo::grid2d& residual, const plane_runs& runs)
    {
        for (const auto& run : runs) {
            const entry& max = rows_[run.row];
            const std::size_t at = run.row * residual.cols() + max.col;
            if (max.value > 0.0 && at >= run.begin && at < run.end)
                rescan(residual, run.row);
        }
    }

    /// First row-major cell holding the positive maximum: the first row
    /// whose maximum is strictly greater, at that row's first column.
    seed_cell pick() const
    {
        seed_cell seed;
        double best = 0.0;
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            if (rows_[r].value > best) {
                best = rows_[r].value;
                seed = {true, r, rows_[r].col};
            }
        }
        return seed;
    }

private:
    struct entry {
        double value = 0.0;
        std::size_t col = 0;
    };
    std::vector<entry> rows_;
};

seed_cell pick_seed(const geo::grid2d& residual, seed_rule rule,
                    const std::optional<row_max_table>& row_max, rng& random)
{
    seed_cell seed;
    const auto values = residual.values();
    switch (rule) {
    case seed_rule::max_demand:
        seed = row_max->pick();
        break;
    case seed_rule::min_demand: {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i] > 1e-12 && values[i] < best) {
                best = values[i];
                seed = {true, i / residual.cols(), i % residual.cols()};
            }
        }
        break;
    }
    case seed_rule::random_cell: {
        std::vector<std::size_t> positive;
        for (std::size_t i = 0; i < values.size(); ++i)
            if (values[i] > 1e-12) positive.push_back(i);
        if (!positive.empty()) {
            const auto pick = positive[static_cast<std::size_t>(
                random.uniform_int(0, static_cast<std::int64_t>(positive.size()) - 1))];
            seed = {true, pick / residual.cols(), pick % residual.cols()};
        }
        break;
    }
    }
    return seed;
}

} // namespace

int resolve_sats_per_plane(const design_problem& problem,
                           const ss_design_options& options)
{
    if (options.sats_per_plane > 0) return options.sats_per_plane;
    const auto cov =
        geo::coverage_geometry::from(problem.altitude_m, problem.min_elevation_rad);
    const int s_min = geo::min_sats_for_street(cov.earth_central_half_angle_rad);
    expects(s_min > 0, "no closed street exists at this altitude/elevation");
    return s_min + street_margin_sats;
}

ss_design_result greedy_ss_cover(const design_problem& problem,
                                 const ss_design_options& options)
{
    ss_design_result result;

    const auto inclination =
        constellation::sun_synchronous_inclination_rad(problem.altitude_m);
    expects(inclination.has_value(),
            "no sun-synchronous inclination at the problem altitude");

    const auto cov =
        geo::coverage_geometry::from(problem.altitude_m, problem.min_elevation_rad);
    const int sats_per_plane = resolve_sats_per_plane(problem, options);
    expects(geo::street_half_width_rad(cov.earth_central_half_angle_rad,
                                       sats_per_plane) >= 0.0,
            "sats_per_plane too small to close the street");

    // The plane's capacity swath is the full footprint half-angle: the
    // paper's greedy subtracts one satellite capacity from every grid point
    // covered by the plane's path (its satellites sweep the whole swath).
    const double swath = cov.earth_central_half_angle_rad;

    result.sats_per_plane = sats_per_plane;
    result.swath_half_width_rad = swath;

    geo::lat_tod_grid residual = problem.demand; // working copy
    rng random(options.seed);
    mask_cache masks(residual);
    std::optional<row_max_table> row_max;
    if (options.rule == seed_rule::max_demand) row_max.emplace(residual.field());

    for (int iteration = 0; iteration < options.max_planes; ++iteration) {
        const seed_cell seed = pick_seed(residual.field(), options.rule, row_max, random);
        if (!seed.found) break;

        const double lat = residual.latitude_center_deg(seed.row);
        const double tod = residual.tod_center_h(seed.col);
        const ltan_solutions ltans = ltan_through(*inclination, lat, tod);

        // The max-demand latitude is always reachable for SS inclinations at
        // LEO (|lat| <= ~82°); guard anyway by skipping unreachable rows.
        std::vector<std::pair<double, const plane_runs*>> candidates;
        const auto add_candidate = [&](std::optional<double> ltan) {
            if (!ltan) return;
            candidates.emplace_back(*ltan, &masks.runs_for(*inclination, *ltan, swath));
        };
        add_candidate(ltans.ascending);
        add_candidate(ltans.descending);
        if (candidates.empty()) {
            // Unreachable latitude: zero its row so the loop can progress and
            // report unsatisfied residual demand at the end.
            for (std::size_t c = 0; c < residual.n_tod(); ++c)
                residual.field()(seed.row, c) = 0.0;
            if (row_max) row_max->rescan(residual.field(), seed.row);
            continue;
        }

        // Scored serially: a pool dispatch per candidate costs more than the
        // run walk it would parallelize. First best wins ties.
        std::size_t best = 0;
        double best_cover = -1.0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const double cover = coverable_demand(residual.field(), *candidates[i].second);
            if (cover > best_cover) {
                best_cover = cover;
                best = i;
            }
        }

        const plane_runs& chosen = *candidates[best].second;
        const double removed = apply_plane(residual.field(), chosen);
        if (row_max) row_max->update(residual.field(), chosen);
        result.planes.push_back({candidates[best].first, *inclination,
                                 problem.altitude_m, sats_per_plane, removed});
    }

    result.total_satellites = static_cast<int>(result.planes.size()) * sats_per_plane;
    result.residual_demand = total_demand(residual);
    result.satisfied = result.residual_demand <= 1e-9;
    return result;
}

plane_lower_bounds ss_plane_lower_bounds(const design_problem& problem)
{
    plane_lower_bounds bounds;

    double max_cell = 0.0;
    for (double v : problem.demand.field().values()) max_cell = std::max(max_cell, v);
    bounds.per_cell_bound = static_cast<int>(std::ceil(max_cell));

    // Volume bound: one plane covers at most `mask size of an equatorial
    // plane` cells (the widest case) with one capacity each.
    const auto inclination =
        constellation::sun_synchronous_inclination_rad(problem.altitude_m);
    if (inclination) {
        const auto cov =
            geo::coverage_geometry::from(problem.altitude_m, problem.min_elevation_rad);
        const auto mask = plane_coverage_mask(problem.demand, *inclination, 12.0,
                                              cov.earth_central_half_angle_rad);
        double per_plane = 0.0;
        for (const auto m : mask) per_plane += m ? 1.0 : 0.0;
        if (per_plane > 0.0) {
            bounds.volume_bound = static_cast<int>(
                std::ceil(total_demand(problem.demand) / per_plane));
        }
    }
    return bounds;
}

} // namespace ssplane::core

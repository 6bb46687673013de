#include "radiation/flux_cache.h"

#include <algorithm>

#include "astro/frames.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::radiation {

flux_map_cache::flux_map_cache(const radiation_environment& env, double altitude_m,
                               double cell_deg)
    : env_(env), cell_deg_(cell_deg)
{
    const geo::lat_lon_grid geometry(cell_deg);
    n_lat_ = geometry.n_lat();
    n_lon_ = geometry.n_lon();
    cells_.resize(n_lat_ * n_lon_);

    parallel_for(n_lat_, [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r) {
            const double lat = geometry.latitude_center_deg(r);
            for (std::size_t c = 0; c < n_lon_; ++c) {
                const astro::geodetic g{lat, geometry.longitude_center_deg(c),
                                        altitude_m};
                cells_[r * n_lon_ + c] = env_.components_at(astro::geodetic_to_ecef(g));
            }
        }
    });
}

flux_maps flux_map_cache::flux_map(double activity) const
{
    flux_maps maps{geo::lat_lon_grid(cell_deg_), geo::lat_lon_grid(cell_deg_)};
    const auto electrons = maps.electrons.field().values();
    const auto protons = maps.protons.field().values();
    parallel_for(cells_.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const particle_flux f = env_.combine(cells_[i], activity);
            electrons[i] = f.electrons_cm2_s_mev;
            protons[i] = f.protons_cm2_s_mev;
        }
    });
    return maps;
}

geo::lat_lon_grid flux_map_cache::max_electron_map(
    std::span<const double> activities) const
{
    geo::lat_lon_grid out(cell_deg_);
    if (activities.empty()) return out;

    // The outer-belt component is >= 0 everywhere, so the per-cell max over
    // days is the flux at the day with the largest outer-belt scale — the
    // same value the direct per-day max loop lands on.
    double max_scale = env_.outer_activity_scale(activities[0]);
    for (const double a : activities.subspan(1))
        max_scale = std::max(max_scale, env_.outer_activity_scale(a));

    const auto values = out.field().values();
    parallel_for(cells_.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            values[i] = cells_[i].electron_inner + cells_[i].electron_outer * max_scale;
    });
    return out;
}

} // namespace ssplane::radiation

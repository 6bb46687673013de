// Cached belt geometry for map sweeps.
//
// Every map the paper plots evaluates the belt model on the same lat x lon
// lattice at a fixed altitude, varying only the solar-activity level between
// days. The activity enters the model as multiplicative scales (see
// flux_components in belts.h), so the lattice of activity-independent
// components can be built once and each day served by two multiplies per
// cell — turning max_electron_flux_map's O(days x cells) full model
// evaluations into one lattice build plus cheap per-day scaling, with
// results identical to the direct path (the same components feed the same
// combine()).
#ifndef SSPLANE_RADIATION_FLUX_CACHE_H
#define SSPLANE_RADIATION_FLUX_CACHE_H

#include <span>
#include <vector>

#include "radiation/fluence.h"

namespace ssplane::radiation {

/// Activity-independent flux components precomputed per cell of a lat x lon
/// grid at a fixed altitude. Immutable after construction; safe to share
/// across threads.
class flux_map_cache {
public:
    /// Builds the component lattice (parallelized over grid rows).
    flux_map_cache(const radiation_environment& env, double altitude_m,
                   double cell_deg);

    /// Electron + proton flux maps at one activity level — equal to
    /// evaluating the belt model at every cell center.
    flux_maps flux_map(double activity) const;

    /// Cell-wise maximum electron flux over a set of activity levels — equal
    /// to a per-day loop of direct evaluations. The outer-belt
    /// component is non-negative, so the cell maximum is attained at the
    /// maximum outer-belt activity scale.
    geo::lat_lon_grid max_electron_map(std::span<const double> activities) const;

    /// Cached components of one cell (row-major), for equivalence tests.
    const flux_components& cell(std::size_t row, std::size_t col) const noexcept
    {
        return cells_[row * n_lon_ + col];
    }

private:
    radiation_environment env_;
    double cell_deg_;
    std::size_t n_lat_;
    std::size_t n_lon_;
    std::vector<flux_components> cells_;
};

} // namespace ssplane::radiation

#endif // SSPLANE_RADIATION_FLUX_CACHE_H

#include "geo/coverage.h"

#include <cmath>

#include "astro/constants.h"
#include "geo/geodesy.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::geo {

coverage_geometry coverage_geometry::from(double altitude_m, double min_elevation_rad)
{
    expects(altitude_m > 0.0, "altitude must be positive");
    expects(min_elevation_rad >= 0.0 && min_elevation_rad < pi / 2.0,
            "min elevation must be in [0, pi/2)");

    const double re = astro::earth_mean_radius_m;
    const double r = re + altitude_m;

    coverage_geometry g;
    g.altitude_m = altitude_m;
    g.min_elevation_rad = min_elevation_rad;
    g.nadir_half_angle_rad = safe_asin(re * std::cos(min_elevation_rad) / r);
    g.earth_central_half_angle_rad = pi / 2.0 - min_elevation_rad - g.nadir_half_angle_rad;
    // Law of sines in the Earth-center / satellite / edge-point triangle.
    g.slant_range_m = re * std::sin(g.earth_central_half_angle_rad) /
                      std::sin(g.nadir_half_angle_rad);
    g.footprint_area_fraction = cap_area_fraction(g.earth_central_half_angle_rad);
    return g;
}

double street_half_width_rad(double lambda_rad, int sats_per_plane) noexcept
{
    if (sats_per_plane < 2) return 0.0;
    const double half_spacing = pi / static_cast<double>(sats_per_plane);
    if (half_spacing >= lambda_rad) return 0.0;
    return safe_acos(std::cos(lambda_rad) / std::cos(half_spacing));
}

int min_sats_for_street(double lambda_rad) noexcept
{
    if (lambda_rad <= 0.0) return 0;
    const int s = static_cast<int>(std::ceil(pi / lambda_rad));
    // π/S must be strictly below λ for a non-degenerate street.
    return (pi / static_cast<double>(s) < lambda_rad) ? s : s + 1;
}

} // namespace ssplane::geo

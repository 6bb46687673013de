#include "geo/geodesy.h"

#include <cmath>

#include "astro/constants.h"
#include "util/angles.h"

namespace ssplane::geo {

vec3 to_unit_vector(double latitude_deg, double longitude_deg) noexcept
{
    const double lat = deg2rad(latitude_deg);
    const double lon = deg2rad(longitude_deg);
    const double cl = std::cos(lat);
    return {cl * std::cos(lon), cl * std::sin(lon), std::sin(lat)};
}

double latitude_of(const vec3& unit) noexcept
{
    return rad2deg(safe_asin(unit.z / (unit.norm() > 0 ? unit.norm() : 1.0)));
}

double longitude_of(const vec3& unit) noexcept
{
    return rad2deg(std::atan2(unit.y, unit.x));
}

double central_angle_rad(double lat1_deg, double lon1_deg,
                         double lat2_deg, double lon2_deg) noexcept
{
    const double phi1 = deg2rad(lat1_deg);
    const double phi2 = deg2rad(lat2_deg);
    const double dphi = phi2 - phi1;
    const double dlambda = deg2rad(lon2_deg - lon1_deg);
    const double sp = std::sin(dphi / 2.0);
    const double sl = std::sin(dlambda / 2.0);
    const double h = sp * sp + std::cos(phi1) * std::cos(phi2) * sl * sl;
    return 2.0 * safe_asin(std::sqrt(h));
}

double central_angle_rad(const vec3& a, const vec3& b) noexcept
{
    return angle_between(a, b);
}

double surface_distance_m(double lat1_deg, double lon1_deg,
                          double lat2_deg, double lon2_deg) noexcept
{
    return astro::earth_mean_radius_m *
           central_angle_rad(lat1_deg, lon1_deg, lat2_deg, lon2_deg);
}

double cap_area_fraction(double half_angle_rad) noexcept
{
    return (1.0 - std::cos(half_angle_rad)) / 2.0;
}

} // namespace ssplane::geo

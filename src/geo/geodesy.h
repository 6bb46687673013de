// Spherical-Earth geometry helpers.
//
// Coverage analysis treats the Earth as a sphere of mean radius (the
// standard approximation in constellation design); the ellipsoid matters for
// frames, not for footprint geometry.
#ifndef SSPLANE_GEO_GEODESY_H
#define SSPLANE_GEO_GEODESY_H

#include "util/vec3.h"

namespace ssplane::geo {

/// Unit vector of a (geocentric) latitude/longitude direction, degrees in.
vec3 to_unit_vector(double latitude_deg, double longitude_deg) noexcept;

/// Geocentric latitude [deg] of a unit direction.
double latitude_of(const vec3& unit) noexcept;

/// Longitude [deg, (-180, 180]] of a unit direction.
double longitude_of(const vec3& unit) noexcept;

/// Central angle between two surface points given by lat/lon degrees [rad].
/// Numerically stable for antipodal and coincident points (haversine).
double central_angle_rad(double lat1_deg, double lon1_deg,
                         double lat2_deg, double lon2_deg) noexcept;

/// Central angle between two unit vectors [rad].
double central_angle_rad(const vec3& a, const vec3& b) noexcept;

/// Great-circle surface distance [m] between two lat/lon points.
double surface_distance_m(double lat1_deg, double lon1_deg,
                          double lat2_deg, double lon2_deg) noexcept;

/// Fraction of the sphere's area within a cap of angular radius `half_angle_rad`.
double cap_area_fraction(double half_angle_rad) noexcept;

} // namespace ssplane::geo

#endif // SSPLANE_GEO_GEODESY_H

// Inter-satellite-link topologies and time-sliced network snapshots
// (paper §5 research agenda: time-aware topology and routing).
//
// Walker shells use the standard +Grid (intra-plane ring + same-slot links
// to adjacent planes). SS constellations use intra-plane rings plus
// same-slot links between planes adjacent in LTAN.
#ifndef SSPLANE_LSN_TOPOLOGY_H
#define SSPLANE_LSN_TOPOLOGY_H

#include <string>
#include <utility>
#include <vector>

#include "astro/frames.h"
#include "constellation/sun_sync.h"
#include "constellation/walker.h"
#include "util/expects.h"

namespace ssplane::lsn {

/// Undirected inter-satellite link between satellite indices.
struct isl_link {
    int a = 0;
    int b = 0;
};

/// A constellation plus its (static) ISL wiring.
struct lsn_topology {
    std::vector<constellation::satellite> satellites;
    std::vector<isl_link> links;
};

/// +Grid topology for one Walker shell.
lsn_topology build_walker_grid_topology(const constellation::walker_parameters& params);

/// Degree-capped Walker topology for robustness studies (the percolation
/// suite's ISL-terminal-count axis). The wiring is built in layers:
///
///   * degree 2 — a serpentine global ring: each plane's slots form a
///     path, stitched plane-to-plane into one Hamiltonian cycle, so even
///     the cheapest terminal count yields a connected network;
///   * each further unit of degree adds one layer of same-slot chord
///     links whose plane reach grows with the layer (reach 2, 3, ... —
///     layer r starts from planes with `plane % (2*reach) < reach`, so
///     chords tile the shell without piling onto one plane).
///
/// Longer-reach chords bridge longer runs of destroyed planes, which is
/// exactly why plane-attack resilience climbs with the degree cap. Links
/// never exceed `max_degree` per satellite: chords that would are greedily
/// skipped in deterministic (layer, plane, slot) order. Requires
/// `max_degree >= 2`.
lsn_topology build_walker_capped_topology(const constellation::walker_parameters& params,
                                          int max_degree);

/// Per-satellite ISL degree of the static wiring.
std::vector<int> link_degrees(const lsn_topology& topology);

/// Largest per-satellite ISL degree (0 when there are no satellites).
int max_link_degree(const lsn_topology& topology);

/// Ring + LTAN-adjacent topology for an SS constellation.
lsn_topology build_ss_topology(const std::vector<constellation::ss_plane>& planes,
                               const astro::instant& epoch);

/// A ground endpoint (user terminal or gateway).
struct ground_station {
    std::string name;
    double latitude_deg = 0.0;
    double longitude_deg = 0.0;
};

/// A dozen large metros spread over latitudes/longitudes, for experiments.
std::vector<ground_station> default_ground_stations();

/// Instantaneous network graph: satellites first, then ground stations.
struct network_snapshot {
    struct edge {
        int to = 0;
        double latency_s = 0.0;
    };
    std::vector<vec3> positions_ecef_m;     ///< Node positions (sats + ground).
    std::vector<std::vector<edge>> adjacency;
    int n_satellites = 0;
    int n_ground = 0;

    int ground_node(int ground_index) const
    {
        expects(ground_index >= 0 && ground_index < n_ground,
                "ground index out of range");
        return n_satellites + ground_index;
    }
};

/// Undirected link numbering of a snapshot, shared by every engine that
/// keeps per-link state (traffic loads, tempo capacity slots). One link per
/// distinct node pair, numbered in (lower node, adjacency slot) order; a
/// pair listed twice in a row maps both slots to its first link. The
/// builders emit no repeated pairs, so no snapshot the stack builds has one.
struct snapshot_links {
    struct link {
        int a = 0;              ///< Lower node index.
        int b = 0;              ///< Higher node index.
        double latency_s = 0.0; ///< Latency of `a`'s first slot to `b`.
    };
    std::vector<link> links;
    std::vector<std::size_t> first_slot; ///< Node u's slots start here.
    std::vector<int> slot_link;          ///< Link id per adjacency slot.

    /// Link id of adjacency slot `j` of node `u`.
    int at(int u, std::size_t j) const
    {
        return slot_link[first_slot[static_cast<std::size_t>(u)] + j];
    }
};

/// Number the links of `snapshot`. Self loops and asymmetric adjacency (a
/// slot u -> v without any v -> u) are a `contract_violation`.
snapshot_links number_links(const network_snapshot& snapshot);

/// Union-find over nodes [0, n) with union by size and path halving — the
/// one connected-components kernel (`giant_component_fraction`, the
/// percolation analyzer). Component membership and sizes depend only on
/// the edge set, never on the order of `unite` calls.
class union_find {
public:
    explicit union_find(int n)
        : parent_(static_cast<std::size_t>(n)), size_(parent_.size(), 1)
    {
        for (int i = 0; i < n; ++i) parent(i) = i;
    }

    /// Representative node of `x`'s component.
    int find(int x)
    {
        while (parent(x) != x) {
            parent(x) = parent(parent(x));
            x = parent(x);
        }
        return x;
    }
    /// Join the components of `a` and `b`; false when already joined.
    bool unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b) return false;
        if (size(a) < size(b)) std::swap(a, b);
        parent(b) = a;
        size(a) += size(b);
        return true;
    }
    /// Node count of `x`'s component.
    int component_size(int x) { return size(find(x)); }

private:
    int& parent(int x) { return parent_[static_cast<std::size_t>(x)]; }
    int& size(int x) { return size_[static_cast<std::size_t>(x)]; }
    std::vector<int> parent_;
    std::vector<int> size_;
};

/// Build the graph at time `t`: ISLs within `max_isl_range_m` plus ground
/// links wherever a satellite is above `min_elevation_rad`. Latencies are
/// geometric distance over the speed of light.
network_snapshot snapshot_at(const lsn_topology& topology,
                             const std::vector<ground_station>& stations,
                             const astro::instant& epoch,
                             const astro::instant& t,
                             double min_elevation_rad,
                             double max_isl_range_m = 6.0e6);

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_TOPOLOGY_H

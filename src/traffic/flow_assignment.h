// Capacity-aware multipath flow assignment over one network snapshot.
//
// Greedy k-round water-filling: every round freezes a congestion-penalized
// latency weight on each link, computes one shortest-path tree per
// *source* gateway through the one Dijkstra core in `lsn/routing`, and
// routes each pair's remaining demand along its tree path up to the path's
// bottleneck residual capacity. Demand that does not fit spills to the
// next round, where saturated links are out of service and loaded links
// weigh more — the k rounds therefore realize k-shortest-path splitting
// without per-pair re-Dijkstra. Each assignment builds one CSR route graph
// and overwrites its slot weights in place every round (a saturated link's
// slots get +inf, which never relaxes), reuses one set of Dijkstra buffers
// across sources and rounds, and stops a source's pass once every ground
// that source still owes demand is settled. Pair order is fixed (a < b, row
// order), so results are deterministic. Loads are kept per
// `lsn::number_links` link — one per distinct node pair, the numbering the
// tempo engine's capacity slots use.
#ifndef SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H
#define SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H

#include <vector>

#include "lsn/topology.h"
#include "traffic/traffic_matrix.h"

namespace ssplane::traffic {

/// Link capacities and assignment knobs.
struct capacity_options {
    double isl_capacity_gbps = 20.0;    ///< Per inter-satellite link.
    double uplink_capacity_gbps = 40.0; ///< Per ground<->satellite link.
    int k_rounds = 4;                   ///< Water-filling rounds (path diversity).
    /// Weight multiplier slope on utilization: weight = latency *
    /// (1 + congestion_penalty * load/capacity). 0 = pure latency rounds.
    double congestion_penalty = 4.0;
    /// Links at or above this utilization count as congested.
    double congested_threshold = 0.999;
};

/// Reject degenerate capacity knobs — non-positive or non-finite link
/// capacities, `k_rounds < 1`, a negative congestion penalty or a
/// non-positive congestion threshold — with a clear `contract_violation`
/// instead of silently producing degenerate assignments. Every assignment
/// and sweep entry point calls this; callers constructing options
/// programmatically can call it early themselves.
void validate(const capacity_options& options);

/// One undirected link of the loaded network (`lsn::number_links` order).
struct link_load {
    int a = 0;                  ///< Node index (satellite or ground).
    int b = 0;                  ///< Node index, b > a.
    double latency_s = 0.0;     ///< Propagation latency of the link.
    double capacity_gbps = 0.0;
    double load_gbps = 0.0;
    bool uplink = false;        ///< Ground<->satellite link (else ISL).

    double utilization() const
    {
        return capacity_gbps > 0.0 ? load_gbps / capacity_gbps : 0.0;
    }
    friend bool operator==(const link_load&, const link_load&) = default;
};

/// Delivered-throughput outcome of one assignment.
struct flow_result {
    double offered_gbps = 0.0;
    double delivered_gbps = 0.0;
    double delivered_fraction = 1.0; ///< delivered/offered; 1 when offered = 0.
    double mean_path_latency_ms = 0.0; ///< Flow-weighted over delivered traffic.
    /// Sum over delivered flow of flow x path latency [Gbps*s] — the exact
    /// numerator of `mean_path_latency_ms`, for cross-step pooling.
    double latency_flow_sum_gbps_s = 0.0;
    int n_links = 0;
    int congested_links = 0;
    double mean_utilization = 0.0;
    double p95_utilization = 0.0;
    double max_utilization = 0.0;
    std::vector<double> pair_delivered_gbps; ///< Row-major symmetric n x n.
    std::vector<link_load> links;            ///< Per-link loads after assignment.

    double pair_delivered(int a, int b) const
    {
        return pair_delivered_gbps[static_cast<std::size_t>(a) *
                                       static_cast<std::size_t>(n_stations) +
                                   static_cast<std::size_t>(b)];
    }
    int n_stations = 0;

    friend bool operator==(const flow_result&, const flow_result&) = default;
};

/// Assign `matrix` over `snapshot` (matrix.n_stations must equal
/// snapshot.n_ground). Fast path: one Dijkstra tree per source per round.
flow_result assign_flows(const lsn::network_snapshot& snapshot,
                         const traffic_matrix& matrix,
                         const capacity_options& options = {});

/// Reference baseline: identical water-filling semantics but one
/// point-to-point Dijkstra per (pair, round) on weights refilled from the
/// live loads before every query — the naive implementation the fast
/// path is benchmarked against (`bm_traffic_assign` vs
/// `bm_traffic_assign_baseline`). Results can differ slightly from
/// `assign_flows` because the naive weights see mid-round loads.
flow_result assign_flows_per_pair_baseline(const lsn::network_snapshot& snapshot,
                                           const traffic_matrix& matrix,
                                           const capacity_options& options = {});

} // namespace ssplane::traffic

#endif // SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H

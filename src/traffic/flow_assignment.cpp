#include "traffic/flow_assignment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lsn/routing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/stats.h"

namespace ssplane::traffic {

namespace {

constexpr double flow_eps_gbps = 1e-9;

/// Per-link load state over a snapshot's `lsn::number_links` numbering.
struct edge_table {
    lsn::snapshot_links ids;
    std::vector<link_load> links; ///< Indexed by link id.
};

edge_table build_edge_table(const lsn::network_snapshot& snapshot,
                            const capacity_options& options)
{
    edge_table table{lsn::number_links(snapshot), {}};
    table.links.reserve(table.ids.links.size());
    for (const auto& id : table.ids.links) {
        link_load link;
        link.a = id.a;
        link.b = id.b;
        link.latency_s = id.latency_s;
        link.uplink = id.b >= snapshot.n_satellites;
        link.capacity_gbps =
            link.uplink ? options.uplink_capacity_gbps : options.isl_capacity_gbps;
        table.links.push_back(link);
    }
    return table;
}

/// Overwrite `graph`'s weights from the live loads: a saturated link's
/// slots get +inf (they never relax), a loaded link weighs latency * (1 +
/// penalty * utilization). `latency_s` holds each slot's own latency.
void reweigh(const edge_table& table, const std::vector<double>& latency_s,
             const capacity_options& options, lsn::route_graph& graph)
{
    for (std::size_t s = 0; s < graph.weight.size(); ++s) {
        const auto& link = table.links[static_cast<std::size_t>(table.ids.slot_link[s])];
        graph.weight[s] = link.capacity_gbps - link.load_gbps <= flow_eps_gbps
                              ? std::numeric_limits<double>::infinity()
                              : latency_s[s] * (1.0 + options.congestion_penalty *
                                                          link.utilization());
    }
}

/// Link ids of the last pass's path from its source to `node`, source
/// first; empty when `node` was not reached. The route graph's slots are
/// numbered like `table.ids`, so each hop is one slot lookup.
void path_links(const lsn::shortest_path_search& search, const edge_table& table,
                int node, std::vector<int>& links)
{
    links.clear();
    for (int v = node; search.prev_slot(v) != -1; v = search.prev_node(v))
        links.push_back(
            table.ids.slot_link[static_cast<std::size_t>(search.prev_slot(v))]);
    std::reverse(links.begin(), links.end());
}

/// Route as much of `remaining` as fits along `links` (link ids, source
/// first), bounded by the bottleneck residual capacity. Returns the flow
/// placed.
double place_flow_on_path(const std::vector<int>& links, double remaining,
                          edge_table& table, double& latency_flow_sum_s)
{
    if (links.empty()) return 0.0;
    double bottleneck = std::numeric_limits<double>::infinity();
    double path_latency_s = 0.0;
    for (const int id : links) {
        const auto& link = table.links[static_cast<std::size_t>(id)];
        bottleneck = std::min(bottleneck, link.capacity_gbps - link.load_gbps);
        path_latency_s += link.latency_s;
    }
    const double flow = std::min(remaining, bottleneck);
    if (flow <= flow_eps_gbps) return 0.0;
    for (const int id : links) table.links[static_cast<std::size_t>(id)].load_gbps += flow;
    latency_flow_sum_s += flow * path_latency_s;
    return flow;
}

/// Reduce link loads and delivered totals into the result metrics.
flow_result finalize(const traffic_matrix& matrix, edge_table table,
                     std::vector<double> pair_delivered, double offered,
                     double delivered, double latency_flow_sum_s,
                     const capacity_options& options)
{
    flow_result result;
    result.n_stations = matrix.n_stations;
    result.offered_gbps = offered;
    result.delivered_gbps = delivered;
    result.delivered_fraction = offered > 0.0 ? delivered / offered : 1.0;
    result.latency_flow_sum_gbps_s = latency_flow_sum_s;
    result.mean_path_latency_ms =
        delivered > 0.0 ? latency_flow_sum_s / delivered * 1000.0 : 0.0;
    result.pair_delivered_gbps = std::move(pair_delivered);
    result.links = std::move(table.links);
    result.n_links = static_cast<int>(result.links.size());

    std::vector<double> utilization;
    utilization.reserve(result.links.size());
    for (const auto& link : result.links) utilization.push_back(link.utilization());
    std::sort(utilization.begin(), utilization.end());
    result.mean_utilization = mean(utilization);
    result.p95_utilization = percentile_sorted(utilization, 95.0);
    result.max_utilization = utilization.empty() ? 0.0 : utilization.back();
    result.congested_links = static_cast<int>(std::count_if(
        utilization.begin(), utilization.end(),
        [&](double u) { return u >= options.congested_threshold; }));
    return result;
}

/// The water-filling round loop of both paths. Per round and source, the
/// fast path (`per_pair_baseline` false) weighs the graph once and runs one
/// Dijkstra pass that stops when every ground still owed demand by that
/// source is settled; the baseline reweighs from live loads and runs a
/// point-to-point pass before every pair.
flow_result run_rounds(const lsn::network_snapshot& snapshot,
                       const traffic_matrix& matrix,
                       const capacity_options& options, bool per_pair_baseline)
{
    OBS_SPAN("traffic.assign");
    OBS_COUNT("traffic.assign.calls");
    expects(matrix.n_stations == snapshot.n_ground,
            "traffic matrix does not match snapshot ground set");
    validate(options);

    const int n = matrix.n_stations;
    edge_table table = build_edge_table(snapshot, options);
    lsn::route_graph graph = lsn::make_route_graph(snapshot);
    const std::vector<double> latency_s = graph.weight;
    lsn::shortest_path_search search;
    std::vector<int> targets;
    std::vector<int> links;

    std::vector<double> remaining(matrix.demand_gbps);
    std::vector<double> pair_delivered(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
    const auto at = [n](std::vector<double>& m, int a, int b) -> double& {
        return m[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(b)];
    };

    double offered = 0.0;
    for (int a = 0; a + 1 < n; ++a)
        for (int b = a + 1; b < n; ++b) offered += at(remaining, a, b);

    double delivered = 0.0;
    double latency_flow_sum_s = 0.0;
    double total_remaining = offered;
    for (int round = 0; round < options.k_rounds && total_remaining > flow_eps_gbps;
         ++round) {
        OBS_COUNT("traffic.assign.rounds");
        double round_flow = 0.0;
        if (!per_pair_baseline) reweigh(table, latency_s, options, graph);
        for (int a = 0; a + 1 < n; ++a) {
            // Fast path: one pass per source serves all its pairs this
            // round, run lazily so a source owed nothing costs nothing.
            // Its targets are exactly the pairs the loop below routes:
            // placing one pair's flow changes no other pair's remainder.
            bool searched = false;
            for (int b = a + 1; b < n; ++b) {
                double& pair_remaining = at(remaining, a, b);
                if (pair_remaining <= flow_eps_gbps) continue;
                if (per_pair_baseline) {
                    reweigh(table, latency_s, options, graph);
                    const int target[] = {snapshot.ground_node(b)};
                    search.run(graph, snapshot.ground_node(a), target);
                } else if (!searched) {
                    targets.clear();
                    for (int c = b; c < n; ++c)
                        if (at(remaining, a, c) > flow_eps_gbps)
                            targets.push_back(snapshot.ground_node(c));
                    search.run(graph, snapshot.ground_node(a), targets);
                    searched = true;
                }
                path_links(search, table, snapshot.ground_node(b), links);
                const double flow = place_flow_on_path(links, pair_remaining, table,
                                                       latency_flow_sum_s);
                if (flow <= 0.0) continue;
                pair_remaining -= flow;
                total_remaining -= flow;
                delivered += flow;
                round_flow += flow;
                at(pair_delivered, a, b) += flow;
                at(pair_delivered, b, a) += flow;
            }
        }
        // A zero-yield round changed no load, so every later round would
        // recompute identical weights and trees to place nothing: stop.
        if (round_flow <= flow_eps_gbps) break;
    }
    return finalize(matrix, std::move(table), std::move(pair_delivered), offered,
                    delivered, latency_flow_sum_s, options);
}

} // namespace

void validate(const capacity_options& options)
{
    expects(std::isfinite(options.isl_capacity_gbps) &&
                options.isl_capacity_gbps > 0.0,
            "ISL capacity must be finite and positive");
    expects(std::isfinite(options.uplink_capacity_gbps) &&
                options.uplink_capacity_gbps > 0.0,
            "uplink capacity must be finite and positive");
    expects(options.k_rounds >= 1, "need at least one assignment round");
    expects(std::isfinite(options.congestion_penalty) &&
                options.congestion_penalty >= 0.0,
            "congestion penalty must be finite and non-negative");
    expects(options.congested_threshold > 0.0,
            "congested threshold must be positive");
}

flow_result assign_flows(const lsn::network_snapshot& snapshot,
                         const traffic_matrix& matrix,
                         const capacity_options& options)
{
    return run_rounds(snapshot, matrix, options, /*per_pair_baseline=*/false);
}

flow_result assign_flows_per_pair_baseline(const lsn::network_snapshot& snapshot,
                                           const traffic_matrix& matrix,
                                           const capacity_options& options)
{
    return run_rounds(snapshot, matrix, options, /*per_pair_baseline=*/true);
}

} // namespace ssplane::traffic

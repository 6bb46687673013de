#include "tempo/bulk_router.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"

namespace ssplane::tempo {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();
constexpr double volume_eps_gb = 1e-9;
constexpr double time_eps_s = 1e-6;
/// Cap on augmenting paths per request: a runaway guard, not a tuning knob;
/// the solver stops early once a request is routed or cut off.
constexpr int max_paths_per_request = 1024;

void validate_requests(int n_ground,
                       std::span<const bulk_transfer_request> requests)
{
    for (const auto& r : requests) {
        expects(r.src_ground >= 0 && r.src_ground < n_ground &&
                    r.dst_ground >= 0 && r.dst_ground < n_ground,
                "request gateway index out of range");
        expects(r.src_ground != r.dst_ground,
                "request source and destination must differ");
        expects(std::isfinite(r.volume_gb) && r.volume_gb > 0.0,
                "request volume must be positive");
        expects(r.release_s >= 0.0 && r.deadline_s > r.release_s,
                "request needs release_s >= 0 and deadline_s > release_s");
    }
}

/// First step whose start is at or after the release time; n_steps when the
/// release falls past the grid.
int release_step_of(const std::vector<double>& offsets_s, double release_s)
{
    const auto it = std::lower_bound(offsets_s.begin(), offsets_s.end(),
                                     release_s - time_eps_s);
    return static_cast<int>(it - offsets_s.begin());
}

/// Last step whose full interval ends by the deadline; -1 when none does.
int deadline_step_of(const time_expanded_graph& graph, double deadline_s)
{
    int last = -1;
    for (int i = 0; i < graph.n_steps; ++i) {
        if (graph.step_end_s(i) <= deadline_s + time_eps_s) last = i;
    }
    return last;
}

/// Reduce per-request slots into the aggregate result.
bulk_route_result finalize(std::vector<bulk_transfer_result> requests,
                           std::vector<double> high_water)
{
    bulk_route_result result;
    result.requests = std::move(requests);
    for (const auto& r : result.requests) {
        result.offered_gb += r.volume_gb;
        result.delivered_gb += r.delivered_gb;
    }
    result.delivered_fraction = result.offered_gb > 0.0
                                    ? result.delivered_gb / result.offered_gb
                                    : 1.0;
    result.sat_buffer_high_water_gb = std::move(high_water);
    for (const double hw : result.sat_buffer_high_water_gb)
        result.max_buffer_gb = std::max(result.max_buffer_gb, hw);
    return result;
}

} // namespace

bulk_route_result route_bulk_transfers(time_expanded_graph& graph,
                                       std::span<const bulk_transfer_request> requests)
{
    OBS_SPAN("tempo.bulk.route");
    OBS_COUNT("tempo.bulk.route_calls");
    validate_requests(graph.n_ground, requests);
    const int n_nodes = graph.n_nodes();
    const int n_time_nodes = graph.n_time_nodes();

    // Dijkstra state, reused across augmentations.
    std::vector<double> arrival_s(static_cast<std::size_t>(n_time_nodes));
    std::vector<std::int64_t> prev_arc(static_cast<std::size_t>(n_time_nodes));
    std::vector<int> prev_tn(static_cast<std::size_t>(n_time_nodes));
    using queue_item = std::pair<double, int>; // (arrival, time-node)
    std::priority_queue<queue_item, std::vector<queue_item>, std::greater<>> queue;

    /// Earliest-arrival pass over the residual graph from (src, from_step),
    /// confined to steps <= deadline_step. Returns the first-settled
    /// destination time-node, or -1 when the destination is cut off. Ties
    /// settle the lowest time-node id first, so results are deterministic.
    const auto earliest_arrival = [&](int src_node, int dst_node, int from_step,
                                      int deadline_step) {
        std::fill(arrival_s.begin(), arrival_s.end(), inf);
        std::fill(prev_arc.begin(), prev_arc.end(), std::int64_t{-1});
        const int start = graph.time_node(src_node, from_step);
        const int step_limit_tn = (deadline_step + 1) * n_nodes;
        arrival_s[static_cast<std::size_t>(start)] =
            graph.offsets_s[static_cast<std::size_t>(from_step)];
        queue = {};
        queue.emplace(arrival_s[static_cast<std::size_t>(start)], start);
        while (!queue.empty()) {
            const auto [d, u] = queue.top();
            queue.pop();
            if (d > arrival_s[static_cast<std::size_t>(u)]) continue;
            if (graph.node_of(u) == dst_node) return u;
            for (std::int64_t k = graph.arc_begin[static_cast<std::size_t>(u)];
                 k < graph.arc_begin[static_cast<std::size_t>(u) + 1]; ++k) {
                const auto& arc = graph.arcs[static_cast<std::size_t>(k)];
                if (arc.to >= step_limit_tn) continue;
                const bool storage =
                    arc.slot < 0 ||
                    graph.slots[static_cast<std::size_t>(arc.slot)].storage;
                if (arc.slot >= 0 &&
                    graph.slots[static_cast<std::size_t>(arc.slot)].residual_gb() <=
                        volume_eps_gb)
                    continue;
                // Storage arcs wait for the next step boundary; transmission
                // arcs add their propagation latency within the step.
                const double nd =
                    storage ? std::max(d, graph.offsets_s[static_cast<std::size_t>(
                                              graph.step_of(arc.to))])
                            : d + arc.traverse_s;
                if (nd < arrival_s[static_cast<std::size_t>(arc.to)]) {
                    arrival_s[static_cast<std::size_t>(arc.to)] = nd;
                    prev_arc[static_cast<std::size_t>(arc.to)] = k;
                    prev_tn[static_cast<std::size_t>(arc.to)] = u;
                    queue.emplace(nd, arc.to);
                }
            }
        }
        return -1;
    };

    std::vector<bulk_transfer_result> slots(requests.size());
    std::vector<int> path_slots;
    for (std::size_t ri = 0; ri < requests.size(); ++ri) {
        const auto& request = requests[ri];
        auto& out = slots[ri];
        out.volume_gb = request.volume_gb;

        const int src_node = graph.n_satellites + request.src_ground;
        const int dst_node = graph.n_satellites + request.dst_ground;
        const int release_step = release_step_of(graph.offsets_s, request.release_s);
        const int deadline_step = deadline_step_of(graph, request.deadline_s);
        if (release_step >= graph.n_steps || deadline_step < release_step) continue;

        double remaining = request.volume_gb;
        for (int path = 0; path < max_paths_per_request &&
                           remaining > volume_eps_gb;
             ++path) {
            const int arrived_tn =
                earliest_arrival(src_node, dst_node, release_step, deadline_step);
            if (arrived_tn < 0) break;

            // Walk the predecessor chain, collect capacity slots, bottleneck.
            path_slots.clear();
            double bottleneck = remaining;
            for (int tn = arrived_tn;
                 prev_arc[static_cast<std::size_t>(tn)] >= 0;
                 tn = prev_tn[static_cast<std::size_t>(tn)]) {
                const auto& arc = graph.arcs[static_cast<std::size_t>(
                    prev_arc[static_cast<std::size_t>(tn)])];
                if (arc.slot < 0) continue;
                path_slots.push_back(arc.slot);
                bottleneck = std::min(
                    bottleneck,
                    graph.slots[static_cast<std::size_t>(arc.slot)].residual_gb());
            }
            if (bottleneck <= volume_eps_gb) break;
            for (const int s : path_slots)
                graph.slots[static_cast<std::size_t>(s)].load_gb += bottleneck;
            remaining -= bottleneck;
            out.delivered_gb += bottleneck;
            out.completion_s = graph.step_end_s(graph.step_of(arrived_tn));
            ++out.n_paths;
            OBS_COUNT("tempo.bulk.augmentations");
        }
        out.delivered_fraction = out.delivered_gb / out.volume_gb;
        out.complete = remaining <= volume_eps_gb;
    }
    return finalize(std::move(slots), graph.satellite_buffer_high_water_gb());
}

bulk_route_result route_bulk_transfers_per_step_baseline(
    std::span<const lsn::network_snapshot> snapshots,
    std::span<const double> offsets_s,
    std::span<const bulk_transfer_request> requests,
    const bulk_route_options& options)
{
    OBS_SPAN("tempo.bulk.per_step_baseline");
    validate(options);
    expects(!snapshots.empty() && snapshots.size() == offsets_s.size(),
            "need one offset per snapshot");
    const int n_ground = snapshots[0].n_ground;
    const int n_satellites = snapshots[0].n_satellites;
    validate_requests(n_ground, requests);
    const auto dwell = step_dwells(offsets_s, options.last_step_s);

    std::vector<bulk_transfer_result> slots(requests.size());
    std::vector<double> remaining(requests.size());
    for (std::size_t ri = 0; ri < requests.size(); ++ri) {
        slots[ri].volume_gb = requests[ri].volume_gb;
        remaining[ri] = requests[ri].volume_gb;
    }

    const auto pair_key = [n_ground](int a, int b) {
        return std::min(a, b) * n_ground + std::max(a, b);
    };
    std::vector<std::uint8_t> active(requests.size());
    std::vector<double> pool(static_cast<std::size_t>(n_ground) *
                             static_cast<std::size_t>(n_ground));
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        const double step_start = offsets_s[i];
        const double step_end = step_start + dwell[i];

        // A request competes this step once released, until its deadline can
        // no longer be met by the step's end — the same availability window
        // the time-expanded graph grants it.
        traffic::traffic_matrix matrix;
        matrix.n_stations = n_ground;
        matrix.demand_gbps.assign(pool.size(), 0.0);
        bool any_active = false;
        for (std::size_t ri = 0; ri < requests.size(); ++ri) {
            const auto& r = requests[ri];
            active[ri] = remaining[ri] > volume_eps_gb &&
                         r.release_s <= step_start + time_eps_s &&
                         step_end <= r.deadline_s + time_eps_s;
            if (!active[ri]) continue;
            any_active = true;
            const double demand = remaining[ri] / dwell[i];
            const auto ab = static_cast<std::size_t>(r.src_ground) *
                                static_cast<std::size_t>(n_ground) +
                            static_cast<std::size_t>(r.dst_ground);
            const auto ba = static_cast<std::size_t>(r.dst_ground) *
                                static_cast<std::size_t>(n_ground) +
                            static_cast<std::size_t>(r.src_ground);
            matrix.demand_gbps[ab] += demand;
            matrix.demand_gbps[ba] += demand;
        }
        if (!any_active) continue;
        for (int a = 0; a + 1 < n_ground; ++a)
            for (int b = a + 1; b < n_ground; ++b)
                matrix.total_gbps +=
                    matrix.demand_gbps[static_cast<std::size_t>(a) *
                                           static_cast<std::size_t>(n_ground) +
                                       static_cast<std::size_t>(b)];

        const auto flow =
            traffic::assign_flows(snapshots[i], matrix, options.capacity);

        // Attribute each pair's delivered volume to its active requests in
        // request order (deterministic; earlier requests have priority).
        std::fill(pool.begin(), pool.end(), 0.0);
        for (int a = 0; a + 1 < n_ground; ++a)
            for (int b = a + 1; b < n_ground; ++b)
                pool[static_cast<std::size_t>(pair_key(a, b))] =
                    flow.pair_delivered(a, b) * dwell[i];
        for (std::size_t ri = 0; ri < requests.size(); ++ri) {
            if (!active[ri]) continue;
            double& share = pool[static_cast<std::size_t>(
                pair_key(requests[ri].src_ground, requests[ri].dst_ground))];
            const double take = std::min(remaining[ri], share);
            if (take <= volume_eps_gb) continue;
            share -= take;
            remaining[ri] -= take;
            slots[ri].delivered_gb += take;
            slots[ri].completion_s = step_end;
            ++slots[ri].n_paths;
        }
    }
    for (std::size_t ri = 0; ri < requests.size(); ++ri) {
        slots[ri].delivered_fraction = slots[ri].delivered_gb / slots[ri].volume_gb;
        slots[ri].complete = remaining[ri] <= volume_eps_gb;
    }
    return finalize(std::move(slots),
                    std::vector<double>(static_cast<std::size_t>(n_satellites), 0.0));
}

} // namespace ssplane::tempo

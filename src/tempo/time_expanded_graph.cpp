#include "tempo/time_expanded_graph.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"

namespace ssplane::tempo {

void validate(const bulk_route_options& options)
{
    traffic::validate(options.capacity);
    expects(std::isfinite(options.sat_buffer_gb) && options.sat_buffer_gb >= 0.0,
            "satellite buffer must be finite and non-negative");
    expects(std::isfinite(options.last_step_s) && options.last_step_s >= 0.0,
            "last step dwell must be finite and non-negative");
}

std::vector<double> step_dwells(std::span<const double> offsets_s,
                                double last_step_s)
{
    expects(!offsets_s.empty(), "need at least one step");
    std::vector<double> dwell(offsets_s.size());
    for (std::size_t i = 0; i + 1 < offsets_s.size(); ++i) {
        dwell[i] = offsets_s[i + 1] - offsets_s[i];
        expects(dwell[i] > 0.0, "offsets must be strictly increasing");
    }
    if (last_step_s > 0.0)
        dwell.back() = last_step_s;
    else {
        expects(offsets_s.size() > 1,
                "single-step grids need an explicit last_step_s");
        dwell.back() = dwell[dwell.size() - 2];
    }
    return dwell;
}

void time_expanded_graph::reset_loads()
{
    for (auto& s : slots) s.load_gb = 0.0;
}

std::vector<double> time_expanded_graph::satellite_buffer_high_water_gb() const
{
    std::vector<double> high_water(static_cast<std::size_t>(n_satellites), 0.0);
    for (const auto& s : slots) {
        if (!s.storage || s.a >= n_satellites) continue;
        auto& hw = high_water[static_cast<std::size_t>(s.a)];
        hw = std::max(hw, s.load_gb);
    }
    return high_water;
}

time_expanded_graph build_time_expanded_graph_timeline(
    std::span<const lsn::network_snapshot> snapshots,
    std::span<const double> offsets_s, const lsn::failure_timeline& timeline,
    const bulk_route_options& options)
{
    OBS_SPAN("tempo.graph.build");
    OBS_COUNT("tempo.graph.builds");
    validate(options);
    expects(!snapshots.empty(), "need at least one snapshot");
    expects(snapshots.size() == offsets_s.size(),
            "need one offset per snapshot");

    time_expanded_graph graph;
    graph.n_satellites = snapshots[0].n_satellites;
    graph.n_ground = snapshots[0].n_ground;
    graph.n_steps = static_cast<int>(snapshots.size());
    graph.options = options;
    graph.offsets_s.assign(offsets_s.begin(), offsets_s.end());
    graph.dwell_s = step_dwells(offsets_s, options.last_step_s);
    lsn::validate(timeline);
    expects(timeline.n_steps == 0 ||
                timeline.n_satellites == graph.n_satellites,
            "timeline satellite count mismatch");

    const int n_nodes = graph.n_nodes();
    std::vector<std::vector<time_expanded_graph::arc>> adjacency(
        static_cast<std::size_t>(graph.n_time_nodes()));

    // Transmission arcs, step-major, node/adjacency order within a step;
    // slots follow the step's `lsn::number_links` order, the same link
    // numbering the traffic engine uses.
    for (int i = 0; i < graph.n_steps; ++i) {
        const auto& snap = snapshots[static_cast<std::size_t>(i)];
        expects(snap.n_satellites == graph.n_satellites &&
                    snap.n_ground == graph.n_ground,
                "snapshots must share one node set");
        const double dwell = graph.dwell_s[static_cast<std::size_t>(i)];
        const lsn::snapshot_links ids = lsn::number_links(snap);
        const int first_slot = static_cast<int>(graph.slots.size());
        for (const auto& link : ids.links) {
            time_expanded_graph::slot s;
            s.step = i;
            s.a = link.a;
            s.b = link.b;
            s.uplink = s.b >= graph.n_satellites;
            s.capacity_gb = (s.uplink ? options.capacity.uplink_capacity_gbps
                                      : options.capacity.isl_capacity_gbps) *
                            dwell;
            graph.slots.push_back(s);
        }
        for (int u = 0; u < n_nodes; ++u) {
            const auto& out = snap.adjacency[static_cast<std::size_t>(u)];
            for (std::size_t j = 0; j < out.size(); ++j)
                adjacency[static_cast<std::size_t>(graph.time_node(u, i))].push_back(
                    {graph.time_node(out[j].to, i), first_slot + ids.at(u, j),
                     out[j].latency_s});
        }

        // Storage arcs into the next step: buffered satellites (live at
        // this step, with a non-zero buffer) get a capacity slot; ground
        // stores for free. A satellite that dies mid-sweep loses its
        // storage arcs from its failure step on.
        if (i + 1 == graph.n_steps) continue;
        const auto step_failed = timeline.step(i);
        if (options.sat_buffer_gb > 0.0) {
            for (int s = 0; s < graph.n_satellites; ++s) {
                if (!step_failed.empty() &&
                    step_failed[static_cast<std::size_t>(s)] != 0)
                    continue;
                time_expanded_graph::slot store;
                store.step = i;
                store.a = s;
                store.b = s;
                store.storage = true;
                store.capacity_gb = options.sat_buffer_gb;
                adjacency[static_cast<std::size_t>(graph.time_node(s, i))].push_back(
                    {graph.time_node(s, i + 1),
                     static_cast<int>(graph.slots.size()), dwell});
                graph.slots.push_back(store);
            }
        }
        for (int g = 0; g < graph.n_ground; ++g) {
            const int node = graph.n_satellites + g;
            adjacency[static_cast<std::size_t>(graph.time_node(node, i))].push_back(
                {graph.time_node(node, i + 1), -1, dwell});
        }
    }

    graph.arc_begin.resize(adjacency.size() + 1);
    graph.arc_begin[0] = 0;
    for (std::size_t tn = 0; tn < adjacency.size(); ++tn)
        graph.arc_begin[tn + 1] =
            graph.arc_begin[tn] + static_cast<std::int64_t>(adjacency[tn].size());
    graph.arcs.reserve(static_cast<std::size_t>(graph.arc_begin.back()));
    for (const auto& list : adjacency)
        graph.arcs.insert(graph.arcs.end(), list.begin(), list.end());
    OBS_COUNT_N("tempo.graph.arcs", graph.arcs.size());
    return graph;
}

std::vector<lsn::network_snapshot> materialize_snapshots_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_timeline& timeline)
{
    return lsn::sweep_steps(builder, offsets_s, positions, timeline,
                            [&](std::size_t i, std::span<const std::uint8_t> failed) {
                                return builder.snapshot_from_positions(positions[i],
                                                                       failed);
                            });
}

time_expanded_graph build_time_expanded_graph_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_timeline& timeline, const bulk_route_options& options)
{
    validate(options); // fail before paying the parallel materialization
    return build_time_expanded_graph_timeline(
        materialize_snapshots_timeline(builder, offsets_s, positions, timeline),
        offsets_s, timeline, options);
}

} // namespace ssplane::tempo

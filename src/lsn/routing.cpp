#include "lsn/routing.h"

#include <algorithm>
#include <functional>

#include "obs/metrics.h"
#include "util/expects.h"

namespace ssplane::lsn {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

} // namespace

route_graph make_route_graph(const network_snapshot& snapshot)
{
    const int n = static_cast<int>(snapshot.adjacency.size());
    route_graph graph;
    std::size_t n_slots = 0;
    for (const auto& out : snapshot.adjacency) n_slots += out.size();
    graph.first_slot.reserve(static_cast<std::size_t>(n) + 1);
    graph.to.reserve(n_slots);
    graph.weight.reserve(n_slots);
    graph.first_slot.push_back(0);
    for (const auto& out : snapshot.adjacency) {
        for (const auto& e : out) {
            expects(e.to >= 0 && e.to < n, "snapshot edge leads outside the snapshot");
            graph.to.push_back(e.to);
            graph.weight.push_back(e.latency_s);
        }
        graph.first_slot.push_back(static_cast<int>(graph.to.size()));
    }
    return graph;
}

void shortest_path_search::run(const route_graph& graph, int src,
                               std::span<const int> targets)
{
    // Every routing query in the stack funnels through here, so this one
    // counter is the per-campaign "how many shortest-path solves" figure.
    OBS_COUNT("lsn.dijkstra.runs");
    const int n = graph.n_nodes();
    expects(src >= 0 && src < n, "bad source node");
    const auto size = static_cast<std::size_t>(n);
    dist_.assign(size, inf);
    prev_node_.assign(size, -1);
    prev_slot_.assign(size, -1);
    is_target_.assign(size, 0);
    int unsettled = 0;
    for (const int t : targets) {
        expects(t >= 0 && t < n, "bad target node");
        if (is_target_[static_cast<std::size_t>(t)] == 0) {
            is_target_[static_cast<std::size_t>(t)] = 1;
            ++unsettled;
        }
    }

    // The same push_heap/pop_heap sequence as a std::priority_queue with
    // std::greater, on a buffer that outlives the run.
    const std::greater<> later;
    heap_.clear();
    dist_[static_cast<std::size_t>(src)] = 0.0;
    heap_.emplace_back(0.0, src);
    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const auto [d, u] = heap_.back();
        heap_.pop_back();
        if (d > dist_[static_cast<std::size_t>(u)]) continue;
        if (is_target_[static_cast<std::size_t>(u)] != 0 && --unsettled == 0) break;
        const int end = graph.first_slot[static_cast<std::size_t>(u) + 1];
        for (int s = graph.first_slot[static_cast<std::size_t>(u)]; s < end; ++s) {
            const double nd = d + graph.weight[static_cast<std::size_t>(s)];
            const int v = graph.to[static_cast<std::size_t>(s)];
            if (nd < dist_[static_cast<std::size_t>(v)]) {
                dist_[static_cast<std::size_t>(v)] = nd;
                prev_node_[static_cast<std::size_t>(v)] = u;
                prev_slot_[static_cast<std::size_t>(v)] = s;
                heap_.emplace_back(nd, v);
                std::push_heap(heap_.begin(), heap_.end(), later);
            }
        }
    }
}

std::vector<int> shortest_path_search::path_to(int node) const
{
    if (!reachable(node)) return {};
    std::vector<int> path;
    for (int v = node; v != -1; v = prev_node_[static_cast<std::size_t>(v)])
        path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

route_result shortest_route(const network_snapshot& snapshot, int src_node, int dst_node)
{
    const auto n = snapshot.adjacency.size();
    expects(src_node >= 0 && static_cast<std::size_t>(src_node) < n, "bad source node");
    expects(dst_node >= 0 && static_cast<std::size_t>(dst_node) < n, "bad destination node");

    shortest_path_search search;
    const int targets[] = {dst_node};
    search.run(make_route_graph(snapshot), src_node, targets);

    route_result result;
    if (!search.reachable(dst_node)) return result;
    result.reachable = true;
    result.latency_s = search.distance(dst_node);
    result.path = search.path_to(dst_node);
    result.hops = static_cast<int>(result.path.size()) - 1;
    return result;
}

route_result ground_route(const network_snapshot& snapshot, int ground_a, int ground_b)
{
    expects(ground_a >= 0 && ground_a < snapshot.n_ground, "bad ground index a");
    expects(ground_b >= 0 && ground_b < snapshot.n_ground, "bad ground index b");
    return shortest_route(snapshot, snapshot.ground_node(ground_a),
                          snapshot.ground_node(ground_b));
}

} // namespace ssplane::lsn

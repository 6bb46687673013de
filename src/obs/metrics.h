// Process-wide metrics registry: named monotonic counters for the
// instrumentation subsystem.
//
// Counters count WORK ITEMS (Dijkstra runs, cache hits, snapshot builds),
// never time, so metrics registered as deterministic are bit-identical for
// any SSPLANE_THREADS value — the obs test suite pins that down. Metrics
// whose value depends on how the scheduler interleaved work (pool task
// submissions, blocked waits) must be registered with deterministic = false
// via the _SCHED macros so tooling can tell the two classes apart; the
// determinism test only compares the deterministic set.
//
// Hot-path usage goes through the OBS_COUNT macros below: the registry
// lookup happens once per call site (function-local static reference), the
// increment is one relaxed atomic add.
#ifndef SSPLANE_OBS_METRICS_H
#define SSPLANE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ssplane::obs {

/// Monotonic event counter. Address-stable once registered; increments are
/// relaxed atomics (no ordering is implied between metrics).
class counter {
public:
    void add(std::uint64_t n = 1) noexcept
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }
    bool deterministic() const noexcept { return deterministic_; }

private:
    friend class registry;
    explicit counter(bool deterministic) noexcept : deterministic_(deterministic) {}
    std::atomic<std::uint64_t> value_{0};
    bool deterministic_;
};

/// One (name, value) pair of a registry snapshot.
struct metric_sample {
    std::string name;
    double value = 0.0;
    bool deterministic = true;

    friend bool operator==(const metric_sample&, const metric_sample&) = default;
};

/// The process-wide registry. Metric objects are address-stable for the
/// life of the process (reset() zeroes values, never unregisters), so call
/// sites may cache references. Name ordering is lexicographic everywhere a
/// collection is exposed — snapshots and CSV rows are deterministic given
/// deterministic values.
class registry {
public:
    static registry& instance() noexcept;

    /// Find-or-register. The deterministic flag is fixed by the FIRST
    /// registration of a name; later lookups ignore the argument.
    counter& get_counter(std::string_view name, bool deterministic = true);

    /// Zero every value, keep every registration (and thus every cached
    /// call-site reference) alive.
    void reset();

    /// Every counter as a (name, value) pair, sorted by name.
    std::vector<metric_sample> snapshot() const;

    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

private:
    registry() = default;
    mutable std::mutex mutex_;
    // std::map keeps names sorted; values are unique_ptr so the objects
    // stay address-stable across rehashes-that-aren't and inserts.
    std::map<std::string, std::unique_ptr<counter>, std::less<>> counters_;
};

/// `snapshot()` filtered to metrics registered as deterministic — the set
/// the thread-count invariance test compares bit-for-bit.
std::vector<metric_sample> deterministic_snapshot();

/// CSV export of the current snapshot: `metric,value,deterministic` rows
/// sorted by metric name (the metrics-CSV counterpart of
/// `campaign_result::write_csv`). `network_day --metrics` ends up here.
void write_metrics_csv(std::ostream& out);

} // namespace ssplane::obs

/// Count one deterministic work item. `name` must be a string literal (the
/// registry reference is resolved once per call site).
#define OBS_COUNT(name) OBS_COUNT_N(name, 1)

#define OBS_COUNT_N(name, n)                                                   \
    do {                                                                       \
        static ::ssplane::obs::counter& obs_counter_site =                     \
            ::ssplane::obs::registry::instance().get_counter(name);            \
        obs_counter_site.add(static_cast<std::uint64_t>(n));                   \
    } while (false)

/// Count one scheduler-dependent event (value varies with SSPLANE_THREADS).
#define OBS_COUNT_SCHED(name) OBS_COUNT_SCHED_N(name, 1)

#define OBS_COUNT_SCHED_N(name, n)                                             \
    do {                                                                       \
        static ::ssplane::obs::counter& obs_counter_site =                     \
            ::ssplane::obs::registry::instance().get_counter(name, false);     \
        obs_counter_site.add(static_cast<std::uint64_t>(n));                   \
    } while (false)

#endif // SSPLANE_OBS_METRICS_H

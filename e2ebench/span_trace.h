// Outside-in span recorder of the end-to-end benchmark.
//
// The driver wraps each call it makes into a library module's public entry
// point in a `span_trace::scope`: name, start, end and the id of the
// enclosing span. Spans live in memory while the workload runs and are
// written once at the end (`write_json`). Recording is off unless the
// driver runs with `--trace 1`; a disabled scope costs one branch.
//
// Self time of a span is its duration minus the part of that interval its
// direct children cover — computed here from the benchmark's own spans,
// never from `obs::phase_stats` (which counts pool-join waits as self).
#ifndef SSPLANE_E2EBENCH_SPAN_TRACE_H
#define SSPLANE_E2EBENCH_SPAN_TRACE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace e2ebench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

class span_trace {
public:
    struct span {
        int id = 0;
        int parent = -1; ///< -1 = root.
        std::string name;
        double start_s = 0.0;
        double end_s = 0.0;
        double duration_s() const { return end_s - start_s; }
    };

    /// RAII span; a no-op when the trace is disabled.
    class scope {
    public:
        scope(span_trace& trace, std::string name);
        ~scope();
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        span_trace* trace_ = nullptr;
        int id_ = -1;
    };

    bool enabled() const noexcept { return enabled_; }
    void set_enabled(bool on) noexcept { enabled_ = on; }

    const std::vector<span>& spans() const noexcept { return spans_; }

    /// Sum of durations of every span with this name.
    double total_s(const std::string& name) const;
    /// Durations of every span with this name, in recording order.
    std::vector<double> durations_s(const std::string& name) const;
    /// Duration minus the union of its direct children's intervals.
    double self_s(int id) const;

    /// Chrome trace-event JSON ("X" events), loadable in ui.perfetto.dev.
    void write_json(std::ostream& out) const;

private:
    int open(std::string name);
    void close(int id);

    bool enabled_ = false;
    std::vector<span> spans_;
    std::vector<int> stack_;
};

} // namespace e2ebench

#endif // SSPLANE_E2EBENCH_SPAN_TRACE_H

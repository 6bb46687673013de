// End-to-end benchmark driver: runs one workload in this process and prints,
// as its last stdout line, one JSON object with keys correct / attempted /
// failed / metrics.
//
//   e2ebench_driver --workload design|campaign|serving --seed N --seconds S
//                   --trace 0|1 [--tiny 1] [--reference FILE]
//                   [--write-reference FILE] [--trace-out FILE]
//   e2ebench_driver --selftest 1
//
// --trace 0 repeats (a block of set-up-only samples for setup_s, then a
// fresh set-up + the timed call) until S seconds have passed (at least
// kMinReps times) and reports the end-to-end metrics as medians.
// --trace 1 runs one untraced and one traced repetition, then the
// workload's decomposition and kernel probes under spans, and reports the
// per-layer metrics. Every repetition's outputs are checked: invariants on
// every seed, the stored reference on the seed it was recorded with, and
// bit-identity with the first repetition.
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "obs/metrics.h"
#include "span_trace.h"
#include "workloads.h"

using namespace e2ebench;

namespace {

constexpr int kMinReps = 3;
constexpr std::size_t kSetupBlock = 5;     ///< Set-up-only samples per repetition,
constexpr double kSetupBlockSeconds = 0.5; ///< and at least this long a block.

/// Deterministic obs work counters read after every repetition: checked
/// for repeatability and reported as per-layer counts.
const std::vector<std::string> kCounters = {
    "exp.snapshot.rebuilds",     "exp.campaign.cells_unique",
    "exp.mask_cache.hit",        "exp.timeline_cache.miss",
    "lsn.snapshot.builds",       "lsn.dijkstra.runs",
    "traffic.assign.calls",      "traffic.assign.rounds",
    "spectral.lanczos.solves",   "spectral.lanczos.iterations",
    "tempo.graph.arcs",          "tempo.bulk.augmentations",
    "serve.sampler.sessions",    "serve.sampler.active_cells",
    "serve.assign.sessions_active", "serve.assign.beams_used"};

struct metric_def {
    std::string name;
    std::string unit;
};

const std::vector<metric_def>& end_to_end_metrics()
{
    static const std::vector<metric_def> defs = {
        {"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}};
    return defs;
}

/// Every per-layer metric, printed on every workload (0 where the workload
/// does no work in that layer).
const std::vector<metric_def>& per_layer_metrics()
{
    static const std::vector<metric_def> defs = [] {
        std::vector<metric_def> d = {
            {"demand.model_build_s", "s"},
            {"core.greedy_cover_s", "s"},
            {"core.walker_design_s", "s"},
            {"core.ss_dose_s", "s"},
            {"core.wd_dose_s", "s"},
            {"radiation.daily_fluence_s", "s"},
            {"core.ss_planes", "count"},
            {"core.ss_satellites", "count"},
            {"core.wd_shells", "count"},
            {"core.wd_satellites", "count"},
            {"exp.context_build_s", "s"},
            {"exp.run_campaign_s", "s"},
            {"exp.sharing_s", "s"},
            {"exp.slowest_cell_s", "s"},
            {"exp.snapshot.builds_per_row_step", "ratio"},
            {"lsn.scenario_sweep_s", "s"},
            {"traffic.adversary_timeline_s", "s"},
            {"traffic.sweep_s", "s"},
            {"traffic.assign.rounds_per_call", "ratio"},
            {"spectral.percolation_sweep_s", "s"},
            {"spectral.lanczos.iters_per_solve", "ratio"},
            {"tempo.bulk_sweep_s", "s"},
            {"serve.sample_grid_s", "s"},
            {"serve.sweep_s", "s"},
            {"serve.ns_per_session_step", "ns"},
            {"serve.served_fraction", "ratio"},
            {"util.pool.concurrency", "cores"},
            {"trace.run_s", "s"},
            {"trace.overhead_s", "s"},
            {"trace.span_coverage", "ratio"},
        };
        for (const auto& c : kCounters) d.push_back({c, "count"});
        const std::string tail = ".p" + std::to_string(tail_percentile(kProbeSamples));
        for (const char* p : {"lsn.snapshot_build_ms", "spectral.lambda2_ms",
                              "traffic.assign_ms", "serve.assign_ms"}) {
            d.push_back({std::string(p) + ".p50", "ms"});
            d.push_back({std::string(p) + tail, "ms"});
        }
        return d;
    }();
    return defs;
}

double cpu_seconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::map<std::string, double> read_counters()
{
    std::map<std::string, double> values;
    for (const auto& sample : ssplane::obs::registry::instance().snapshot())
        if (sample.deterministic) values[sample.name] = sample.value;
    std::map<std::string, double> out;
    for (const auto& c : kCounters) out[c] = values.count(c) ? values[c] : 0.0;
    return out;
}

/// Hands free heap pages back to the OS, so every repetition starts from a
/// trimmed heap and peak RSS reflects one repetition's live memory rather
/// than free lists earlier repetitions left in other threads' arenas.
void trim_heap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

double median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_number(double v)
{
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct args_t {
    std::map<std::string, std::string> kv;
    std::string get(const std::string& k, const std::string& def = "") const
    {
        const auto it = kv.find(k);
        return it == kv.end() ? def : it->second;
    }
};

args_t parse(int argc, char** argv)
{
    args_t a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) == 0) key = key.substr(2);
        a.kv[key] = argv[i + 1];
    }
    return a;
}

/// One repetition: fresh set-up, the timed call, its checked outputs.
struct rep_record {
    double run_s = 0.0;
    double cpu_s = 0.0;
    int ops = 0;
    bool threw = false;
    outputs out;
    std::map<std::string, double> counters;
};

rep_record run_rep(workload& w, span_trace& trace)
{
    trim_heap();
    rep_record rec;
    const auto before = read_counters();
    try {
        span_trace::scope rep(trace, "rep");
        {
            span_trace::scope s(trace, "setup");
            w.setup(trace);
        }
        rec.ops = w.ops_per_rep();
        const double c1 = cpu_seconds();
        const double t1 = now_s();
        {
            span_trace::scope s(trace, "run");
            w.run(trace);
        }
        const double t2 = now_s();
        rec.cpu_s = cpu_seconds() - c1;
        rec.run_s = t2 - t1;
        w.collect(rec.out);
    } catch (const std::exception& e) {
        std::cerr << "repetition threw: " << e.what() << "\n";
        rec.threw = true;
    }
    const auto after = read_counters();
    for (const auto& c : kCounters) {
        rec.counters[c] = after.at(c) - before.at(c);
        if (!rec.threw) rec.out.add_counter(c, rec.counters[c]);
    }
    return rec;
}

struct check_totals {
    long attempted = 0;
    long failed = 0;
};

/// Checks one repetition and folds it into the totals.
void account(const rep_record& rec, const outputs* first, const reference* ref,
             std::uint64_t seed, check_totals& totals)
{
    const int ops = rec.ops > 0 ? rec.ops : 1;
    totals.attempted += ops;
    if (rec.threw) {
        totals.failed += ops;
        return;
    }
    check_report report;
    check_invariants(rec.out, report);
    if (ref != nullptr) check_reference(rec.out, seed, *ref, report);
    if (first != nullptr) check_repeatable(rec.out, *first, report);
    for (const auto& m : report.messages) std::cerr << m << "\n";
    totals.failed += static_cast<long>(
        std::count_if(report.failed_ops.begin(), report.failed_ops.end(),
                      [&](int op) { return op >= 0 && op < ops; }));
}

void print_result(const check_totals& totals, const std::vector<metric_def>& defs,
                  const std::map<std::string, double>& values)
{
    std::cout << "{\"correct\": " << (totals.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << totals.attempted
              << ", \"failed\": " << totals.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        const double v = it == values.end() ? 0.0 : it->second;
        std::cout << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
                  << json_number(v) << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

/// Perturb one float and one integer output of a tiny campaign run and
/// show that the reference check rejects each, and passes the original.
int selftest()
{
    auto w = make_workload("campaign", workload_config{1, true});
    span_trace trace;
    rep_record rec = run_rep(*w, trace);
    if (rec.threw) return 1;
    reference ref;
    ref.seed = 1;
    for (const auto& e : rec.out.entries())
        if (e.kind != value_kind::counter) ref.values[e.key] = {e.kind, e.seed_free, e.value};

    check_report clean;
    check_reference(rec.out, 1, ref, clean);
    std::cout << "unperturbed: " << clean.failed_ops.size() << " failed ops\n";

    int float_op = -1, int_op = -1;
    outputs bad_float = rec.out;
    for (auto& e : bad_float.mutable_entries())
        if (e.kind == value_kind::floating && std::abs(e.value) > 1e-3) {
            std::cout << "perturbing float " << e.key << " by 1e-4 relative\n";
            e.value *= 1.0 + 1e-4;
            float_op = e.op;
            break;
        }
    outputs bad_int = rec.out;
    for (auto& e : bad_int.mutable_entries())
        if (e.kind == value_kind::exact) {
            std::cout << "perturbing integer " << e.key << " by +1\n";
            e.value += 1.0;
            int_op = e.op;
            break;
        }
    check_report rf, ri;
    check_reference(bad_float, 1, ref, rf);
    check_reference(bad_int, 1, ref, ri);
    for (const auto& m : rf.messages) std::cout << "  " << m << "\n";
    for (const auto& m : ri.messages) std::cout << "  " << m << "\n";
    const bool ok = clean.failed_ops.empty() && rf.failed_ops == std::set<int>{float_op} &&
                    ri.failed_ops == std::set<int>{int_op};
    std::cout << "selftest " << (ok ? "PASS" : "FAIL")
              << ": the check rejects a perturbed float and a perturbed integer\n";
    return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    const args_t args = parse(argc, argv);
    if (args.get("selftest") == "1") return selftest();

    const std::string name = args.get("workload");
    workload_config config;
    config.seed = std::strtoull(args.get("seed", "1").c_str(), nullptr, 10);
    config.tiny = args.get("tiny", "0") == "1";
    const double seconds = std::strtod(args.get("seconds", "10").c_str(), nullptr);
    const bool traced = args.get("trace", "0") == "1";
    auto w = make_workload(name, config);
    if (!w) {
        std::cerr << "unknown workload '" << name << "'\n";
        return 2;
    }

    reference ref;
    const reference* ref_ptr = nullptr;
    const std::string ref_path = args.get("reference");
    if (!ref_path.empty() && !config.tiny) {
        if (!ref.load(ref_path)) {
            std::cerr << "cannot read reference " << ref_path << "\n";
            return 2;
        }
        ref_ptr = &ref;
    }

    const char* threads = std::getenv("SSPLANE_THREADS");
    std::cout << "# e2ebench workload=" << name << " seed=" << config.seed
              << " tiny=" << config.tiny << " trace=" << traced
              << " SSPLANE_THREADS=" << (threads ? threads : "auto")
              << " compiler=" << E2E_COMPILER << " build=" << E2E_BUILD_TYPE
              << " reference_check="
              << (!ref_ptr ? "off" : ref.seed == config.seed ? "all" : "seed-free outputs")
              << " flux_map_cache=cold(unused by these workloads)\n";

    span_trace trace;
    check_totals totals;
    std::vector<rep_record> reps;
    std::map<std::string, double> values;

    if (!traced) {
        // Set-up is cheap next to the timed call (milliseconds on `design`),
        // so setup_s is the median of set-up-only samples, all taken the
        // same way: in a block before each repetition, back to back on a
        // warm heap after one discarded set-up, at least kSetupBlock
        // samples and kSetupBlockSeconds per block. Spreading the blocks
        // over the whole run, like the repetitions, keeps a short slow
        // stretch of the host from moving the median. The repetitions' own
        // set-ups (after a heap trim) are not pooled in.
        std::vector<double> setup;
        const double start = now_s();
        while (static_cast<int>(reps.size()) < kMinReps || now_s() - start < seconds) {
            w->setup(trace);
            const double block_start = now_s();
            for (std::size_t n = 0; n < kSetupBlock || now_s() - block_start < kSetupBlockSeconds;
                 ++n) {
                const double t0 = now_s();
                w->setup(trace);
                setup.push_back(now_s() - t0);
            }
            reps.push_back(run_rep(*w, trace));
            account(reps.back(), reps.size() > 1 ? &reps.front().out : nullptr, ref_ptr,
                    config.seed, totals);
            if (reps.front().threw) break;
        }
        std::vector<double> run, cpu;
        for (const auto& r : reps) {
            run.push_back(r.run_s);
            cpu.push_back(r.cpu_s);
        }
        values["setup_s"] = median(setup);
        values["run_s"] = median(run);
        values["cpu_s"] = median(cpu);
        values["peak_rss_mb"] = peak_rss_mb();
        std::cout << "# run_s per repetition:";
        for (const double r : run) std::cout << " " << json_number(r);
        std::cout << "\n# setup samples=" << setup.size()
                  << " min=" << json_number(*std::min_element(setup.begin(), setup.end()))
                  << " max=" << json_number(*std::max_element(setup.begin(), setup.end()))
                  << "\n# reps=" << reps.size() << " setup_s=" << json_number(values["setup_s"])
                  << " run_s=" << json_number(values["run_s"])
                  << " cpu_s=" << json_number(values["cpu_s"]) << "\n";
    } else {
        // Untraced repetition first (also the overhead baseline), then the
        // traced one; counters are the traced repetition's deltas.
        reps.push_back(run_rep(*w, trace));
        account(reps.back(), nullptr, ref_ptr, config.seed, totals);
        trace.set_enabled(true);
        reps.push_back(run_rep(*w, trace));
        account(reps.back(), &reps.front().out, ref_ptr, config.seed, totals);
        const rep_record& untraced = reps.front();
        const rep_record& traced_rep = reps.back();
        if (!traced_rep.threw) {
            for (const auto& [c, v] : traced_rep.counters) values[c] = v;
            values["demand.model_build_s"] = trace.total_s("demand.model_build");
            values["core.greedy_cover_s"] = trace.total_s("core.greedy_cover");
            values["exp.context_build_s"] = trace.total_s("exp.context_build");
            values["exp.run_campaign_s"] = trace.total_s("exp.run_campaign");
            values["serve.sample_grid_s"] = trace.total_s("serve.sample_grid");
            values["trace.run_s"] = traced_rep.run_s;
            values["trace.overhead_s"] = traced_rep.run_s - untraced.run_s;
            values["util.pool.concurrency"] =
                untraced.run_s > 0 ? untraced.cpu_s / untraced.run_s : 0;
            values["traffic.assign.rounds_per_call"] =
                values["traffic.assign.calls"] > 0
                    ? values["traffic.assign.rounds"] / values["traffic.assign.calls"]
                    : 0;
            values["spectral.lanczos.iters_per_solve"] =
                values["spectral.lanczos.solves"] > 0
                    ? values["spectral.lanczos.iterations"] /
                          values["spectral.lanczos.solves"]
                    : 0;
            try {
                w->layers(trace, values);
            } catch (const std::exception& e) {
                std::cerr << "layer decomposition threw: " << e.what() << "\n";
                totals.failed += 1;
            }
        }
        const std::string trace_out = args.get("trace-out");
        if (!trace_out.empty()) {
            std::ofstream f(trace_out);
            trace.write_json(f);
        }
    }

    // The first repetition's checked outputs, as a reference file.
    const std::string write_path = args.get("write-reference");
    if (!write_path.empty() && !reps.empty() && !reps.front().threw) {
        reference out_ref;
        out_ref.seed = config.seed;
        if (!out_ref.write(write_path, reps.front().out)) return 2;
    }

    print_result(totals, traced ? per_layer_metrics() : end_to_end_metrics(), values);
    return 0;
}

#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace e2ebench {

namespace {

bool parse_kind(const std::string& name, value_kind& kind)
{
    if (name == "int") kind = value_kind::exact;
    else if (name == "float") kind = value_kind::floating;
    else return false;
    return true;
}

std::string format(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool floats_match(double a, double b)
{
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
    if (std::isinf(a) || std::isinf(b)) return a == b;
    return std::abs(a - b) <= kRelTol * std::max(std::abs(a), std::abs(b)) + kAbsTol;
}

void fail(check_report& report, int op, std::string message)
{
    if (op >= 0) report.failed_ops.insert(op);
    report.messages.push_back(std::move(message));
}

} // namespace

void outputs::add_exact(int op, const std::string& key, double value, bool seed_free)
{
    entries_.push_back({op, key, value_kind::exact, value, seed_free});
}

void outputs::add_float(int op, const std::string& key, double value, bool seed_free)
{
    entries_.push_back({op, key, value_kind::floating, value, seed_free});
}

void outputs::add_counter(const std::string& key, double value)
{
    entries_.push_back({-1, key, value_kind::counter, value});
}

void outputs::require(int op, bool ok, const std::string& what)
{
    if (!ok) violations_.emplace_back(op, what);
}

bool reference::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# seed ", 0) == 0) {
            seed = std::stoull(line.substr(7));
            continue;
        }
        if (line.empty() || line[0] == '#') continue;
        const auto t1 = line.find('\t');
        const auto t2 = line.find('\t', t1 + 1);
        const auto t3 = line.find('\t', t2 + 1);
        if (t1 == std::string::npos || t2 == std::string::npos || t3 == std::string::npos)
            return false;
        value v;
        if (!parse_kind(line.substr(t1 + 1, t2 - t1 - 1), v.kind)) return false;
        v.seed_free = line.substr(t2 + 1, t3 - t2 - 1) == "1";
        v.v = std::strtod(line.c_str() + t3 + 1, nullptr);
        values[line.substr(0, t1)] = v;
    }
    return true;
}

bool reference::write(const std::string& path, const outputs& out) const
{
    std::ofstream file(path);
    if (!file) return false;
    file << "# seed " << seed << "\n";
    for (const auto& e : out.entries())
        if (e.kind != value_kind::counter)
            file << e.key << "\t" << (e.kind == value_kind::exact ? "int" : "float") << "\t"
                 << (e.seed_free ? 1 : 0) << "\t" << format(e.value) << "\n";
    return static_cast<bool>(file);
}

void check_invariants(const outputs& got, check_report& report)
{
    for (const auto& [op, what] : got.violations())
        fail(report, op, "invariant violated: " + what);
}

void check_reference(const outputs& got, std::uint64_t seed, const reference& ref,
                     check_report& report)
{
    const bool same_seed = seed == ref.seed;
    std::set<std::string> seen;
    for (const auto& e : got.entries()) {
        if (e.kind == value_kind::counter || (!same_seed && !e.seed_free)) continue;
        seen.insert(e.key);
        const auto it = ref.values.find(e.key);
        if (it == ref.values.end()) {
            fail(report, e.op, "not in reference: " + e.key);
            continue;
        }
        const double want = it->second.v;
        const bool ok = e.kind == value_kind::exact ? e.value == want
                                                    : floats_match(e.value, want);
        if (!ok)
            fail(report, e.op,
                 "mismatch: " + e.key + " = " + format(e.value) + ", reference " +
                     format(want));
    }
    for (const auto& [key, v] : ref.values)
        if ((same_seed || v.seed_free) && !seen.count(key))
            fail(report, 0, "missing output: " + key);
}

void check_repeatable(const outputs& got, const outputs& first, check_report& report)
{
    const auto& a = got.entries();
    const auto& b = first.entries();
    if (a.size() != b.size()) {
        fail(report, 0, "repetitions produced different output sets");
        return;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const bool same = a[i].key == b[i].key &&
                          (a[i].value == b[i].value ||
                           (std::isnan(a[i].value) && std::isnan(b[i].value)));
        if (!same)
            fail(report, a[i].op < 0 ? 0 : a[i].op,
                 "not repeatable: " + a[i].key + " = " + format(a[i].value) +
                     ", first repetition " + format(b[i].value));
    }
}

} // namespace e2ebench

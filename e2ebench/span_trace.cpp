#include "span_trace.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

namespace e2ebench {

double now_s()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin)
        .count();
}

span_trace::scope::scope(span_trace& trace, std::string name)
{
    if (!trace.enabled()) return;
    trace_ = &trace;
    id_ = trace.open(std::move(name));
}

span_trace::scope::~scope()
{
    if (trace_ != nullptr) trace_->close(id_);
}

int span_trace::open(std::string name)
{
    span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = std::move(name);
    s.start_s = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void span_trace::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double span_trace::total_s(const std::string& name) const
{
    double total = 0.0;
    for (const auto& s : spans_)
        if (s.name == name) total += s.duration_s();
    return total;
}

std::vector<double> span_trace::durations_s(const std::string& name) const
{
    std::vector<double> out;
    for (const auto& s : spans_)
        if (s.name == name) out.push_back(s.duration_s());
    return out;
}

double span_trace::self_s(int id) const
{
    const span& self = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<double, double>> children;
    for (const auto& s : spans_)
        if (s.parent == id) children.emplace_back(s.start_s, s.end_s);
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = self.start_s;
    for (const auto& [start, end] : children) {
        const double from = std::max(start, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
    }
    return self.duration_s() - covered;
}

void span_trace::write_json(std::ostream& out) const
{
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
            << ",\"dur\":" << s.duration_s() * 1e6 << ",\"args\":{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"self_us\":" << self_s(s.id) * 1e6
            << "}}";
    }
    out << "\n]}\n";
}

} // namespace e2ebench

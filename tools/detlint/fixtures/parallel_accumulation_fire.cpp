// Fixture: parallel-accumulation must fire on compound assignment to
// by-reference-captured enclosing state inside a parallel body (including a
// sweep_steps kernel), and stay quiet on lambda-local accumulators and
// per-index/per-chunk slots.
#include <cstddef>
#include <functional>
#include <vector>

namespace ssplane {
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t chunk = 0);
std::vector<double> sweep_steps(std::size_t n_steps,
                                const std::function<double(std::size_t)>& kernel);
}

double racy_reduction(const std::vector<double>& samples)
{
    double total = 0.0;
    std::vector<double> slots(samples.size());
    ssplane::parallel_for(samples.size(), [&](std::size_t begin, std::size_t end) {
        double local = 0.0; // fine: declared inside the body
        for (std::size_t i = begin; i < end; ++i) {
            local += samples[i];
            slots[i] += samples[i]; // fine: per-index slot
            total += samples[i];    // racy, order-dependent
        }
        slots[begin] += local; // fine: per-chunk slot
    });
    return total;
}

double racy_sweep(const std::vector<double>& samples)
{
    double total = 0.0;
    const auto slots = ssplane::sweep_steps(samples.size(), [&](std::size_t i) {
        total += samples[i]; // racy: the kernel runs inside a parallel_map
        return samples[i];
    });
    return total + slots.front();
}

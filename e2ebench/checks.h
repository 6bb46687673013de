// Output checks of the end-to-end benchmark.
//
// Every timed repetition records the outputs it produced as named values,
// each tagged with the operation (campaign cell, or one multiplier's
// design+dose pair) it belongs to:
//
//   * `exact`   — integers (satellite/plane/shell counts, n_failed, session
//                 counts) that must match the reference exactly;
//   * `float`   — fluences, fractions, λ₂, rates, latencies, compared at
//                 `kRelTol` relative (plus `kAbsTol` absolute for values
//                 that sit at zero to solver precision);
//   * `counter` — deterministic obs work counters. They are compared for
//                 exact equality between repetitions only (determinism) and
//                 are not stored in the reference: these counts are exactly
//                 what a performance change is meant to move.
//
// Invariants (`require`) hold on every seed. The stored reference applies
// in full on the seed it was recorded with; on any other seed only outputs
// tagged `seed_free` (the design workload, and scenario rows that draw no
// random numbers: the baseline and the greedy adversary) are compared.
#ifndef SSPLANE_E2EBENCH_CHECKS_H
#define SSPLANE_E2EBENCH_CHECKS_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace e2ebench {

inline constexpr double kRelTol = 1e-6;
inline constexpr double kAbsTol = 1e-9;

enum class value_kind { exact, floating, counter };

struct output_entry {
    int op = 0;
    std::string key;
    value_kind kind = value_kind::floating;
    double value = 0.0;
    bool seed_free = false; ///< Independent of the workload seed.
};

class outputs {
public:
    void add_exact(int op, const std::string& key, double value, bool seed_free);
    void add_float(int op, const std::string& key, double value, bool seed_free);
    void add_counter(const std::string& key, double value);
    /// Record an invariant; a false `ok` fails operation `op`.
    void require(int op, bool ok, const std::string& what);

    const std::vector<output_entry>& entries() const noexcept { return entries_; }
    const std::vector<std::pair<int, std::string>>& violations() const noexcept
    {
        return violations_;
    }
    /// Mutable access for the perturbation self-test.
    std::vector<output_entry>& mutable_entries() noexcept { return entries_; }

private:
    std::vector<output_entry> entries_;
    std::vector<std::pair<int, std::string>> violations_;
};

/// Reference outputs for one workload at its reference seed, stored as
/// tab-separated `key kind seed_free value` lines under a `# seed <n>`
/// header. Counters are left out.
struct reference {
    struct value {
        value_kind kind = value_kind::floating;
        bool seed_free = false;
        double v = 0.0;
    };
    std::uint64_t seed = 0;
    std::map<std::string, value> values;

    bool load(const std::string& path);
    bool write(const std::string& path, const outputs& out) const;
};

struct check_report {
    std::set<int> failed_ops;
    std::vector<std::string> messages;
};

/// Invariant violations of one repetition.
void check_invariants(const outputs& got, check_report& report);
/// `got`, produced with `seed`, against the stored reference (missing or
/// extra keys fail too); counters are skipped.
void check_reference(const outputs& got, std::uint64_t seed, const reference& ref,
                     check_report& report);
/// Repetition `got` against the first repetition `first`: every value,
/// counters included, must be bit-identical.
void check_repeatable(const outputs& got, const outputs& first, check_report& report);

} // namespace e2ebench

#endif // SSPLANE_E2EBENCH_CHECKS_H

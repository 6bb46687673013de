#include "spectral/lanczos.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/rng.h"

namespace ssplane::spectral {

namespace {

// Sub-stream purpose of `rng::split(seed, purpose)` for the Lanczos start
// vector. Tree-wide unique (detlint split-purpose-collision): lsn's
// cascade/storm generators hold 1 and 2, percolation holds 4.
constexpr std::uint64_t purpose_lanczos_start = 3;

double dot(std::span<const double> a, std::span<const double> b)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
    return sum;
}

double norm(std::span<const double> a) { return std::sqrt(dot(a, a)); }

/// Project the constant component out of v: v -= mean(v).
void deflate_constant(std::span<double> v)
{
    double mean = 0.0;
    for (const double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    for (double& x : v) x -= mean;
}

/// Eigenvalues of T strictly below x, by Sturm sequence (counts the sign
/// agreements of the leading-principal-minor recurrence).
int sturm_count_below(std::span<const double> alpha, std::span<const double> beta,
                      double x)
{
    int count = 0;
    double d = 1.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        const double beta_sq = i == 0 ? 0.0 : beta[i - 1] * beta[i - 1];
        d = alpha[i] - x - beta_sq / d;
        if (d == 0.0) d = 1.0e-300; // graze: nudge off the exact eigenvalue
        if (d < 0.0) ++count;
    }
    return count;
}

} // namespace

void validate(const lanczos_options& options)
{
    expects(options.max_iterations >= 1,
            "lanczos max_iterations must be at least 1");
    expects(std::isfinite(options.tolerance) && options.tolerance >= 0.0,
            "lanczos tolerance must be finite and non-negative");
}

double tridiagonal_smallest_eigenvalue(std::span<const double> alpha,
                                       std::span<const double> beta)
{
    expects(!alpha.empty(), "tridiagonal matrix must be non-empty");
    expects(beta.size() + 1 == alpha.size(),
            "tridiagonal off-diagonal must have n - 1 entries");
    // Gershgorin bracket of the whole spectrum.
    double lo = alpha[0];
    double hi = alpha[0];
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        const double left = i == 0 ? 0.0 : std::abs(beta[i - 1]);
        const double right = i + 1 == alpha.size() ? 0.0 : std::abs(beta[i]);
        lo = std::min(lo, alpha[i] - left - right);
        hi = std::max(hi, alpha[i] + left + right);
    }
    // Bisect for the first point with at least one eigenvalue below it.
    for (int iter = 0; iter < 200 && hi - lo > 1.0e-15 * std::max(1.0, std::abs(hi));
         ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (sturm_count_below(alpha, beta, mid) >= 1)
            hi = mid;
        else
            lo = mid;
    }
    return 0.5 * (lo + hi);
}

lanczos_result algebraic_connectivity(const csr_matrix& laplacian,
                                      const lanczos_options& options)
{
    OBS_SPAN("spectral.lanczos");
    OBS_COUNT("spectral.lanczos.solves");
    validate(laplacian);
    validate(options);

    lanczos_result result;
    const int n = laplacian.n;
    if (n <= 1) {
        result.converged = true;
        return result;
    }

    // The deflated space has dimension n - 1; more steps cannot help.
    const int max_steps =
        std::min(options.max_iterations, n - 1);

    // Seeded start vector, constant mode removed, normalized. A uniform
    // draw is orthogonal-to-constant only after deflation; its residual
    // norm is positive with probability 1, but guard the measure-zero draw
    // by falling back to a deterministic ramp.
    std::vector<double> v(static_cast<std::size_t>(n));
    {
        rng r = rng::split(options.seed, purpose_lanczos_start);
        for (double& x : v) x = r.uniform() - 0.5;
        deflate_constant(v);
        if (norm(v) < 1.0e-12) {
            for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
            deflate_constant(v);
        }
        const double v_norm = norm(v);
        for (double& x : v) x /= v_norm;
    }

    std::vector<std::vector<double>> basis; // v_0 .. v_j, kept for reorth
    basis.push_back(v);
    std::vector<double> alpha, beta;
    std::vector<double> w(static_cast<std::size_t>(n));
    double ritz_prev = 0.0;

    for (int j = 0; j < max_steps; ++j) {
        laplacian.multiply(basis.back(), w);
        const double a = dot(basis.back(), w);
        alpha.push_back(a);

        // Three-term recurrence, then full reorthogonalization (two
        // passes): keep w orthogonal to the constant mode and to every
        // Lanczos vector so far.
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] -= a * basis.back()[i];
        if (j > 0)
            for (std::size_t i = 0; i < w.size(); ++i)
                w[i] -= beta.back() * basis[basis.size() - 2][i];
        for (int pass = 0; pass < 2; ++pass) {
            deflate_constant(w);
            for (const auto& q : basis) {
                const double overlap = dot(q, w);
                for (std::size_t i = 0; i < w.size(); ++i)
                    w[i] -= overlap * q[i];
            }
        }

        result.iterations = j + 1;
        const double ritz = tridiagonal_smallest_eigenvalue(alpha, beta);

        const double b = norm(w);
        if (b < 1.0e-12) {
            // Krylov space exhausted: the tridiagonal spectrum is the exact
            // spectrum of the deflated operator's reachable subspace.
            result.converged = true;
            ritz_prev = ritz;
            break;
        }
        if (j > 0 &&
            std::abs(ritz - ritz_prev) <=
                options.tolerance * std::max(1.0, std::abs(ritz))) {
            result.converged = true;
            ritz_prev = ritz;
            break;
        }
        ritz_prev = ritz;

        beta.push_back(b);
        for (double& x : w) x /= b;
        basis.push_back(w);
    }

    OBS_COUNT_N("spectral.lanczos.iterations", result.iterations);
    // A solve that hit the iteration cap returns an unconverged Ritz value;
    // count it (0 otherwise, so the counter is listed whenever λ₂ ran).
    OBS_COUNT_N("spectral.lanczos.unconverged", result.converged ? 0 : 1);
    // Laplacians are PSD; clamp the tiny negative rounding noise a
    // disconnected graph's zero eigenvalue can bisect to.
    result.lambda2 = std::max(ritz_prev, 0.0);
    return result;
}

} // namespace ssplane::spectral

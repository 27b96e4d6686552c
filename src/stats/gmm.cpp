#include "stats/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace ga::stats {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;  // log(2*pi)

// In-place Cholesky; returns false if not SPD.
bool cholesky_lower(std::vector<double>& a, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double s = a[i * n + j];
            for (std::size_t k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
            if (i == j) {
                if (s <= 0.0) return false;
                a[i * n + j] = std::sqrt(s);
            } else {
                a[i * n + j] = s / a[j * n + j];
            }
        }
        for (std::size_t j = i + 1; j < n; ++j) a[i * n + j] = 0.0;
    }
    return true;
}

double log_sum_exp(std::span<const double> xs) {
    const double peak = *std::max_element(xs.begin(), xs.end());
    if (!std::isfinite(peak)) return peak;
    double acc = 0.0;
    // exp(x - peak) is exactly 1 at the peak, so that term skips the call.
    for (const double x : xs) acc += x == peak ? 1.0 : std::exp(x - peak);
    return peak + std::log(acc);
}

}  // namespace

void Gmm::finalize_component(GmmComponent& c, std::size_t dim, double min_variance) {
    for (std::size_t d = 0; d < dim; ++d) {
        c.covariance[d * dim + d] = std::max(c.covariance[d * dim + d], min_variance);
    }
    c.chol = c.covariance;
    // Escalating diagonal regularization until SPD.
    double jitter = 0.0;
    while (!cholesky_lower(c.chol, dim)) {
        jitter = (jitter == 0.0) ? min_variance : jitter * 10.0;
        c.chol = c.covariance;
        for (std::size_t d = 0; d < dim; ++d) c.chol[d * dim + d] += jitter;
        GA_REQUIRE(jitter < 1e6, "gmm: covariance cannot be regularized");
    }
    double log_det = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
        log_det += 2.0 * std::log(c.chol[d * dim + d]);
    }
    c.log_norm = -0.5 * (static_cast<double>(dim) * kLog2Pi + log_det);
}

Gmm::Gmm(std::size_t dim, std::vector<GmmComponent> components)
    : dim_(dim), components_(std::move(components)) {
    GA_REQUIRE(dim_ > 0, "gmm: dimension must be positive");
    GA_REQUIRE(!components_.empty(), "gmm: need at least one component");
    for (auto& c : components_) {
        GA_REQUIRE(c.mean.size() == dim_, "gmm: component mean dimension mismatch");
        GA_REQUIRE(c.covariance.size() == dim_ * dim_,
                   "gmm: component covariance dimension mismatch");
        if (c.chol.size() != dim_ * dim_) {
            finalize_component(c, dim_, 1e-9);
        }
    }
}

double Gmm::log_pdf(std::span<const double> x) const {
    GA_REQUIRE(x.size() == dim_, "gmm: observation dimension mismatch");
    std::vector<double> parts;
    parts.reserve(components_.size());
    std::vector<double> z(dim_);
    for (const auto& c : components_) {
        // Solve L z = (x - mu); quadratic form = |z|^2.
        for (std::size_t i = 0; i < dim_; ++i) {
            double s = x[i] - c.mean[i];
            for (std::size_t k = 0; k < i; ++k) s -= c.chol[i * dim_ + k] * z[k];
            z[i] = s / c.chol[i * dim_ + i];
        }
        double quad = 0.0;
        for (const double v : z) quad += v * v;
        parts.push_back(std::log(std::max(c.weight, 1e-300)) + c.log_norm -
                        0.5 * quad);
    }
    return log_sum_exp(parts);
}

std::vector<double> Gmm::sample(ga::util::Rng& rng) const {
    std::vector<double> weights;
    weights.reserve(components_.size());
    for (const auto& c : components_) weights.push_back(c.weight);
    const std::size_t k = rng.categorical(weights);
    const auto& c = components_[k];
    std::vector<double> z(dim_);
    for (auto& v : z) v = rng.normal();
    std::vector<double> x(c.mean);
    for (std::size_t i = 0; i < dim_; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            x[i] += c.chol[i * dim_ + j] * z[j];
        }
    }
    return x;
}

Gmm Gmm::fit(std::span<const double> rows, std::size_t dim, const GmmOptions& options) {
    GA_REQUIRE(dim > 0, "gmm: dimension must be positive");
    GA_REQUIRE(rows.size() % dim == 0, "gmm: rows not divisible by dim");
    const std::size_t n = rows.size() / dim;
    const std::size_t k = options.n_components;
    GA_REQUIRE(n >= k, "gmm: need at least one row per component");

    auto row = [&rows, dim](std::size_t r) {
        return rows.subspan(r * dim, dim);
    };

    // ---- k-means++-style seeding of the means ----
    ga::util::Rng rng(options.seed);
    std::vector<std::size_t> centers;
    centers.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    std::vector<double> d2(n, std::numeric_limits<double>::max());
    while (centers.size() < k) {
        const auto c = row(centers.back());
        for (std::size_t r = 0; r < n; ++r) {
            double dist = 0.0;
            const auto xr = row(r);
            for (std::size_t d = 0; d < dim; ++d) {
                dist += (xr[d] - c[d]) * (xr[d] - c[d]);
            }
            d2[r] = std::min(d2[r], dist);
        }
        centers.push_back(rng.categorical(d2));
    }

    // Global covariance as the initial component covariance.
    std::vector<double> gmean(dim, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        const auto xr = row(r);
        for (std::size_t d = 0; d < dim; ++d) gmean[d] += xr[d];
    }
    for (auto& v : gmean) v /= static_cast<double>(n);
    std::vector<double> gcov(dim * dim, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        const auto xr = row(r);
        for (std::size_t i = 0; i < dim; ++i) {
            for (std::size_t j = 0; j < dim; ++j) {
                gcov[i * dim + j] += (xr[i] - gmean[i]) * (xr[j] - gmean[j]);
            }
        }
    }
    for (auto& v : gcov) v /= static_cast<double>(std::max<std::size_t>(n - 1, 1));

    std::vector<GmmComponent> comps(k);
    for (std::size_t c = 0; c < k; ++c) {
        comps[c].weight = 1.0 / static_cast<double>(k);
        const auto ctr = row(centers[c]);
        comps[c].mean.assign(ctr.begin(), ctr.end());
        comps[c].covariance = gcov;
        finalize_component(comps[c], dim, options.min_variance);
    }

    Gmm model(dim, std::move(comps));

    // ---- EM iterations ----
    // The E step runs one component at a time over all rows, in contiguous
    // column passes; every value sees the same operations in the same order
    // as a row-at-a-time evaluation (log_pdf's), so the fit is unchanged to
    // the bit.
    std::vector<double> cols(n * dim);  // the rows, column-major
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t d = 0; d < dim; ++d) cols[d * n + r] = rows[r * dim + d];
    }
    std::vector<double> z(n * dim);  // whitened residuals, column-major
    std::vector<double> resp(k * n);  // log parts, then responsibilities
    std::vector<double> log_parts(k);
    double prev_ll = -std::numeric_limits<double>::infinity();
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        // E step: solve L z = (x - mu) column by column, summing the
        // quadratic form |z|^2 in column order.
        for (std::size_t c = 0; c < k; ++c) {
            const auto& comp = model.components_[c];
            const double log_prior =
                std::log(std::max(comp.weight, 1e-300)) + comp.log_norm;
            double* quad = &resp[c * n];
            std::fill(quad, quad + n, 0.0);
            for (std::size_t i = 0; i < dim; ++i) {
                double* zi = &z[i * n];
                const double* xi = &cols[i * n];
                const double mu = comp.mean[i];
                for (std::size_t r = 0; r < n; ++r) zi[r] = xi[r] - mu;
                for (std::size_t kk = 0; kk < i; ++kk) {
                    const double l = comp.chol[i * dim + kk];
                    const double* zk = &z[kk * n];
                    for (std::size_t r = 0; r < n; ++r) zi[r] -= l * zk[r];
                }
                const double diag = comp.chol[i * dim + i];
                for (std::size_t r = 0; r < n; ++r) {
                    zi[r] /= diag;
                    quad[r] += zi[r] * zi[r];
                }
            }
            for (std::size_t r = 0; r < n; ++r) quad[r] = log_prior - 0.5 * quad[r];
        }
        double ll = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < k; ++c) log_parts[c] = resp[c * n + r];
            const double norm = log_sum_exp(log_parts);
            ll += norm;
            for (std::size_t c = 0; c < k; ++c) {
                resp[c * n + r] = std::exp(log_parts[c] - norm);
            }
        }
        ll /= static_cast<double>(n);
        model.trace_.push_back(ll);

        // M step.
        for (std::size_t c = 0; c < k; ++c) {
            const double* w = &resp[c * n];
            auto& comp = model.components_[c];
            // nk and the mean's weighted sums in one pass over the rows.
            double nk = 0.0;
            std::fill(comp.mean.begin(), comp.mean.end(), 0.0);
            for (std::size_t r = 0; r < n; ++r) {
                nk += w[r];
                const auto xr = row(r);
                for (std::size_t d = 0; d < dim; ++d) comp.mean[d] += w[r] * xr[d];
            }
            nk = std::max(nk, 1e-12);
            comp.weight = nk / static_cast<double>(n);
            for (auto& v : comp.mean) v /= nk;
            std::fill(comp.covariance.begin(), comp.covariance.end(), 0.0);
            for (std::size_t r = 0; r < n; ++r) {
                const auto xr = row(r);
                for (std::size_t i = 0; i < dim; ++i) {
                    const double di = xr[i] - comp.mean[i];
                    for (std::size_t j = 0; j <= i; ++j) {
                        comp.covariance[i * dim + j] += w[r] * di * (xr[j] - comp.mean[j]);
                    }
                }
            }
            for (std::size_t i = 0; i < dim; ++i) {
                for (std::size_t j = 0; j <= i; ++j) {
                    comp.covariance[i * dim + j] /= nk;
                    comp.covariance[j * dim + i] = comp.covariance[i * dim + j];
                }
            }
            finalize_component(comp, dim, options.min_variance);
        }

        if (ll - prev_ll < options.tolerance && iter > 0) break;
        prev_ll = ll;
    }
    return model;
}

}  // namespace ga::stats

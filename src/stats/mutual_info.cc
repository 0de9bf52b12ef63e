#include "stats/mutual_info.hh"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hh"
#include "util/error.hh"

namespace gcm::stats
{

std::vector<std::size_t>
quantileBins(const std::vector<double> &v, std::size_t num_bins)
{
    GCM_ASSERT(num_bins >= 2, "quantileBins: need >= 2 bins");
    GCM_ASSERT(!v.empty(), "quantileBins: empty input");
    // Compute bin edges at the interior quantiles.
    std::vector<double> edges;
    edges.reserve(num_bins - 1);
    for (std::size_t b = 1; b < num_bins; ++b) {
        edges.push_back(
            quantile(v, static_cast<double>(b) / num_bins));
    }
    std::vector<std::size_t> bins(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        const auto it =
            std::upper_bound(edges.begin(), edges.end(), v[i]);
        bins[i] = static_cast<std::size_t>(it - edges.begin());
    }
    return bins;
}

double
discreteMutualInformation(const std::vector<std::size_t> &xb,
                          const std::vector<std::size_t> &yb,
                          std::size_t x_bins, std::size_t y_bins)
{
    GCM_ASSERT(xb.size() == yb.size(),
               "discreteMutualInformation: size mismatch");
    GCM_ASSERT(!xb.empty(), "discreteMutualInformation: empty input");
    const double n = static_cast<double>(xb.size());
    std::vector<double> joint(x_bins * y_bins, 0.0);
    std::vector<double> px(x_bins, 0.0), py(y_bins, 0.0);
    for (std::size_t i = 0; i < xb.size(); ++i) {
        GCM_ASSERT(xb[i] < x_bins && yb[i] < y_bins,
                   "discreteMutualInformation: bin out of range");
        joint[xb[i] * y_bins + yb[i]] += 1.0;
        px[xb[i]] += 1.0;
        py[yb[i]] += 1.0;
    }
    double mi = 0.0;
    for (std::size_t a = 0; a < x_bins; ++a) {
        for (std::size_t b = 0; b < y_bins; ++b) {
            const double pxy = joint[a * y_bins + b] / n;
            if (pxy <= 0.0)
                continue;
            mi += pxy * std::log(pxy / ((px[a] / n) * (py[b] / n)));
        }
    }
    return std::max(mi, 0.0);
}

double
histogramMutualInformation(const std::vector<double> &x,
                           const std::vector<double> &y,
                           std::size_t num_bins)
{
    return discreteMutualInformation(quantileBins(x, num_bins),
                                     quantileBins(y, num_bins), num_bins,
                                     num_bins);
}

GaussianMiEstimator::GaussianMiEstimator(
    const std::vector<std::vector<double>> &variables, double ridge)
    : cov_(covarianceMatrix(variables, /*ridge=*/0.0)), prec_(0)
{
    GCM_ASSERT(ridge > 0.0, "GaussianMiEstimator: ridge must be > 0");
    // Scale the ridge by the average variance so the regularization is
    // invariant to the units of the inputs.
    double avg_var = 0.0;
    for (std::size_t i = 0; i < cov_.size(); ++i)
        avg_var += cov_.at(i, i);
    avg_var /= static_cast<double>(cov_.size());
    const double eps = std::max(ridge * avg_var, 1e-12);
    for (std::size_t i = 0; i < cov_.size(); ++i)
        cov_.at(i, i) += eps;
    prec_ = choleskyInverse(cov_);
}

double
GaussianMiEstimator::setMi(const std::vector<std::size_t> &s,
                           const std::vector<std::size_t> &r) const
{
    GCM_ASSERT(!s.empty() && !r.empty(), "setMi: empty index set");
    std::vector<std::size_t> joint = s;
    joint.insert(joint.end(), r.begin(), r.end());
    const double ld_s = choleskyLogDet(cov_.submatrix(s));
    const double ld_r = choleskyLogDet(cov_.submatrix(r));
    const double ld_j = choleskyLogDet(cov_.submatrix(joint));
    return std::max(0.5 * (ld_s + ld_r - ld_j), 0.0);
}

double
GaussianMiEstimator::complementMi(const std::vector<std::size_t> &s) const
{
    GCM_ASSERT(!s.empty(), "complementMi: empty index set");
    GCM_ASSERT(s.size() <= cov_.size(), "complementMi: too many indices");
    // The complement is empty: nothing is left to inform.
    if (s.size() == cov_.size())
        return 0.0;
    const double ld_s = choleskyLogDet(cov_.submatrix(s));
    const double ld_p = choleskyLogDet(prec_.submatrix(s));
    return std::max(0.5 * (ld_s + ld_p), 0.0);
}

} // namespace gcm::stats

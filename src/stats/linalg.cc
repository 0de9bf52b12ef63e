#include "stats/linalg.hh"

#include <cmath>

#include "util/error.hh"

namespace gcm::stats
{

SymmetricMatrix
SymmetricMatrix::submatrix(const std::vector<std::size_t> &idx) const
{
    SymmetricMatrix sub(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        GCM_ASSERT(idx[i] < n_, "submatrix index out of range");
        for (std::size_t j = 0; j < idx.size(); ++j)
            sub.at(i, j) = at(idx[i], idx[j]);
    }
    return sub;
}

SymmetricMatrix
covarianceMatrix(const std::vector<std::vector<double>> &variables,
                 double ridge)
{
    const std::size_t p = variables.size();
    GCM_ASSERT(p > 0, "covarianceMatrix: no variables");
    const std::size_t n = variables[0].size();
    GCM_ASSERT(n >= 2, "covarianceMatrix: need >= 2 samples");

    std::vector<double> means(p, 0.0);
    for (std::size_t v = 0; v < p; ++v) {
        GCM_ASSERT(variables[v].size() == n,
                   "covarianceMatrix: unequal sample sizes");
        for (double x : variables[v])
            means[v] += x;
        means[v] /= static_cast<double>(n);
    }

    SymmetricMatrix cov(p);
    for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = i; j < p; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
                s += (variables[i][k] - means[i])
                    * (variables[j][k] - means[j]);
            }
            s /= static_cast<double>(n - 1);
            cov.at(i, j) = s;
            cov.at(j, i) = s;
        }
        cov.at(i, i) += ridge;
    }
    return cov;
}

namespace
{

/**
 * Lower Cholesky factor of `a` (row-major n*n, upper triangle zero).
 * `who` names the caller in the not-positive-definite error.
 */
std::vector<double>
choleskyFactor(const SymmetricMatrix &a, const char *who)
{
    const std::size_t n = a.size();
    GCM_ASSERT(n > 0, "cholesky: empty matrix");
    std::vector<double> l(n * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double d = a.at(j, j);
        for (std::size_t k = 0; k < j; ++k)
            d -= l[j * n + k] * l[j * n + k];
        if (d <= 0.0) {
            fatal(who, ": matrix not positive definite (pivot ", d,
                  " at index ", j, ")");
        }
        const double ljj = std::sqrt(d);
        l[j * n + j] = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a.at(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= l[i * n + k] * l[j * n + k];
            l[i * n + j] = s / ljj;
        }
    }
    return l;
}

} // namespace

double
choleskyLogDet(const SymmetricMatrix &a)
{
    const std::size_t n = a.size();
    const std::vector<double> l = choleskyFactor(a, "choleskyLogDet");
    double log_det = 0.0;
    for (std::size_t j = 0; j < n; ++j)
        log_det += 2.0 * std::log(l[j * n + j]);
    return log_det;
}

SymmetricMatrix
choleskyInverse(const SymmetricMatrix &a)
{
    const std::size_t n = a.size();
    const std::vector<double> l = choleskyFactor(a, "choleskyInverse");
    // L^-1 by forward substitution, one column at a time (lower).
    std::vector<double> li(n * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        li[j * n + j] = 1.0 / l[j * n + j];
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = 0.0;
            for (std::size_t k = j; k < i; ++k)
                s -= l[i * n + k] * li[k * n + j];
            li[i * n + j] = s / l[i * n + i];
        }
    }
    // A^-1 = L^-T L^-1: entry (i, j) sums over k >= max(i, j). Each
    // upper entry is computed once and mirrored.
    SymmetricMatrix inv(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            double s = 0.0;
            for (std::size_t k = j; k < n; ++k)
                s += li[k * n + i] * li[k * n + j];
            inv.at(i, j) = s;
            inv.at(j, i) = s;
        }
    }
    return inv;
}

} // namespace gcm::stats

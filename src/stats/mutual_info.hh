/**
 * @file
 * Mutual-information estimation for the MIS signature-set selection
 * algorithm (Algorithm 1 in the paper).
 *
 * Two estimators are provided:
 *
 *  - Histogram estimator: discretizes each variable into quantile bins
 *    and evaluates the discrete MI sum from the paper. Only defined
 *    pairwise, so set-valued objectives must be approximated by sums.
 *
 *  - Gaussian estimator: models variables (log-latencies) as jointly
 *    Gaussian, where I(S; R) = 1/2 (logdet Sigma_SS + logdet Sigma_RR
 *    - logdet Sigma_JJ), J = S u R. This gives a proper set-valued
 *    objective; the paper's submodularity citation (Krause et al.) is
 *    exactly this Gaussian sensor-placement setting. MIS only asks
 *    for I(S; V\S), and with the precision matrix P = Sigma^-1 the
 *    Schur complement gives logdet Sigma_RR = logdet Sigma
 *    + logdet P_SS for R = V\S, so I(S; V\S) = 1/2 (logdet Sigma_SS
 *    + logdet P_SS): two |S| x |S| factorizations per query instead
 *    of three of up to n x n (complementMi). The general setMi stays
 *    as the reference the fast form is tested against.
 */

#ifndef GCM_STATS_MUTUAL_INFO_HH
#define GCM_STATS_MUTUAL_INFO_HH

#include <cstddef>
#include <vector>

#include "stats/linalg.hh"

namespace gcm::stats
{

/**
 * Discretize samples into equal-frequency (quantile) bins.
 *
 * @param v Samples.
 * @param num_bins Number of bins (>= 2).
 * @return Bin index per sample, in [0, num_bins).
 */
std::vector<std::size_t> quantileBins(const std::vector<double> &v,
                                      std::size_t num_bins);

/**
 * Discrete mutual information (in nats) between two pre-binned
 * variables, using empirical joint/marginal frequencies.
 */
double discreteMutualInformation(const std::vector<std::size_t> &xb,
                                 const std::vector<std::size_t> &yb,
                                 std::size_t x_bins, std::size_t y_bins);

/**
 * Histogram MI between two continuous samples with quantile binning.
 */
double histogramMutualInformation(const std::vector<double> &x,
                                  const std::vector<double> &y,
                                  std::size_t num_bins = 8);

/**
 * Gaussian set-valued mutual-information estimator over a fixed set of
 * variables. Construct once from the sample matrix, then query
 * I(S; R) for arbitrary disjoint index sets.
 */
class GaussianMiEstimator
{
  public:
    /**
     * @param variables One sample vector per variable (equal lengths).
     * @param ridge Diagonal regularizer; needed because the number of
     *        samples (devices) can be smaller than the number of
     *        variables (networks).
     */
    explicit GaussianMiEstimator(
        const std::vector<std::vector<double>> &variables,
        double ridge = 1e-3);

    std::size_t numVariables() const { return cov_.size(); }

    /**
     * Estimate I(S; R) in nats.
     *
     * @param s First index set (non-empty, disjoint from r).
     * @param r Second index set (non-empty).
     */
    double setMi(const std::vector<std::size_t> &s,
                 const std::vector<std::size_t> &r) const;

    /**
     * Estimate I(S; V\S) in nats, V being every variable, from the
     * precision matrix computed once at construction. Equal to
     * setMi(s, V\S) up to rounding; I(V; {}) is 0.
     *
     * @param s Distinct variable indices (non-empty).
     */
    double complementMi(const std::vector<std::size_t> &s) const;

  private:
    SymmetricMatrix cov_;
    /** cov_^-1 (ridged), for complementMi. */
    SymmetricMatrix prec_;
};

} // namespace gcm::stats

#endif // GCM_STATS_MUTUAL_INFO_HH

#include "core/signature.hh"

#include <algorithm>
#include <cmath>

#include "obs/obs.hh"
#include "stats/correlation.hh"
#include "stats/mutual_info.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace gcm::core
{

const char *
signatureMethodName(SignatureMethod method)
{
    switch (method) {
      case SignatureMethod::RandomSampling: return "RS";
      case SignatureMethod::MutualInformation: return "MIS";
      case SignatureMethod::SpearmanCorrelation: return "SCCS";
    }
    GCM_ASSERT(false, "signatureMethodName: invalid method");
    return "?";
}

std::vector<std::size_t>
selectRandomSignature(std::size_t num_networks, std::size_t m,
                      std::uint64_t seed)
{
    GCM_ASSERT(m <= num_networks, "signature larger than network count");
    Rng rng(seed);
    return rng.sampleWithoutReplacement(num_networks, m);
}

namespace
{

/** log-transform latencies (MI estimators behave better in log). */
std::vector<std::vector<double>>
logLatencies(const std::vector<std::vector<double>> &net_latencies)
{
    std::vector<std::vector<double>> out = net_latencies;
    for (auto &row : out) {
        for (auto &v : row) {
            GCM_ASSERT(v > 0.0, "selectSignature: non-positive latency");
            v = std::log(v);
        }
    }
    return out;
}

/**
 * MIS with the Gaussian set-MI estimator: greedy argmax I(S; V\S).
 * Each candidate costs two |S|-sized log-determinants against the
 * estimator's precision matrix (complementMi), so the scan is serial.
 * Strict `>` keeps ties at the lowest index; the last pick's empty
 * complement scores 0, so m = n still selects every network.
 */
std::vector<std::size_t>
misGaussian(const std::vector<std::vector<double>> &vars, std::size_t m,
            double ridge)
{
    const std::size_t n = vars.size();
    const stats::GaussianMiEstimator mi(vars, ridge);
    std::vector<bool> chosen(n, false);
    std::vector<std::size_t> subset;
    std::vector<std::size_t> s; // subset followed by the candidate
    for (std::size_t step = 0; step < m; ++step) {
        const obs::TraceSpan scan_span("signature.scan");
        obs::counterAdd("signature.candidates", n);
        s = subset;
        s.push_back(n);
        double best_gain = -1.0;
        std::size_t best = n;
        for (std::size_t c = 0; c < n; ++c) {
            if (chosen[c])
                continue;
            s.back() = c;
            const double gain = mi.complementMi(s);
            if (gain > best_gain) {
                best_gain = gain;
                best = c;
            }
        }
        GCM_ASSERT(best < n, "misGaussian: no candidate found");
        chosen[best] = true;
        subset.push_back(best);
    }
    return subset;
}

/**
 * MIS with the pairwise histogram estimator: the set objective is
 * approximated by the sum over remaining networks of the maximum MI
 * to any signature member (a facility-location style surrogate that
 * is also submodular).
 */
std::vector<std::size_t>
misHistogram(const std::vector<std::vector<double>> &vars, std::size_t m,
             std::size_t bins)
{
    const std::size_t n = vars.size();
    // Pairwise MI matrix: each row i fills its strict upper triangle
    // and mirrors it.
    std::vector<std::vector<std::size_t>> binned(n);
    for (std::size_t i = 0; i < n; ++i)
        binned[i] = stats::quantileBins(vars[i], bins);
    std::vector<std::vector<double>> mi(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double v = stats::discreteMutualInformation(
                binned[i], binned[j], bins, bins);
            mi[i][j] = v;
            mi[j][i] = v;
        }
    }
    std::vector<bool> chosen(n, false);
    std::vector<double> best_cover(n, 0.0);
    std::vector<std::size_t> subset;
    for (std::size_t step = 0; step < m; ++step) {
        const obs::TraceSpan scan_span("signature.scan");
        obs::counterAdd("signature.candidates", n);
        // Marginal coverage gain per candidate; ties go to the lowest
        // index.
        double best_gain = -1.0;
        std::size_t best = n;
        for (std::size_t c = 0; c < n; ++c) {
            if (chosen[c])
                continue;
            double gain = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                if (chosen[j] || j == c)
                    continue;
                gain += std::max(0.0, mi[c][j] - best_cover[j]);
            }
            if (gain > best_gain) {
                best_gain = gain;
                best = c;
            }
        }
        GCM_ASSERT(best < n, "misHistogram: no candidate found");
        chosen[best] = true;
        subset.push_back(best);
        for (std::size_t j = 0; j < n; ++j)
            best_cover[j] = std::max(best_cover[j], mi[best][j]);
    }
    return subset;
}

} // namespace

std::vector<std::size_t>
selectMisSignature(const std::vector<std::vector<double>> &net_latencies,
                   std::size_t m, const SignatureConfig &config)
{
    GCM_ASSERT(m <= net_latencies.size(),
               "signature larger than network count");
    GCM_ASSERT(m >= 1, "empty signature requested");
    const obs::TraceSpan span("signature.mis");
    const auto vars = logLatencies(net_latencies);
    if (config.mi_estimator == MiEstimatorKind::Gaussian)
        return misGaussian(vars, m, config.mi_ridge);
    return misHistogram(vars, m, config.mi_bins);
}

std::vector<std::size_t>
selectSccsSignature(const std::vector<std::vector<double>> &net_latencies,
                    std::size_t m, const SignatureConfig &config)
{
    const std::size_t n = net_latencies.size();
    GCM_ASSERT(m <= n, "signature larger than network count");
    GCM_ASSERT(config.sccs_gamma > 0.0 && config.sccs_gamma <= 1.0,
               "SCCS gamma out of (0, 1]");
    const obs::TraceSpan span("signature.sccs");
    const auto rho = stats::spearmanMatrix(net_latencies);

    std::vector<bool> removed(n, false);
    std::vector<std::size_t> subset;
    double gamma = config.sccs_gamma;
    while (subset.size() < m) {
        const obs::TraceSpan scan_span("signature.scan");
        obs::counterAdd("signature.candidates", n);
        // Pick the live network with the most live correlations
        // >= gamma (self excluded). Ties — common when all pairs
        // correlate above gamma — go to the network with the largest
        // correlation mass, i.e. the most central representative.
        std::size_t best = n;
        std::size_t best_count = 0;
        double best_mass = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (removed[i])
                continue;
            std::size_t count = 0;
            double mass = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                if (j != i && !removed[j] && rho[i][j] >= gamma) {
                    ++count;
                    mass += rho[i][j];
                }
            }
            if (best == n || count > best_count
                || (count == best_count && mass > best_mass)) {
                best = i;
                best_count = count;
                best_mass = mass;
            }
        }
        if (best == n) {
            // Candidate pool exhausted: relax gamma and resurrect the
            // removed networks that were not selected.
            gamma *= config.sccs_gamma_decay;
            for (std::size_t i = 0; i < n; ++i) {
                if (std::find(subset.begin(), subset.end(), i)
                    == subset.end()) {
                    removed[i] = false;
                }
            }
            continue;
        }
        subset.push_back(best);
        removed[best] = true;
        // Remove the group highly correlated with the pick.
        for (std::size_t j = 0; j < n; ++j) {
            if (!removed[j] && rho[best][j] >= gamma)
                removed[j] = true;
        }
    }
    return subset;
}

std::vector<std::size_t>
selectSignature(const std::vector<std::vector<double>> &net_latencies,
                SignatureMethod method, const SignatureConfig &config)
{
    GCM_ASSERT(!net_latencies.empty(), "selectSignature: no networks");
    switch (method) {
      case SignatureMethod::RandomSampling:
        return selectRandomSignature(net_latencies.size(), config.size,
                                     config.seed);
      case SignatureMethod::MutualInformation:
        return selectMisSignature(net_latencies, config.size, config);
      case SignatureMethod::SpearmanCorrelation:
        return selectSccsSignature(net_latencies, config.size, config);
    }
    GCM_ASSERT(false, "selectSignature: invalid method");
    return {};
}

} // namespace gcm::core

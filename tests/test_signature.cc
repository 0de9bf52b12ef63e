/**
 * @file
 * Unit tests for signature-set selection (RS / MIS / SCCS).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "core/evaluation.hh"
#include "core/experiment_context.hh"
#include "core/imputation.hh"
#include "core/signature.hh"
#include "stats/mutual_info.hh"
#include "util/error.hh"
#include "util/rng.hh"

using namespace gcm::core;
using gcm::GcmError;
using gcm::Rng;

namespace
{

bool
allDistinct(const std::vector<std::size_t> &v)
{
    std::set<std::size_t> s(v.begin(), v.end());
    return s.size() == v.size();
}

/**
 * Synthetic latency matrix with redundancy structure: `groups`
 * clusters of networks; members of a cluster are near-duplicates
 * (same device response + tiny noise), clusters are independent.
 */
std::vector<std::vector<double>>
clusteredLatencies(std::size_t groups, std::size_t per_group,
                   std::size_t devices, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> base(groups);
    for (auto &row : base) {
        for (std::size_t d = 0; d < devices; ++d)
            row.push_back(std::exp(rng.uniform(2.0, 6.0)));
    }
    std::vector<std::vector<double>> nets;
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t m = 0; m < per_group; ++m) {
            std::vector<double> row = base[g];
            for (auto &v : row)
                v *= rng.uniform(0.99, 1.01);
            nets.push_back(std::move(row));
        }
    }
    return nets;
}

std::size_t
groupOf(std::size_t net_idx, std::size_t per_group)
{
    return net_idx / per_group;
}

/**
 * Latencies from a k-factor log-linear model plus noise: network n on
 * device d takes exp(base_n + <a_n, b_d> + noise). Unlike the
 * clustered matrices, no two networks are near-duplicates, so the
 * greedy gains are spread out rather than tied.
 */
std::vector<std::vector<double>>
factorLatencies(std::size_t networks, std::size_t devices,
                std::size_t factors, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> dev(devices);
    for (auto &b : dev) {
        for (std::size_t f = 0; f < factors; ++f)
            b.push_back(rng.normal());
    }
    std::vector<std::vector<double>> nets(networks);
    for (auto &row : nets) {
        const double base = rng.uniform(1.0, 5.0);
        std::vector<double> a(factors);
        for (double &v : a)
            v = rng.uniform(-0.6, 0.6);
        for (const auto &b : dev) {
            double x = base + 0.05 * rng.normal();
            for (std::size_t f = 0; f < factors; ++f)
                x += a[f] * b[f];
            row.push_back(std::exp(x));
        }
    }
    return nets;
}

/** One greedy run: picks in order and the winning I(S; V\S) per step. */
struct GreedyRun
{
    std::vector<std::size_t> picks;
    std::vector<double> gains;
};

std::vector<std::vector<double>>
logOf(std::vector<std::vector<double>> lat)
{
    for (auto &row : lat) {
        for (double &v : row)
            v = std::log(v);
    }
    return lat;
}

/**
 * Reference MIS: Algorithm 1 in its direct form. Every candidate c is
 * scored by setMi(S u {c}, V \ (S u {c})), three factorizations of up
 * to n x n each; ties go to the lowest index, and the empty
 * complement of the very last pick scores 0.
 */
GreedyRun
oracleMis(const std::vector<std::vector<double>> &lat, std::size_t m,
          double ridge)
{
    const gcm::stats::GaussianMiEstimator est(logOf(lat), ridge);
    const std::size_t n = lat.size();
    std::vector<bool> chosen(n, false);
    GreedyRun run;
    for (std::size_t step = 0; step < m; ++step) {
        double best_gain = -1.0;
        std::size_t best = n;
        for (std::size_t c = 0; c < n; ++c) {
            if (chosen[c])
                continue;
            std::vector<std::size_t> s = run.picks;
            s.push_back(c);
            std::vector<std::size_t> rest;
            for (std::size_t j = 0; j < n; ++j) {
                if (!chosen[j] && j != c)
                    rest.push_back(j);
            }
            const double gain = rest.empty() ? 0.0 : est.setMi(s, rest);
            if (gain > best_gain) {
                best_gain = gain;
                best = c;
            }
        }
        chosen[best] = true;
        run.picks.push_back(best);
        run.gains.push_back(best_gain);
    }
    return run;
}

/**
 * selectMisSignature must pick the oracle's sequence, and each
 * prefix's complementMi must match the oracle's winning score to
 * 1e-9 relative (absolute below 1 nat).
 */
void
expectMatchesOracle(const std::vector<std::vector<double>> &lat,
                    std::size_t m, double ridge)
{
    SignatureConfig cfg;
    cfg.mi_ridge = ridge;
    const auto fast = selectMisSignature(lat, m, cfg);
    const GreedyRun ref = oracleMis(lat, m, ridge);
    ASSERT_EQ(fast, ref.picks) << "n=" << lat.size() << " m=" << m
                               << " ridge=" << ridge;
    const gcm::stats::GaussianMiEstimator est(logOf(lat), ridge);
    std::vector<std::size_t> prefix;
    for (std::size_t step = 0; step < m; ++step) {
        prefix.push_back(fast[step]);
        const double tol = 1e-9 * std::max(1.0, ref.gains[step]);
        EXPECT_NEAR(est.complementMi(prefix), ref.gains[step], tol)
            << "step " << step;
    }
}

/** The paper-size context (118 networks x 105 devices), built once. */
const ExperimentContext &
paperContext()
{
    static const ExperimentContext ctx = ExperimentContext::build();
    return ctx;
}

} // namespace

TEST(SignatureRs, SizeAndDistinctness)
{
    const auto sig = selectRandomSignature(118, 10, 42);
    EXPECT_EQ(sig.size(), 10u);
    EXPECT_TRUE(allDistinct(sig));
    for (std::size_t s : sig)
        EXPECT_LT(s, 118u);
}

TEST(SignatureRs, DeterministicPerSeed)
{
    EXPECT_EQ(selectRandomSignature(50, 5, 7),
              selectRandomSignature(50, 5, 7));
    EXPECT_NE(selectRandomSignature(50, 5, 7),
              selectRandomSignature(50, 5, 8));
}

TEST(SignatureMis, PicksAcrossRedundancyGroups)
{
    // 5 groups of 6 near-identical networks: a 5-network signature
    // should touch all 5 groups (picking duplicates wastes MI).
    const auto lat = clusteredLatencies(5, 6, 40, 1);
    SignatureConfig cfg;
    const auto sig = selectMisSignature(lat, 5, cfg);
    EXPECT_TRUE(allDistinct(sig));
    std::set<std::size_t> groups;
    for (std::size_t s : sig)
        groups.insert(groupOf(s, 6));
    EXPECT_EQ(groups.size(), 5u);
}

TEST(SignatureMis, HistogramEstimatorAlsoSpreads)
{
    const auto lat = clusteredLatencies(4, 5, 60, 2);
    SignatureConfig cfg;
    cfg.mi_estimator = MiEstimatorKind::Histogram;
    const auto sig = selectMisSignature(lat, 4, cfg);
    std::set<std::size_t> groups;
    for (std::size_t s : sig)
        groups.insert(groupOf(s, 5));
    EXPECT_GE(groups.size(), 3u);
}

TEST(SignatureMis, PrefixProperty)
{
    const auto lat = clusteredLatencies(5, 4, 30, 3);
    SignatureConfig cfg;
    const auto big = selectMisSignature(lat, 8, cfg);
    const auto small = selectMisSignature(lat, 4, cfg);
    ASSERT_EQ(small.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(small[i], big[i]);
}

TEST(SignatureMis, FullSizeSelectionIsPermutation)
{
    // m = n: the last pick leaves an empty complement, I(V; {}) = 0,
    // and must still be selected rather than abort.
    const auto lat = clusteredLatencies(5, 1, 12, 8);
    for (const MiEstimatorKind kind :
         {MiEstimatorKind::Gaussian, MiEstimatorKind::Histogram}) {
        SignatureConfig cfg;
        cfg.mi_estimator = kind;
        auto sig = selectMisSignature(lat, lat.size(), cfg);
        std::sort(sig.begin(), sig.end());
        std::vector<std::size_t> all(lat.size());
        std::iota(all.begin(), all.end(), 0);
        EXPECT_EQ(sig, all);
    }
}

TEST(SignatureMisOracle, SeededMatricesMatchDirectGreedy)
{
    // Networks above and below the sample count, two ridges, and
    // m in {1, 10, n}.
    const struct
    {
        std::size_t networks, devices;
    } shapes[] = {{40, 25}, {20, 60}, {30, 30}};
    std::uint64_t seed = 100;
    for (const auto &shape : shapes) {
        const auto lat =
            factorLatencies(shape.networks, shape.devices, 4, ++seed);
        for (const double ridge : {1e-2, 1e-4}) {
            for (const std::size_t m :
                 {std::size_t{1}, std::size_t{10}, shape.networks})
                expectMatchesOracle(lat, m, ridge);
        }
    }
    // Near-duplicate clusters: most candidate gains are close.
    expectMatchesOracle(clusteredLatencies(5, 6, 40, 9), 10, 1e-2);
}

/** Paper-size context, 70/30 device split by seed, 10 networks. */
class SignatureMisOracleSplit
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SignatureMisOracleSplit, PaperSizeMatchesDirectGreedy)
{
    const auto &ctx = paperContext();
    const auto split =
        splitDevices(ctx.fleet().size(), 0.3, GetParam());
    expectMatchesOracle(ctx.latencyMatrix(split.train), 10, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureMisOracleSplit,
                         ::testing::Values(1, 3, 7, 101, 202));

TEST(SignatureMisOracle, Fig11SplitAtSizeTwenty)
{
    // bench_fig11_signature_size's selection: split 42, 20 networks.
    const auto &ctx = paperContext();
    const auto split = splitDevices(ctx.fleet().size(), 0.3, 42);
    expectMatchesOracle(ctx.latencyMatrix(split.train), 20, 1e-2);
}

TEST(SignatureMisOracle, FleetShapedImputedGrid)
{
    // The fleet retrain's shape: 26 networks on 64 devices with 15%
    // of the cells lost and imputed.
    ExperimentConfig ecfg;
    ecfg.num_random_networks = 8;
    ecfg.num_devices = 64;
    const auto ctx = ExperimentContext::build(ecfg);
    std::vector<std::size_t> devices(ctx.fleet().size());
    std::iota(devices.begin(), devices.end(), 0);
    auto grid = ctx.latencyMatrix(devices);
    Rng rng(404);
    for (auto &row : grid) {
        for (double &v : row) {
            if (rng.bernoulli(0.15))
                v = std::nan("");
        }
    }
    imputeLatencyMatrix(grid);
    for (const std::size_t m : {std::size_t{6}, std::size_t{10}})
        expectMatchesOracle(grid, m, 1e-2);
}

TEST(SignatureSccs, RemovesCorrelatedGroup)
{
    const auto lat = clusteredLatencies(5, 6, 40, 4);
    SignatureConfig cfg;
    cfg.sccs_gamma = 0.95;
    const auto sig = selectSccsSignature(lat, 5, cfg);
    EXPECT_TRUE(allDistinct(sig));
    std::set<std::size_t> groups;
    for (std::size_t s : sig)
        groups.insert(groupOf(s, 6));
    // Each pick removes its own highly-correlated group, so the five
    // picks should cover the five groups.
    EXPECT_EQ(groups.size(), 5u);
}

TEST(SignatureSccs, GammaRelaxationWhenExhausted)
{
    // 2 groups but 6 networks requested: the pool empties after two
    // picks and the documented gamma-relaxation path must kick in.
    const auto lat = clusteredLatencies(2, 4, 30, 5);
    SignatureConfig cfg;
    cfg.sccs_gamma = 0.9;
    const auto sig = selectSccsSignature(lat, 6, cfg);
    EXPECT_EQ(sig.size(), 6u);
    EXPECT_TRUE(allDistinct(sig));
}

TEST(Signature, DispatchMatchesDirectCalls)
{
    const auto lat = clusteredLatencies(4, 4, 30, 6);
    SignatureConfig cfg;
    cfg.size = 4;
    cfg.seed = 11;
    EXPECT_EQ(selectSignature(lat, SignatureMethod::RandomSampling, cfg),
              selectRandomSignature(lat.size(), 4, 11));
    EXPECT_EQ(
        selectSignature(lat, SignatureMethod::MutualInformation, cfg),
        selectMisSignature(lat, 4, cfg));
    EXPECT_EQ(
        selectSignature(lat, SignatureMethod::SpearmanCorrelation, cfg),
        selectSccsSignature(lat, 4, cfg));
}

TEST(Signature, MethodNames)
{
    EXPECT_STREQ(signatureMethodName(SignatureMethod::RandomSampling),
                 "RS");
    EXPECT_STREQ(signatureMethodName(SignatureMethod::MutualInformation),
                 "MIS");
    EXPECT_STREQ(
        signatureMethodName(SignatureMethod::SpearmanCorrelation),
        "SCCS");
}

TEST(Signature, OversizedRequestAborts)
{
    const auto lat = clusteredLatencies(2, 2, 10, 7);
    EXPECT_DEATH((void)selectRandomSignature(4, 5, 1), "larger");
    SignatureConfig cfg;
    EXPECT_DEATH((void)selectMisSignature(lat, 5, cfg), "larger");
}

TEST(Signature, NonPositiveLatencyAborts)
{
    std::vector<std::vector<double>> lat = {{1.0, 2.0}, {0.0, 3.0}};
    SignatureConfig cfg;
    EXPECT_DEATH((void)selectMisSignature(lat, 1, cfg), "non-positive");
}

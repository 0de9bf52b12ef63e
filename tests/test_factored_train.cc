/**
 * @file
 * Differential tests for factored training: a FactoredDataset must
 * train exactly the model its dense concatenation trains. The dense
 * Dataset is materialized here, in the test, as the reference. Cut
 * points, active features and codes must match, and the boosters'
 * serialize() output and featureImportance() must be byte-identical
 * at any thread count. Inputs are the paper-size training set (70/30
 * device split, MIS signature) and a fleet-shaped imputed grid, also
 * with missing (network, device) rows. The identity-group path
 * (dense datasets, RandomForest) is pinned to fixed model hashes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/cost_model.hh"
#include "core/evaluation.hh"
#include "core/experiment_context.hh"
#include "core/hw_features.hh"
#include "core/imputation.hh"
#include "ml/binning.hh"
#include "ml/gbt.hh"
#include "ml/random_forest.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace gcm;

namespace
{

/** The dense rows a factored dataset stands for. */
ml::Dataset
materialize(const ml::FactoredDataset &f)
{
    ml::Dataset ds(f.numFeatures());
    std::vector<float> row(f.numFeatures());
    for (std::size_t i = 0; i < f.numRows(); ++i) {
        const float *net = f.network(f.rowNetworks()[i]);
        const float *dev = f.device(f.rowDevices()[i]);
        std::copy(net, net + f.networkFeatures(), row.begin());
        std::copy(dev, dev + f.deviceFeatures(),
                  row.begin()
                      + static_cast<std::ptrdiff_t>(f.networkFeatures()));
        ds.addRow(row, f.labels()[i]);
    }
    return ds;
}

std::string
serialized(const ml::GradientBoostedTrees &model)
{
    std::ostringstream os;
    model.serialize(os);
    return os.str();
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

void
expectSameBinning(const ml::FactoredDataset &factored,
                  const ml::Dataset &dense, std::size_t max_bins)
{
    const ml::BinnedMatrix a(factored, max_bins);
    const ml::BinnedMatrix b(dense, max_bins);
    ASSERT_EQ(a.numFeatures(), b.numFeatures());
    ASSERT_EQ(a.activeFeatures(), b.activeFeatures());
    for (std::size_t f = 0; f < a.numFeatures(); ++f)
        ASSERT_EQ(a.featureBins(f).cuts, b.featureBins(f).cuts) << f;
    for (std::size_t f : a.activeFeatures()) {
        for (std::size_t i = 0; i < dense.numRows(); ++i)
            ASSERT_EQ(a.binAt(f, i), b.binAt(f, i)) << f << ' ' << i;
    }
}

/**
 * Train on the dense reference once, then on the factored set at 1, 2
 * and 8 threads; every factored model must equal the reference byte
 * for byte. Returns the reference's serialization.
 */
std::string
expectSameModel(const ml::FactoredDataset &factored,
                const ml::Dataset &dense, const ml::GbtParams &params)
{
    setThreads(1);
    ml::GradientBoostedTrees reference(params);
    reference.train(dense);
    const std::string want = serialized(reference);
    for (std::size_t threads : {1u, 2u, 8u}) {
        setThreads(threads);
        ml::GradientBoostedTrees model(params);
        model.train(factored);
        EXPECT_EQ(serialized(model), want) << threads << " threads";
        EXPECT_EQ(model.featureImportance(),
                  reference.featureImportance())
            << threads << " threads";
        EXPECT_EQ(model.predict(factored), reference.predict(dense))
            << threads << " threads";
    }
    setThreads(0);
    return want;
}

/** The same tables with only the rows `keep` accepts. */
template <class Keep>
ml::FactoredDataset
withRows(const ml::FactoredDataset &f, Keep keep)
{
    ml::FactoredDataset out(f.networkFeatures(), f.deviceFeatures());
    for (std::size_t n = 0; n < f.numNetworks(); ++n) {
        out.addNetwork(std::vector<float>(
            f.network(n), f.network(n) + f.networkFeatures()));
    }
    for (std::size_t d = 0; d < f.numDevices(); ++d) {
        out.addDevice(std::vector<float>(
            f.device(d), f.device(d) + f.deviceFeatures()));
    }
    for (std::size_t i = 0; i < f.numRows(); ++i) {
        const std::size_t n = f.rowNetworks()[i];
        const std::size_t d = f.rowDevices()[i];
        if (keep(n, d))
            out.addRow(n, d, f.labels()[i]);
    }
    return out;
}

/** A small dense regression set with discrete and continuous columns. */
ml::Dataset
identityData()
{
    Rng rng(77);
    ml::Dataset ds(12);
    std::vector<float> x(12);
    for (int i = 0; i < 600; ++i) {
        for (std::size_t f = 0; f < x.size(); ++f) {
            x[f] = f % 3 == 0
                ? static_cast<float>(rng.uniformInt(0, 5))
                : static_cast<float>(rng.uniform(-2.0, 2.0));
        }
        const double y = 3.0 * x[0] + x[1] * x[2] - 2.0 * (x[4] > 0.5)
            + 0.1 * rng.uniform(-1.0, 1.0);
        ds.addRow(x, y);
    }
    return ds;
}

} // namespace

TEST(FactoredTrain, PaperSizeSignatureModelMatchesDenseReference)
{
    // The paper's setup: 118 networks x 105 devices, a seeded 70/30
    // device split, a 10-network MIS signature chosen on the training
    // devices, 100 trees of depth 3.
    const auto ctx = core::ExperimentContext::build();
    const auto split = core::splitDevices(ctx.fleet().size(), 0.3, 3);
    const auto latencies = ctx.latencyMatrix(split.train);
    core::SignatureCostModel::Config cfg;
    cfg.pinned_signature = core::selectSignature(
        latencies, core::SignatureMethod::MutualInformation, {});
    const auto model =
        core::SignatureCostModel::train(ctx.suite(), latencies, cfg);

    std::vector<std::vector<float>> encodings;
    for (const auto &g : ctx.suite())
        encodings.push_back(model.encodeNetwork(g));
    const auto set = core::buildSignatureTrainingSet(
        encodings, latencies, cfg.pinned_signature, true);
    const ml::Dataset dense = materialize(set.data);
    ASSERT_EQ(dense.numRows(),
              split.train.size()
                  * (ctx.numNetworks() - cfg.pinned_signature.size()));

    expectSameBinning(set.data, dense, cfg.gbt.max_bins);
    const std::string booster = expectSameModel(set.data, dense, cfg.gbt);

    // The cost model's own booster is the factored one: its
    // serialization ends with the dense reference's booster.
    std::ostringstream os;
    model.serialize(os);
    const std::string whole = os.str();
    ASSERT_GE(whole.size(), booster.size());
    EXPECT_EQ(whole.substr(whole.size() - booster.size()), booster);
}

TEST(FactoredTrain, FleetShapedGridMatchesDenseReference)
{
    // The fleet retrain's shape: 26 networks, 64 training devices, 60
    // trees, on a latency grid with 15% of its cells lost and then
    // imputed.
    core::ExperimentConfig ecfg;
    ecfg.num_random_networks = 8;
    ecfg.num_devices = 64;
    const auto ctx = core::ExperimentContext::build(ecfg);
    std::vector<std::size_t> devices(ctx.fleet().size());
    for (std::size_t d = 0; d < devices.size(); ++d)
        devices[d] = d;
    auto grid = ctx.latencyMatrix(devices);
    Rng rng(404);
    std::vector<std::vector<bool>> lost(
        grid.size(), std::vector<bool>(devices.size(), false));
    for (std::size_t n = 0; n < grid.size(); ++n) {
        for (std::size_t d = 0; d < devices.size(); ++d) {
            if (rng.bernoulli(0.15)) {
                lost[n][d] = true;
                grid[n][d] = std::nan("");
            }
        }
    }
    core::imputeLatencyMatrix(grid);

    core::SignatureConfig sig_cfg;
    sig_cfg.size = 6;
    const auto signature = core::selectSignature(
        grid, core::SignatureMethod::MutualInformation, sig_cfg);
    std::vector<std::vector<float>> encodings;
    for (const auto &g : ctx.suite())
        encodings.push_back(ctx.encoder().encode(g));
    const auto set = core::buildSignatureTrainingSet(encodings, grid,
                                                     signature, true);
    ml::GbtParams params;
    params.n_estimators = 60;

    const ml::Dataset dense = materialize(set.data);
    expectSameBinning(set.data, dense, params.max_bins);
    (void)expectSameModel(set.data, dense, params);

    // Only the measured cells: rows for lost (network, device) pairs
    // are absent, so entities appear with uneven multiplicities.
    const auto measured = withRows(set.data, [&](std::size_t n,
                                                 std::size_t d) {
        return !lost[n][d];
    });
    ASSERT_LT(measured.numRows(), set.data.numRows());
    const ml::Dataset measured_dense = materialize(measured);
    expectSameBinning(measured, measured_dense, params.max_bins);
    (void)expectSameModel(measured, measured_dense, params);
}

TEST(FactoredTrain, StaticAndSignatureHarnessesScoreLikeDense)
{
    // The harness scores its factored test sets through the segmented
    // predictor; the R^2 must be a plain dense score of the same rows.
    core::ExperimentConfig ecfg;
    ecfg.num_random_networks = 12;
    ecfg.num_devices = 30;
    const auto ctx = core::ExperimentContext::build(ecfg);
    const core::EvaluationHarness harness(ctx);
    const auto split = core::splitDevices(ctx.fleet().size(), 0.3, 5);
    ml::GbtParams params;
    params.n_estimators = 30;
    const std::vector<std::size_t> signature = {0, 3, 7};

    const auto eval = harness.evalWithSignature(split, signature, params);
    const auto train = core::buildSignatureTrainingSet(
        harness.encodings(), ctx.latencyMatrix(split.train), signature,
        true);
    const auto test = core::buildSignatureTrainingSet(
        harness.encodings(), ctx.latencyMatrix(split.test), signature,
        true);
    ml::GradientBoostedTrees dense_model(params);
    dense_model.train(materialize(train.data));
    const auto pred = dense_model.predict(materialize(test.data));
    ASSERT_EQ(eval.y_pred.size(), pred.size());
    for (std::size_t i = 0; i < pred.size(); ++i) {
        const double anchor = test.anchors[test.data.rowDevices()[i]];
        ASSERT_EQ(eval.y_pred[i], pred[i] * anchor) << i;
        ASSERT_EQ(eval.y_true[i], test.data.labels()[i] * anchor) << i;
    }

    // Static hardware features: every network on every device, the
    // device columns holding the static hardware vector.
    const core::StaticHardwareEncoder hw;
    const auto dense_static = [&](const std::vector<std::size_t> &devs) {
        ml::Dataset ds(ctx.encoder().numFeatures() + hw.numFeatures());
        for (std::size_t d : devs) {
            const auto hw_vec = hw.encode(ctx.fleet().device(d), ctx.fleet());
            for (std::size_t n = 0; n < ctx.numNetworks(); ++n) {
                auto row = harness.encodings()[n];
                row.insert(row.end(), hw_vec.begin(), hw_vec.end());
                ds.addRow(row, ctx.latencyMs(d, n));
            }
        }
        return ds;
    };
    const auto static_eval = harness.evalStaticFeatureModel(split, params);
    ml::GradientBoostedTrees static_model(params);
    static_model.train(dense_static(split.train));
    const auto static_test = dense_static(split.test);
    EXPECT_EQ(static_eval.y_pred, static_model.predict(static_test));
    EXPECT_EQ(static_eval.y_true, static_test.labels());
}

TEST(FactoredTrain, IdentityGroupModelsArePinned)
{
    // A dense Dataset trains through one identity column group. These
    // hashes pin the models of the dense trainer, so RandomForest and
    // the generic booster stay byte-identical to it at any thread
    // count.
    const ml::Dataset ds = identityData();
    for (std::size_t threads : {1u, 8u}) {
        setThreads(threads);
        ml::RandomForest rf;
        rf.train(ds);
        std::ostringstream os;
        rf.serialize(os);
        EXPECT_EQ(fnv1a(os.str()), 0x55d96a382f642c77ULL) << threads;

        ml::GradientBoostedTrees gbt;
        gbt.train(ds);
        EXPECT_EQ(fnv1a(serialized(gbt)), 0xb548fb44821cb2eeULL)
            << threads;
    }
    setThreads(0);
}

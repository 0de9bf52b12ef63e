#include "core/evaluation.hh"

#include <utility>

#include "core/cost_model.hh"
#include "core/hw_features.hh"
#include "ml/metrics.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace gcm::core
{

DeviceSplit
splitDevices(std::size_t num_devices, double test_fraction,
             std::uint64_t seed)
{
    GCM_ASSERT(test_fraction > 0.0 && test_fraction < 1.0,
               "splitDevices: test_fraction out of (0, 1)");
    Rng rng(seed);
    std::vector<std::size_t> order(num_devices);
    for (std::size_t i = 0; i < num_devices; ++i)
        order[i] = i;
    rng.shuffle(order);
    const auto test_n = static_cast<std::size_t>(
        static_cast<double>(num_devices) * test_fraction);
    GCM_ASSERT(test_n > 0 && test_n < num_devices,
               "splitDevices: degenerate split");
    DeviceSplit split;
    split.test.assign(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(test_n));
    split.train.assign(order.begin() + static_cast<std::ptrdiff_t>(test_n),
                       order.end());
    return split;
}

EvaluationHarness::EvaluationHarness(const ExperimentContext &ctx,
                                     HarnessOptions options)
    : ctx_(ctx), options_(options)
{
    encodings_.reserve(ctx_.numNetworks());
    for (const auto &g : ctx_.suite())
        encodings_.push_back(ctx_.encoder().encode(g));
}

namespace
{

/** Scores predictions in milliseconds, undoing per-row anchors. */
ModelEvaluation
score(std::vector<double> y_true, std::vector<double> y_pred,
      const std::vector<double> &row_anchors)
{
    for (std::size_t i = 0; i < row_anchors.size(); ++i) {
        y_true[i] *= row_anchors[i];
        y_pred[i] *= row_anchors[i];
    }
    ModelEvaluation eval;
    eval.y_true = std::move(y_true);
    eval.y_pred = std::move(y_pred);
    eval.r2 = ml::r2Score(eval.y_true, eval.y_pred);
    eval.rmse_ms = ml::rmse(eval.y_true, eval.y_pred);
    eval.mape_pct = ml::mape(eval.y_true, eval.y_pred);
    return eval;
}

} // namespace

ModelEvaluation
EvaluationHarness::evalStaticFeatureModel(const DeviceSplit &split,
                                          const ml::GbtParams &params) const
{
    GCM_ASSERT(!split.train.empty() && !split.test.empty(),
               "evalStaticFeatureModel: empty split");
    const StaticHardwareEncoder hw;

    // Every network on every device; the device table holds the
    // static hardware vector.
    auto build = [&](const std::vector<std::size_t> &devices) {
        ml::FactoredDataset ds(ctx_.encoder().numFeatures(),
                               hw.numFeatures());
        for (const auto &enc : encodings_)
            ds.addNetwork(enc);
        for (std::size_t d : devices) {
            const std::size_t dev =
                ds.addDevice(hw.encode(ctx_.fleet().device(d), ctx_.fleet()));
            for (std::size_t n = 0; n < ctx_.numNetworks(); ++n)
                ds.addRow(n, dev, ctx_.latencyMs(d, n));
        }
        return ds;
    };

    const ml::FactoredDataset train = build(split.train);
    const ml::FactoredDataset test = build(split.test);
    ml::GradientBoostedTrees model(params);
    model.train(train);
    return score(test.labels(), model.predict(test), {});
}

ModelEvaluation
EvaluationHarness::evalWithSignature(
    const DeviceSplit &split, const std::vector<std::size_t> &signature,
    const ml::GbtParams &params) const
{
    GCM_ASSERT(!split.train.empty() && !split.test.empty(),
               "evalWithSignature: empty split");
    GCM_ASSERT(!signature.empty(), "evalWithSignature: empty signature");
    const auto build = [&](const std::vector<std::size_t> &devices) {
        return buildSignatureTrainingSet(encodings_,
                                         ctx_.latencyMatrix(devices),
                                         signature,
                                         options_.anchor_normalization);
    };
    const SignatureTrainingSet train = build(split.train);
    const SignatureTrainingSet test = build(split.test);
    ml::GradientBoostedTrees model(params);
    model.train(train.data);
    // Denormalize: metrics are always reported in milliseconds.
    std::vector<double> row_anchors;
    row_anchors.reserve(test.data.numRows());
    for (std::uint32_t d : test.data.rowDevices())
        row_anchors.push_back(test.anchors[d]);
    ModelEvaluation eval =
        score(test.data.labels(), model.predict(test.data), row_anchors);
    eval.signature = signature;
    return eval;
}

ModelEvaluation
EvaluationHarness::evalSignatureModel(const DeviceSplit &split,
                                      SignatureMethod method,
                                      const SignatureConfig &config,
                                      const ml::GbtParams &params) const
{
    // Selection sees training devices only (Section IV-A).
    const auto train_latencies = ctx_.latencyMatrix(split.train);
    const auto signature = selectSignature(train_latencies, method, config);
    return evalWithSignature(split, signature, params);
}

} // namespace gcm::core

#include "core/cost_model.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <set>

#include "obs/obs.hh"
#include "util/error.hh"

namespace gcm::core
{

namespace
{

/**
 * Geometric mean of a device's signature latencies: the anchor the
 * scale-free representation divides by.
 */
double
signatureAnchor(const std::vector<double> &signature_latencies_ms)
{
    double log_sum = 0.0;
    for (double ms : signature_latencies_ms) {
        if (ms <= 0.0)
            fatal("signature latency must be positive, got ", ms);
        log_sum += std::log(ms);
    }
    return std::exp(log_sum
                    / static_cast<double>(signature_latencies_ms.size()));
}

} // namespace

SignatureCostModel
SignatureCostModel::train(const std::vector<dnn::Graph> &suite,
                          const std::vector<std::vector<double>> &latencies)
{
    return train(suite, latencies, Config{});
}

SignatureCostModel
SignatureCostModel::train(const std::vector<dnn::Graph> &suite,
                          const std::vector<std::vector<double>> &latencies,
                          const Config &config)
{
    GCM_ASSERT(!suite.empty(), "SignatureCostModel: empty suite");
    if (latencies.size() != suite.size()) {
        fatal("SignatureCostModel: latency matrix has ",
              latencies.size(), " rows for ", suite.size(), " networks");
    }
    const std::size_t num_devices = latencies[0].size();
    for (const auto &row : latencies) {
        if (row.size() != num_devices)
            fatal("SignatureCostModel: ragged latency matrix");
    }
    if (num_devices == 0)
        fatal("SignatureCostModel: no training devices");
    for (std::size_t n = 0; n < latencies.size(); ++n) {
        for (std::size_t d = 0; d < num_devices; ++d) {
            const double v = latencies[n][d];
            if (!std::isfinite(v) || v <= 0.0) {
                fatal("SignatureCostModel: latency of network ", n,
                      " on device column ", d,
                      " is not a positive finite value (", v,
                      "); sparse matrices must be imputed first — "
                      "see core/imputation.hh");
            }
        }
    }

    SignatureCostModel model;
    if (!config.pinned_signature.empty()) {
        std::set<std::size_t> uniq;
        for (std::size_t s : config.pinned_signature) {
            if (s >= suite.size()) {
                fatal("SignatureCostModel: pinned signature index ", s,
                      " is outside the ", suite.size(),
                      "-network suite");
            }
            if (!uniq.insert(s).second)
                fatal("SignatureCostModel: pinned signature index ", s,
                      " is duplicated");
        }
        if (config.pinned_signature.size() >= suite.size()) {
            fatal("SignatureCostModel: pinned signature covers the "
                  "whole suite; nothing left to predict");
        }
        model.signature_ = config.pinned_signature;
    } else {
        model.signature_ =
            selectSignature(latencies, config.method, config.selection);
    }
    model.signatureNames_.reserve(model.signature_.size());
    for (std::size_t s : model.signature_)
        model.signatureNames_.push_back(suite[s].name());

    // Encoder layout with headroom for deeper unseen networks.
    const NetworkEncoder fitted(suite);
    model.encoder_ = std::make_unique<NetworkEncoder>(
        fitted.maxLayers() + config.layer_headroom);

    model.anchorNormalization_ = config.anchor_normalization;
    const SignatureTrainingSet train_set = [&] {
        const obs::TraceSpan span("cost_model.training_set");
        std::vector<std::vector<float>> encodings;
        encodings.reserve(suite.size());
        for (const auto &g : suite)
            encodings.push_back(model.encoder_->encode(g));
        return buildSignatureTrainingSet(encodings, latencies,
                                         model.signature_,
                                         model.anchorNormalization_);
    }();

    model.booster_ = ml::GradientBoostedTrees(config.gbt);
    model.booster_.train(train_set.data);
    return model;
}

SignatureTrainingSet
buildSignatureTrainingSet(const std::vector<std::vector<float>> &encodings,
                          const std::vector<std::vector<double>> &latencies,
                          const std::vector<std::size_t> &signature,
                          bool anchor_normalization)
{
    GCM_ASSERT(!encodings.empty() && latencies.size() == encodings.size(),
               "buildSignatureTrainingSet: encodings/latencies mismatch");
    GCM_ASSERT(!signature.empty(), "buildSignatureTrainingSet: no signature");
    std::vector<bool> is_sig(encodings.size(), false);
    for (std::size_t s : signature) {
        GCM_ASSERT(s < encodings.size(), "signature index out of range");
        is_sig[s] = true;
    }

    SignatureTrainingSet out{
        ml::FactoredDataset(encodings[0].size(), signature.size()), {}};
    for (const auto &enc : encodings)
        out.data.addNetwork(enc);
    std::vector<double> sig_lat(signature.size());
    std::vector<float> features(signature.size());
    for (std::size_t d = 0; d < latencies[0].size(); ++d) {
        for (std::size_t k = 0; k < signature.size(); ++k)
            sig_lat[k] = latencies[signature[k]][d];
        const double anchor =
            anchor_normalization ? signatureAnchor(sig_lat) : 1.0;
        for (std::size_t k = 0; k < signature.size(); ++k)
            features[k] = static_cast<float>(sig_lat[k] / anchor);
        out.data.addDevice(features);
        out.anchors.push_back(anchor);
        for (std::size_t n = 0; n < encodings.size(); ++n) {
            if (!is_sig[n])
                out.data.addRow(n, d, latencies[n][d] / anchor);
        }
    }
    return out;
}

double
SignatureCostModel::anchorOf(
    const std::vector<double> &signature_latencies_ms) const
{
    return anchorNormalization_ ? signatureAnchor(signature_latencies_ms)
                                : 1.0;
}

double
SignatureCostModel::predictMs(
    const dnn::Graph &network,
    const std::vector<double> &signature_latencies_ms) const
{
    std::vector<float> row(featureWidth());
    const auto enc = encoder_->encode(network);
    std::copy(enc.begin(), enc.end(), row.begin());
    const double anchor = finishQueryRow(signature_latencies_ms,
                                         row.data());
    // Compiled and node-walker paths are bit-identical by the
    // ml/flat_ensemble.hh contract, so hot-path callers may compile()
    // without changing any prediction.
    const double raw = flat_ ? flat_->predictRow(row.data())
                             : booster_.predictRow(row.data());
    return raw * anchor;
}

void
SignatureCostModel::compile()
{
    if (!flat_) {
        flat_ = std::make_shared<const ml::FlatEnsemble>(
            booster_.compile());
    }
}

const ml::FlatEnsemble &
SignatureCostModel::flat() const
{
    GCM_ASSERT(flat_ != nullptr,
               "SignatureCostModel::flat: compile() not called");
    return *flat_;
}

std::size_t
SignatureCostModel::featureWidth() const
{
    return encoder_->numFeatures() + signature_.size();
}

std::size_t
SignatureCostModel::networkFeatureWidth() const
{
    return encoder_->numFeatures();
}

std::vector<float>
SignatureCostModel::encodeNetwork(const dnn::Graph &network) const
{
    return encoder_->encode(network);
}

double
SignatureCostModel::finishQueryRow(
    const std::vector<double> &signature_latencies_ms, float *row) const
{
    return signatureTail(signature_latencies_ms,
                         row + encoder_->numFeatures());
}

double
SignatureCostModel::signatureTail(
    const std::vector<double> &signature_latencies_ms, float *tail) const
{
    if (signature_latencies_ms.size() != signature_.size()) {
        fatal("predictMs: expected ", signature_.size(),
              " signature latencies, got ",
              signature_latencies_ms.size());
    }
    const double anchor = anchorOf(signature_latencies_ms);
    for (std::size_t k = 0; k < signature_.size(); ++k) {
        tail[k] =
            static_cast<float>(signature_latencies_ms[k] / anchor);
    }
    return anchor;
}

} // namespace gcm::core

namespace gcm::core
{

void
SignatureCostModel::serialize(std::ostream &os) const
{
    os << "gcm-cost-model v1\n";
    os << "anchor_normalization " << (anchorNormalization_ ? 1 : 0)
       << "\n";
    os << "max_layers " << encoder_->maxLayers() << "\n";
    os << "signature " << signature_.size() << "\n";
    for (std::size_t k = 0; k < signature_.size(); ++k) {
        const std::string &name = signatureNames_[k];
        if (name.find_first_of(" \t\n") != std::string::npos)
            fatal("serialize: signature name contains whitespace: ",
                  name);
        os << signature_[k] << ' ' << name << "\n";
    }
    booster_.serialize(os);
}

SignatureCostModel
SignatureCostModel::deserialize(std::istream &is)
{
    std::string magic, version, tag;
    if (!(is >> magic >> version) || magic != "gcm-cost-model"
        || version != "v1") {
        fatal("SignatureCostModel::deserialize: bad header");
    }
    SignatureCostModel model;
    int anchor_flag = 1;
    if (!(is >> tag >> anchor_flag) || tag != "anchor_normalization")
        fatal("SignatureCostModel::deserialize: bad anchor flag");
    model.anchorNormalization_ = anchor_flag != 0;
    std::size_t max_layers = 0, sig_count = 0;
    if (!(is >> tag >> max_layers) || tag != "max_layers"
        || max_layers == 0) {
        fatal("SignatureCostModel::deserialize: bad max_layers");
    }
    if (!(is >> tag >> sig_count) || tag != "signature"
        || sig_count == 0) {
        fatal("SignatureCostModel::deserialize: bad signature count");
    }
    model.encoder_ = std::make_unique<NetworkEncoder>(max_layers);
    model.signature_.resize(sig_count);
    model.signatureNames_.resize(sig_count);
    for (std::size_t k = 0; k < sig_count; ++k) {
        if (!(is >> model.signature_[k] >> model.signatureNames_[k]))
            fatal("SignatureCostModel::deserialize: bad signature row");
    }
    model.booster_ = ml::GradientBoostedTrees::deserialize(is);
    return model;
}

} // namespace gcm::core

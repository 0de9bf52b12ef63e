#include "ml/dataset.hh"

#include "util/error.hh"

namespace gcm::ml
{

Dataset::Dataset(std::size_t num_features) : numFeatures_(num_features)
{
    GCM_ASSERT(num_features > 0, "Dataset: zero features");
}

void
Dataset::addRow(const std::vector<float> &x, double y)
{
    GCM_ASSERT(x.size() == numFeatures_, "Dataset::addRow: width mismatch");
    values_.insert(values_.end(), x.begin(), x.end());
    labels_.push_back(y);
}

const float *
Dataset::row(std::size_t i) const
{
    GCM_ASSERT(i < numRows(), "Dataset::row: index out of range");
    return values_.data() + i * numFeatures_;
}

double
Dataset::label(std::size_t i) const
{
    GCM_ASSERT(i < numRows(), "Dataset::label: index out of range");
    return labels_[i];
}

float
Dataset::at(std::size_t row_idx, std::size_t feature) const
{
    GCM_ASSERT(feature < numFeatures_, "Dataset::at: feature out of range");
    return row(row_idx)[feature];
}

Dataset
Dataset::subset(const std::vector<std::size_t> &row_indices) const
{
    Dataset out(numFeatures_);
    out.featureNames_ = featureNames_;
    out.values_.reserve(row_indices.size() * numFeatures_);
    out.labels_.reserve(row_indices.size());
    for (std::size_t i : row_indices) {
        GCM_ASSERT(i < numRows(), "Dataset::subset: index out of range");
        const float *r = row(i);
        out.values_.insert(out.values_.end(), r, r + numFeatures_);
        out.labels_.push_back(labels_[i]);
    }
    return out;
}

void
Dataset::setFeatureNames(std::vector<std::string> names)
{
    GCM_ASSERT(names.size() == numFeatures_,
               "Dataset::setFeatureNames: size mismatch");
    featureNames_ = std::move(names);
}

FactoredDataset::FactoredDataset(std::size_t network_features,
                                 std::size_t device_features)
    : networkFeatures_(network_features),
      deviceFeatures_(device_features)
{
    GCM_ASSERT(network_features > 0 && device_features > 0,
               "FactoredDataset: zero-width table");
}

std::size_t
FactoredDataset::addNetwork(const std::vector<float> &x)
{
    GCM_ASSERT(x.size() == networkFeatures_,
               "FactoredDataset::addNetwork: width mismatch");
    networks_.insert(networks_.end(), x.begin(), x.end());
    return numNetworks() - 1;
}

std::size_t
FactoredDataset::addDevice(const std::vector<float> &x)
{
    GCM_ASSERT(x.size() == deviceFeatures_,
               "FactoredDataset::addDevice: width mismatch");
    devices_.insert(devices_.end(), x.begin(), x.end());
    return numDevices() - 1;
}

void
FactoredDataset::addRow(std::size_t network, std::size_t device, double y)
{
    GCM_ASSERT(network < numNetworks() && device < numDevices(),
               "FactoredDataset::addRow: index out of range");
    rowNetworks_.push_back(static_cast<std::uint32_t>(network));
    rowDevices_.push_back(static_cast<std::uint32_t>(device));
    labels_.push_back(y);
}

std::size_t
FactoredDataset::numNetworks() const
{
    return networks_.size() / networkFeatures_;
}

std::size_t
FactoredDataset::numDevices() const
{
    return devices_.size() / deviceFeatures_;
}

const float *
FactoredDataset::network(std::size_t n) const
{
    GCM_ASSERT(n < numNetworks(), "FactoredDataset::network: out of range");
    return networks_.data() + n * networkFeatures_;
}

const float *
FactoredDataset::device(std::size_t d) const
{
    GCM_ASSERT(d < numDevices(), "FactoredDataset::device: out of range");
    return devices_.data() + d * deviceFeatures_;
}

} // namespace gcm::ml

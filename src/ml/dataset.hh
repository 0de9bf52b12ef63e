/**
 * @file
 * Regression datasets shared by the learners: a dense row-major
 * matrix, and a factored form for rows that pair a network with a
 * device.
 */

#ifndef GCM_ML_DATASET_HH
#define GCM_ML_DATASET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gcm::ml
{

/**
 * A fixed-width feature matrix with one scalar regression target per
 * row. Feature values are stored as float: the representations used in
 * this project (one-hot codes, layer parameters, latencies in ms) all
 * fit comfortably.
 */
class Dataset
{
  public:
    /** Create an empty dataset with a fixed feature width. */
    explicit Dataset(std::size_t num_features);

    /** Append a row. @pre x.size() == numFeatures() */
    void addRow(const std::vector<float> &x, double y);

    std::size_t numRows() const { return labels_.size(); }
    std::size_t numFeatures() const { return numFeatures_; }

    /** Pointer to the i-th row (numFeatures() floats). */
    const float *row(std::size_t i) const;

    double label(std::size_t i) const;
    const std::vector<double> &labels() const { return labels_; }

    /** Single feature value. */
    float at(std::size_t row_idx, std::size_t feature) const;

    /** Extract a row-subset dataset (feature names preserved). */
    Dataset subset(const std::vector<std::size_t> &row_indices) const;

    /** Optional feature names (for importances / debugging). */
    void setFeatureNames(std::vector<std::string> names);
    const std::vector<std::string> &featureNames() const
    {
        return featureNames_;
    }

  private:
    std::size_t numFeatures_;
    std::vector<float> values_;
    std::vector<double> labels_;
    std::vector<std::string> featureNames_;
};

/**
 * A training set whose rows are (network, device) pairs. Row i's
 * feature vector is network(rowNetworks()[i]) followed by
 * device(rowDevices()[i]), so each network's wide feature block is
 * stored once instead of once per device it was measured on. The tree
 * learners bin and histogram the two tables per entity
 * (ml/binning.hh, ml/tree.hh).
 */
class FactoredDataset
{
  public:
    /** Create an empty set with fixed network and device widths. */
    FactoredDataset(std::size_t network_features,
                    std::size_t device_features);

    /** Append a network's features; returns its index. */
    std::size_t addNetwork(const std::vector<float> &x);

    /** Append a device's features; returns its index. */
    std::size_t addDevice(const std::vector<float> &x);

    /** Append the row (network, device) with target y. */
    void addRow(std::size_t network, std::size_t device, double y);

    std::size_t numRows() const { return labels_.size(); }
    std::size_t numFeatures() const
    {
        return networkFeatures_ + deviceFeatures_;
    }
    std::size_t networkFeatures() const { return networkFeatures_; }
    std::size_t deviceFeatures() const { return deviceFeatures_; }
    std::size_t numNetworks() const;
    std::size_t numDevices() const;

    /** Features of network n (networkFeatures() floats). */
    const float *network(std::size_t n) const;

    /** Features of device d (deviceFeatures() floats). */
    const float *device(std::size_t d) const;

    /** Network and device index of every row. */
    const std::vector<std::uint32_t> &rowNetworks() const
    {
        return rowNetworks_;
    }
    const std::vector<std::uint32_t> &rowDevices() const
    {
        return rowDevices_;
    }

    const std::vector<double> &labels() const { return labels_; }

  private:
    std::size_t networkFeatures_;
    std::size_t deviceFeatures_;
    std::vector<float> networks_;
    std::vector<float> devices_;
    std::vector<std::uint32_t> rowNetworks_;
    std::vector<std::uint32_t> rowDevices_;
    std::vector<double> labels_;
};

} // namespace gcm::ml

#endif // GCM_ML_DATASET_HH

/**
 * @file
 * Quantile feature binning shared by the histogram-based tree learners
 * (GradientBoostedTrees and RandomForest).
 *
 * Each feature is discretized into at most max_bins buckets using
 * approximate quantile cut points. The binned matrix is a set of
 * column groups. A group covers adjacent features whose values come
 * from a table of entities (rows of a dense Dataset, or the networks
 * and devices of a FactoredDataset) and maps each training row to
 * one entity. Its uint8 codes are stored per entity, entity-major over
 * the group's non-constant features, so a histogram adds one entity's
 * gradient to every feature's bin in one contiguous sweep.
 *
 * Cut points are the quantiles of an evenly strided sample of the
 * training rows. A factored group weights each entity by the number
 * of sampled rows that reference it, so its cuts are exactly the cuts
 * of the dense concatenation of the same rows.
 */

#ifndef GCM_ML_BINNING_HH
#define GCM_ML_BINNING_HH

#include <cstdint>
#include <vector>

#include "ml/dataset.hh"

namespace gcm::ml
{

/** Per-feature bin cut points (bin b covers values <= cuts[b]). */
struct FeatureBins
{
    /**
     * Upper edges of all bins except the last; a value v maps to the
     * first bin whose cut is >= v, or to the last bin.
     */
    std::vector<float> cuts;

    /** Number of bins for this feature (cuts.size() + 1). */
    std::size_t numBins() const { return cuts.size() + 1; }

    /** True when the feature is constant over the fit data. */
    bool isConstant() const { return cuts.empty(); }

    /** Map a raw value to a bin index. */
    std::uint8_t binOf(float v) const;
};

/** A dataset discretized against a set of FeatureBins. */
class BinnedMatrix
{
  public:
    /**
     * Adjacent features read through an entity index: training row i
     * reads entity entityOf[i] (entity i when entityOf is empty). The
     * group's non-constant features are activeFeatures()[firstActive
     * .. firstActive + numActive); the code of the j-th of them for
     * entity e is codes[e * numActive + j].
     */
    struct ColumnGroup
    {
        std::size_t firstActive = 0;
        std::size_t numActive = 0;
        std::size_t numEntities = 0;
        std::vector<std::uint32_t> entityOf;
        std::vector<std::uint8_t> codes;

        bool isIdentity() const { return entityOf.empty(); }
    };

    /** One non-constant feature's codes, read row by row. */
    struct Column
    {
        /** Code for entity e at codes[e * stride]. */
        const std::uint8_t *codes;
        std::size_t stride;
        /** Entity of each row; nullptr when rows are the entities. */
        const std::uint32_t *entityOf;

        std::uint8_t
        at(std::size_t i) const
        {
            return codes[(entityOf ? entityOf[i] : i) * stride];
        }
    };

    /**
     * Fit cut points on (a deterministic subsample of) the dataset and
     * bin it. A dense dataset is one identity group.
     *
     * @param data Source dataset.
     * @param max_bins Maximum bins per feature (2..=256).
     * @param quantile_sample_cap Rows used for quantile estimation;
     *        evenly strided subsample when the dataset is larger.
     */
    BinnedMatrix(const Dataset &data, std::size_t max_bins,
                 std::size_t quantile_sample_cap = 4096);

    /**
     * Bin a factored dataset as two groups: the network table, then
     * the device table. Cuts, codes and active features equal those
     * of the dense concatenation of the same rows.
     */
    BinnedMatrix(const FactoredDataset &data, std::size_t max_bins,
                 std::size_t quantile_sample_cap = 4096);

    std::size_t numRows() const { return numRows_; }
    std::size_t numFeatures() const { return bins_.size(); }

    const FeatureBins &featureBins(std::size_t f) const { return bins_[f]; }

    /** Bin of feature f in row i (0 for a constant feature). */
    std::uint8_t binAt(std::size_t f, std::size_t i) const
    {
        return bins_[f].isConstant() ? 0 : column(f).at(i);
    }

    /** Codes of feature f. @pre feature f is not constant */
    Column
    column(std::size_t f) const
    {
        const ColumnGroup &g = groups_[groupOf_[f]];
        return Column{g.codes.data() + slotOf_[f], g.numActive,
                      g.isIdentity() ? nullptr : g.entityOf.data()};
    }

    /** Column groups in feature order. */
    const std::vector<ColumnGroup> &groups() const { return groups_; }

    /** Indices of features that are not constant, ascending. */
    const std::vector<std::size_t> &activeFeatures() const
    {
        return activeFeatures_;
    }

  private:
    /** A row-major entity table and the entity of each row. */
    struct Source
    {
        const float *values;
        std::size_t numFeatures;
        std::size_t numEntities;
        /** nullptr: row i is entity i. */
        const std::vector<std::uint32_t> *entityOf;
    };

    BinnedMatrix(const std::vector<Source> &sources, std::size_t num_rows,
                 std::size_t max_bins, std::size_t quantile_sample_cap);

    std::size_t numRows_;
    std::vector<FeatureBins> bins_;
    std::vector<ColumnGroup> groups_;
    /** Group of every feature. */
    std::vector<std::uint32_t> groupOf_;
    /** Position of every non-constant feature within its group. */
    std::vector<std::uint32_t> slotOf_;
    std::vector<std::size_t> activeFeatures_;
};

} // namespace gcm::ml

#endif // GCM_ML_BINNING_HH

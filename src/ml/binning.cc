#include "ml/binning.hh"

#include <algorithm>
#include <utility>

#include "util/error.hh"

namespace gcm::ml
{

std::uint8_t
FeatureBins::binOf(float v) const
{
    const auto it = std::lower_bound(cuts.begin(), cuts.end(), v);
    return static_cast<std::uint8_t>(it - cuts.begin());
}

BinnedMatrix::BinnedMatrix(const Dataset &data, std::size_t max_bins,
                           std::size_t quantile_sample_cap)
    : BinnedMatrix(
          {Source{data.numRows() > 0 ? data.row(0) : nullptr,
                  data.numFeatures(), data.numRows(), nullptr}},
          data.numRows(), max_bins, quantile_sample_cap)
{}

BinnedMatrix::BinnedMatrix(const FactoredDataset &data,
                           std::size_t max_bins,
                           std::size_t quantile_sample_cap)
    : BinnedMatrix(
          {Source{data.numNetworks() > 0 ? data.network(0) : nullptr,
                  data.networkFeatures(), data.numNetworks(),
                  &data.rowNetworks()},
           Source{data.numDevices() > 0 ? data.device(0) : nullptr,
                  data.deviceFeatures(), data.numDevices(),
                  &data.rowDevices()}},
          data.numRows(), max_bins, quantile_sample_cap)
{}

BinnedMatrix::BinnedMatrix(const std::vector<Source> &sources,
                           std::size_t num_rows, std::size_t max_bins,
                           std::size_t quantile_sample_cap)
    : numRows_(num_rows)
{
    GCM_ASSERT(max_bins >= 2 && max_bins <= 256,
               "BinnedMatrix: max_bins out of [2, 256]");
    GCM_ASSERT(numRows_ > 0, "BinnedMatrix: empty dataset");

    // Deterministic strided subsample for quantile estimation.
    const std::size_t sample_n = std::min(numRows_, quantile_sample_cap);
    const double stride =
        static_cast<double>(numRows_) / static_cast<double>(sample_n);

    std::vector<std::pair<float, std::uint32_t>> col;
    for (const Source &src : sources) {
        const std::size_t first_feature = bins_.size();
        ColumnGroup group;
        group.numEntities = src.numEntities;
        if (src.entityOf)
            group.entityOf = *src.entityOf;
        const auto entity = [&](std::size_t i) -> std::size_t {
            return group.isIdentity() ? i : group.entityOf[i];
        };

        // How many sampled rows read each entity: sorting the sampled
        // entities' values with these weights gives the sorted column
        // of sampled rows, without one copy per row.
        std::vector<std::uint32_t> weight(src.numEntities, 0);
        for (std::size_t s = 0; s < sample_n; ++s) {
            ++weight[entity(static_cast<std::size_t>(
                static_cast<double>(s) * stride))];
        }
        std::vector<std::size_t> sampled;
        for (std::size_t e = 0; e < src.numEntities; ++e) {
            if (weight[e] > 0)
                sampled.push_back(e);
        }

        bins_.resize(first_feature + src.numFeatures);
        groupOf_.resize(bins_.size(),
                        static_cast<std::uint32_t>(groups_.size()));
        slotOf_.resize(bins_.size(), 0);
        group.firstActive = activeFeatures_.size();
        for (std::size_t c = 0; c < src.numFeatures; ++c) {
            col.clear();
            for (std::size_t e : sampled)
                col.emplace_back(src.values[e * src.numFeatures + c],
                                 weight[e]);
            std::sort(col.begin(), col.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            if (col.front().first == col.back().first)
                continue; // constant: no cuts, every code 0

            // Candidate cuts at interior quantiles, deduplicated: the
            // value at sorted position pos, found by walking the
            // cumulative weights.
            const std::size_t f = first_feature + c;
            FeatureBins &fb = bins_[f];
            std::size_t k = 0;
            std::size_t covered = col[0].second;
            for (std::size_t b = 1; b < max_bins; ++b) {
                const auto pos = std::min(
                    static_cast<std::size_t>(
                        static_cast<double>(b)
                        * static_cast<double>(sample_n)
                        / static_cast<double>(max_bins)),
                    sample_n - 1);
                while (covered <= pos)
                    covered += col[++k].second;
                const float cut = col[k].first;
                if (fb.cuts.empty() || cut > fb.cuts.back())
                    fb.cuts.push_back(cut);
            }
            // Make sure the maximum sampled value has its own bin edge
            // below it, i.e. drop a trailing cut equal to the max
            // (values above the last cut land in the final bin anyway).
            while (!fb.cuts.empty() && fb.cuts.back() >= col.back().first)
                fb.cuts.pop_back();
            if (!fb.isConstant()) {
                slotOf_[f] = static_cast<std::uint32_t>(
                    activeFeatures_.size() - group.firstActive);
                activeFeatures_.push_back(f);
            }
        }
        group.numActive = activeFeatures_.size() - group.firstActive;

        group.codes.resize(src.numEntities * group.numActive);
        for (std::size_t e = 0; e < src.numEntities; ++e) {
            const float *x = src.values + e * src.numFeatures;
            std::uint8_t *codes = group.codes.data() + e * group.numActive;
            for (std::size_t j = 0; j < group.numActive; ++j) {
                const std::size_t f = activeFeatures_[group.firstActive + j];
                codes[j] = bins_[f].binOf(x[f - first_feature]);
            }
        }
        groups_.push_back(std::move(group));
    }
}

} // namespace gcm::ml

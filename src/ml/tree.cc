#include "ml/tree.hh"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "obs/obs.hh"
#include "util/error.hh"

namespace gcm::ml
{

double
RegressionTree::predictRow(const float *x) const
{
    GCM_ASSERT(!nodes_.empty(), "predictRow: empty tree");
    std::size_t idx = 0;
    while (!nodes_[idx].isLeaf()) {
        const TreeNode &n = nodes_[idx];
        idx = static_cast<std::size_t>(
            x[n.feature] <= n.threshold ? n.left : n.right);
    }
    return nodes_[idx].value;
}

double
RegressionTree::predictBinnedRow(const BinnedMatrix &binned,
                                 std::size_t i) const
{
    GCM_ASSERT(!nodes_.empty(), "predictBinnedRow: empty tree");
    std::size_t idx = 0;
    while (!nodes_[idx].isLeaf()) {
        const TreeNode &n = nodes_[idx];
        const std::uint8_t b =
            binned.binAt(static_cast<std::size_t>(n.feature), i);
        idx = static_cast<std::size_t>(
            b <= n.binThreshold ? n.left : n.right);
    }
    return nodes_[idx].value;
}

std::size_t
RegressionTree::numLeaves() const
{
    std::size_t c = 0;
    for (const auto &n : nodes_) {
        if (n.isLeaf())
            ++c;
    }
    return c;
}

void
RegressionTree::scaleLeaves(double factor)
{
    for (auto &n : nodes_) {
        if (n.isLeaf())
            n.value = static_cast<float>(n.value * factor);
    }
}

void
RegressionTree::serialize(std::ostream &os) const
{
    const auto prec = os.precision(
        std::numeric_limits<float>::max_digits10);
    os << "tree " << nodes_.size() << "\n";
    for (const auto &n : nodes_) {
        os << "node " << n.feature << ' ' << n.threshold << ' '
           << static_cast<int>(n.binThreshold) << ' ' << n.left << ' '
           << n.right << ' ' << n.value << "\n";
    }
    os.precision(prec);
}

RegressionTree
RegressionTree::deserialize(std::istream &is)
{
    std::string tag;
    std::size_t count = 0;
    if (!(is >> tag >> count) || tag != "tree")
        fatal("RegressionTree::deserialize: expected 'tree <count>'");
    std::vector<TreeNode> nodes(count);
    for (auto &n : nodes) {
        int bin = 0;
        if (!(is >> tag >> n.feature >> n.threshold >> bin >> n.left
              >> n.right >> n.value)
            || tag != "node") {
            fatal("RegressionTree::deserialize: malformed node line");
        }
        if (bin < 0 || bin > 255)
            fatal("RegressionTree::deserialize: bin out of range");
        n.binThreshold = static_cast<std::uint8_t>(bin);
    }
    // Structural sanity: children must reference valid nodes.
    for (const auto &n : nodes) {
        if (n.isLeaf())
            continue;
        if (n.left < 0 || n.right < 0
            || static_cast<std::size_t>(n.left) >= nodes.size()
            || static_cast<std::size_t>(n.right) >= nodes.size()) {
            fatal("RegressionTree::deserialize: dangling child index");
        }
    }
    if (nodes.empty())
        fatal("RegressionTree::deserialize: empty tree");
    return RegressionTree(std::move(nodes));
}

namespace
{

/** Per-node gradient/count histograms over all active features. */
struct HistBlock
{
    std::vector<double> g;
    std::vector<std::uint32_t> n;

    void
    reset(std::size_t total_bins)
    {
        g.assign(total_bins, 0.0);
        n.assign(total_bins, 0);
    }

    /** In-place parent - child, leaving the sibling's histograms. */
    void
    subtract(const HistBlock &child)
    {
        for (std::size_t i = 0; i < g.size(); ++i) {
            g[i] -= child.g[i];
            n[i] -= child.n[i];
        }
    }
};

struct BestSplit
{
    double gain = 0.0;
    std::size_t feature = 0;
    std::uint8_t bin = 0;
    bool found = false;
};

struct Builder
{
    const BinnedMatrix &binned;
    const std::vector<float> &grad;
    const TreeTrainConfig &cfg;
    Rng *rng;
    std::vector<double> *gainOut;
    std::vector<TreeNode> nodes;
    /** Start of each active feature's bin range in a HistBlock. */
    std::vector<std::size_t> offsets;
    std::size_t totalBins = 0;
    // Per-entity scratch of accumulate(), reused across nodes.
    std::vector<double> entityGrad;
    std::vector<std::uint32_t> entityCount;

    void
    initOffsets()
    {
        offsets.reserve(binned.activeFeatures().size());
        for (std::size_t f : binned.activeFeatures()) {
            offsets.push_back(totalBins);
            totalBins += binned.featureBins(f).numBins();
        }
    }

    /**
     * Gradient and count histograms of a node. Each active feature
     * owns the disjoint [offsets[a], offsets[a+1]) region. Every
     * entity adds its gradient sum and row count to one bin of each
     * of its group's features; a bin therefore receives its terms in
     * entity order. In an identity group the entities are the node's
     * rows, taken in `rows` order. A factored group first sums the
     * node's rows per entity, so it costs O(rows + entities x
     * features) instead of O(rows x features).
     */
    void
    accumulate(const std::vector<std::uint32_t> &rows, HistBlock &hist)
    {
        const obs::TraceSpan span("tree.histogram");
        hist.reset(totalBins);
        for (const BinnedMatrix::ColumnGroup &g : binned.groups()) {
            const std::size_t na = g.numActive;
            if (na == 0)
                continue;
            const std::size_t *off = offsets.data() + g.firstActive;
            double *hg = hist.g.data();
            std::uint32_t *hn = hist.n.data();
            const auto add = [&](std::size_t e, double sum,
                                 std::uint32_t count) {
                const std::uint8_t *codes = g.codes.data() + e * na;
                for (std::size_t j = 0; j < na; ++j) {
                    const std::size_t k = off[j] + codes[j];
                    hg[k] += sum;
                    hn[k] += count;
                }
            };
            if (g.isIdentity()) {
                for (std::uint32_t i : rows)
                    add(i, grad[i], 1);
                continue;
            }
            entityGrad.assign(g.numEntities, 0.0);
            entityCount.assign(g.numEntities, 0);
            for (std::uint32_t i : rows) {
                const std::uint32_t e = g.entityOf[i];
                entityGrad[e] += grad[i];
                ++entityCount[e];
            }
            for (std::size_t e = 0; e < g.numEntities; ++e) {
                if (entityCount[e] > 0)
                    add(e, entityGrad[e], entityCount[e]);
            }
        }
    }

    double
    leafWeight(double sum_g, double count) const
    {
        return -sum_g / (count + cfg.lambda);
    }

    BestSplit
    findSplit(const HistBlock &hist, double sum_g, double count) const
    {
        const obs::TraceSpan span("tree.split");
        BestSplit best;
        const double parent_score =
            sum_g * sum_g / (count + cfg.lambda);
        const auto &active = binned.activeFeatures();
        // Random-subspace sampling (RandomForest): draw a fixed-size
        // subset of at least one feature per node.
        std::vector<std::size_t> sampled;
        const bool subsample_features = cfg.feature_fraction < 1.0;
        if (subsample_features) {
            GCM_ASSERT(rng != nullptr,
                       "feature_fraction < 1 requires an rng");
            const auto want = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       cfg.feature_fraction
                       * static_cast<double>(active.size())));
            sampled =
                rng->sampleWithoutReplacement(active.size(), want);
        }
        const std::size_t n_cand =
            subsample_features ? sampled.size() : active.size();
        // Candidates in order, bins in order, strictly larger gains
        // only: ties keep the earlier feature and bin.
        for (std::size_t c = 0; c < n_cand; ++c) {
            const std::size_t a = subsample_features ? sampled[c] : c;
            const std::size_t nb = binned.featureBins(active[a]).numBins();
            const double *hg = hist.g.data() + offsets[a];
            const std::uint32_t *hn = hist.n.data() + offsets[a];
            double gl = 0.0, nl = 0.0;
            for (std::size_t b = 0; b + 1 < nb; ++b) {
                gl += hg[b];
                nl += hn[b];
                const double nr = count - nl;
                if (nl < cfg.min_child_weight
                    || nr < cfg.min_child_weight) {
                    continue;
                }
                const double gr = sum_g - gl;
                const double gain = 0.5
                        * (gl * gl / (nl + cfg.lambda)
                           + gr * gr / (nr + cfg.lambda) - parent_score)
                    - cfg.gamma;
                if (gain > best.gain) {
                    best.gain = gain;
                    best.feature = active[a];
                    best.bin = static_cast<std::uint8_t>(b);
                    best.found = true;
                }
            }
        }
        return best;
    }

    /**
     * Recursively grow; returns the node index. The node's histogram
     * is computed here unless the parent derived it by subtraction.
     */
    std::int32_t
    build(std::vector<std::uint32_t> &rows, std::size_t depth,
          double sum_g, HistBlock *ready_hist)
    {
        const auto idx = static_cast<std::int32_t>(nodes.size());
        nodes.emplace_back();
        // Per-node counter on the recursive grow path: guard it so the
        // disabled case is one relaxed load + branch (and gcm-lint's
        // obs-hot-loop check treats the wrapper as the sanctioned
        // form).
        GCM_OBS_GUARDED(obs::counterAdd("tree.nodes"));
        const double count = static_cast<double>(rows.size());

        const bool splittable = depth < cfg.max_depth && rows.size() >= 2;
        HistBlock local;
        HistBlock *hist = ready_hist;
        if (splittable && hist == nullptr) {
            accumulate(rows, local);
            hist = &local;
        }
        BestSplit best;
        if (splittable)
            best = findSplit(*hist, sum_g, count);

        if (!best.found || best.gain <= 0.0) {
            nodes[static_cast<std::size_t>(idx)].value =
                static_cast<float>(leafWeight(sum_g, count));
            return idx;
        }
        if (gainOut)
            (*gainOut)[best.feature] += best.gain;

        // Partition rows (order within each side is preserved, so row
        // lists stay sorted and column accesses stay forward).
        const BinnedMatrix::Column col = binned.column(best.feature);
        std::vector<std::uint32_t> left_rows, right_rows;
        left_rows.reserve(rows.size());
        right_rows.reserve(rows.size());
        double gl = 0.0;
        for (std::uint32_t i : rows) {
            if (col.at(i) <= best.bin) {
                left_rows.push_back(i);
                gl += grad[i];
            } else {
                right_rows.push_back(i);
            }
        }
        rows.clear();
        rows.shrink_to_fit();

        const FeatureBins &fb = binned.featureBins(best.feature);
        GCM_ASSERT(best.bin < fb.cuts.size(),
                   "split bin outside cut range");
        {
            TreeNode &n = nodes[static_cast<std::size_t>(idx)];
            n.feature = static_cast<std::int32_t>(best.feature);
            n.binThreshold = best.bin;
            n.threshold = fb.cuts[best.bin];
        }

        // Histogram subtraction: recompute only the smaller child.
        HistBlock small_hist;
        HistBlock *left_hist = nullptr;
        HistBlock *right_hist = nullptr;
        const bool children_splittable =
            depth + 1 < cfg.max_depth;
        if (children_splittable) {
            const bool left_smaller =
                left_rows.size() <= right_rows.size();
            accumulate(left_smaller ? left_rows : right_rows,
                       small_hist);
            hist->subtract(small_hist);
            left_hist = left_smaller ? &small_hist : hist;
            right_hist = left_smaller ? hist : &small_hist;
        }

        const std::int32_t l = build(left_rows, depth + 1, gl, left_hist);
        const std::int32_t r =
            build(right_rows, depth + 1, sum_g - gl, right_hist);
        nodes[static_cast<std::size_t>(idx)].left = l;
        nodes[static_cast<std::size_t>(idx)].right = r;
        return idx;
    }
};

} // namespace

RegressionTree
trainTree(const BinnedMatrix &binned, const std::vector<std::uint32_t> &rows,
          const std::vector<float> &grad, const TreeTrainConfig &cfg,
          Rng *rng, std::vector<double> *gain_out)
{
    GCM_ASSERT(!rows.empty(), "trainTree: no rows");
    GCM_ASSERT(grad.size() == binned.numRows(),
               "trainTree: gradient size mismatch");
    if (gain_out)
        gain_out->assign(binned.numFeatures(), 0.0);

    Builder builder{binned, grad, cfg, rng, gain_out, {}, {}, 0, {}, {}};
    builder.initOffsets();
    double sum_g = 0.0;
    for (std::uint32_t i : rows)
        sum_g += grad[i];
    std::vector<std::uint32_t> work = rows;
    builder.build(work, 0, sum_g, nullptr);
    return RegressionTree(std::move(builder.nodes));
}

} // namespace gcm::ml

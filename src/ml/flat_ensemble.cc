#include "ml/flat_ensemble.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "util/error.hh"
#include "util/parallel.hh"

namespace gcm::ml
{

FlatEnsemble
FlatEnsemble::compile(const std::vector<RegressionTree> &trees,
                      double base_score, Combine combine)
{
    FlatEnsemble flat;
    flat.baseScore_ = base_score;
    flat.combine_ = combine;
    GCM_ASSERT(combine != Combine::Mean || !trees.empty(),
               "FlatEnsemble: Combine::Mean over zero trees");

    std::size_t total = 0;
    for (const RegressionTree &tree : trees)
        total += tree.numNodes();
    flat.feature_.reserve(total);
    flat.threshold_.reserve(total);
    flat.value_.reserve(total);
    flat.left_.reserve(total);
    flat.roots_.reserve(trees.size());

    // Per-tree BFS renumbering: children are enqueued left-then-right
    // back to back, so in the flat layout right = left + 1 and the
    // traversal needs only the left index.
    std::vector<std::uint32_t> queue;     // source node ids, BFS order
    std::vector<std::uint32_t> flat_of;   // source id -> flat id
    for (const RegressionTree &tree : trees) {
        const std::vector<TreeNode> &nodes = tree.nodes();
        GCM_ASSERT(!nodes.empty(), "FlatEnsemble: empty tree");
        const auto base = static_cast<std::uint32_t>(flat.feature_.size());
        flat.roots_.push_back(base);

        queue.assign(1, 0);
        flat_of.assign(nodes.size(), 0);
        for (std::size_t q = 0; q < queue.size(); ++q) {
            const TreeNode &n = nodes[queue[q]];
            flat_of[queue[q]] = base + static_cast<std::uint32_t>(q);
            if (!n.isLeaf()) {
                queue.push_back(static_cast<std::uint32_t>(n.left));
                queue.push_back(static_cast<std::uint32_t>(n.right));
            }
        }
        for (std::uint32_t src : queue) {
            const TreeNode &n = nodes[src];
            flat.feature_.push_back(n.feature);
            flat.threshold_.push_back(n.threshold);
            flat.value_.push_back(n.value);
            flat.left_.push_back(
                n.isLeaf()
                    ? 0
                    : flat_of[static_cast<std::uint32_t>(n.left)]);
        }
    }
    return flat;
}

double
FlatEnsemble::predictRow(const float *x) const
{
    const std::int32_t *feature = feature_.data();
    const float *threshold = threshold_.data();
    const float *value = value_.data();
    const std::uint32_t *left = left_.data();

    double acc = baseScore_;
    for (std::uint32_t root : roots_) {
        std::uint32_t idx = root;
        std::int32_t f = feature[idx];
        while (f >= 0) {
            idx = left[idx]
                + static_cast<std::uint32_t>(!(x[f] <= threshold[idx]));
            f = feature[idx];
        }
        acc += value[idx];
    }
    if (combine_ == Combine::Mean)
        acc /= static_cast<double>(roots_.size());
    return acc;
}

std::size_t
FlatEnsemble::blockRows(std::size_t stride)
{
    // Budget ~32KB of row data per block: narrow training-style rows
    // keep the full kRowBlock, while wide serving query rows (network
    // encodings run to thousands of floats) get blocks small enough
    // that the trees-outermost walk does not evict the block's rows
    // between trees.
    const std::size_t budget_floats = 8192;
    const std::size_t fit = budget_floats / (stride == 0 ? 1 : stride);
    return std::clamp<std::size_t>(fit, 1, kRowBlock);
}

void
FlatEnsemble::predictBatch(const float *rows, std::size_t n_rows,
                           std::size_t stride, double *out) const
{
    if (n_rows == 0)
        return;
    GCM_OBS_GUARDED(obs::counterAdd("flat.rows", n_rows));
    const std::int32_t *feature = feature_.data();
    const float *threshold = threshold_.data();
    const float *value = value_.data();
    const std::uint32_t *left = left_.data();
    const bool mean = combine_ == Combine::Mean;

    const std::size_t block = blockRows(stride);
    const std::size_t nblocks = (n_rows + block - 1) / block;
    parallelFor(0, nblocks, 1, [&](std::size_t blk) {
        const std::size_t lo = blk * block;
        const std::size_t hi = std::min(lo + block, n_rows);
        const std::size_t count = hi - lo;
        double acc[kRowBlock];
        double *a = acc;
        for (std::size_t i = 0; i < count; ++i)
            a[i] = baseScore_;
        // Trees outermost: one tree's SoA slices stay cache-resident
        // while the whole block runs through it. Each row keeps its
        // own accumulator, so the per-row operation order is exactly
        // the predictRow order (the file contract, point 4).
        for (std::uint32_t root : roots_) {
            const float *x = rows + lo * stride;
            for (std::size_t i = 0; i < count; ++i) {
                std::uint32_t idx = root;
                std::int32_t f = feature[idx];
                while (f >= 0) {
                    idx = left[idx]
                        + static_cast<std::uint32_t>(
                              !(x[f] <= threshold[idx]));
                    f = feature[idx];
                }
                a[i] += value[idx];
                x += stride;
            }
        }
        double *o = out + lo;
        if (mean) {
            const auto trees = static_cast<double>(roots_.size());
            for (std::size_t i = 0; i < count; ++i)
                o[i] = a[i] / trees;
        } else {
            for (std::size_t i = 0; i < count; ++i)
                o[i] = a[i];
        }
    });
}

void
FlatEnsemble::predictBatchSegmented(const SegmentedRow *rows,
                                    std::size_t n_rows,
                                    std::size_t head_width,
                                    double *out) const
{
    if (n_rows == 0)
        return;
    GCM_OBS_GUARDED(obs::counterAdd("flat.rows", n_rows));
    const std::int32_t *feature = feature_.data();
    const float *threshold = threshold_.data();
    const float *value = value_.data();
    const std::uint32_t *left = left_.data();
    const bool mean = combine_ == Combine::Mean;
    const auto head_w = static_cast<std::size_t>(head_width);

    // Per-row data is only the (head, tail) pointer pair — heads are
    // shared between rows by design — so full-size blocks stay
    // cache-resident regardless of the logical row width.
    const std::size_t nblocks = (n_rows + kRowBlock - 1) / kRowBlock;
    parallelFor(0, nblocks, 1, [&](std::size_t blk) {
        const std::size_t lo = blk * kRowBlock;
        const std::size_t hi = std::min(lo + kRowBlock, n_rows);
        const std::size_t count = hi - lo;
        double acc[kRowBlock];
        double *a = acc;
        for (std::size_t i = 0; i < count; ++i)
            a[i] = baseScore_;
        // Same trees-outermost walk and per-row accumulation order as
        // predictBatch (the file contract, point 4); the only change
        // is where a feature value is loaded from.
        for (std::uint32_t root : roots_) {
            const SegmentedRow *r = rows + lo;
            for (std::size_t i = 0; i < count; ++i) {
                std::uint32_t idx = root;
                std::int32_t f = feature[idx];
                while (f >= 0) {
                    const auto fu = static_cast<std::size_t>(f);
                    const float xv = fu < head_w
                                         ? r[i].head[fu]
                                         : r[i].tail[fu - head_w];
                    idx = left[idx]
                        + static_cast<std::uint32_t>(
                              !(xv <= threshold[idx]));
                    f = feature[idx];
                }
                a[i] += value[idx];
            }
        }
        double *o = out + lo;
        if (mean) {
            const auto trees = static_cast<double>(roots_.size());
            for (std::size_t i = 0; i < count; ++i)
                o[i] = a[i] / trees;
        } else {
            for (std::size_t i = 0; i < count; ++i)
                o[i] = a[i];
        }
    });
}

std::vector<double>
FlatEnsemble::predict(const Dataset &data) const
{
    std::vector<double> out(data.numRows());
    if (data.numRows() > 0) {
        predictBatch(data.row(0), data.numRows(), data.numFeatures(),
                     out.data());
    }
    return out;
}

std::vector<double>
FlatEnsemble::predict(const FactoredDataset &data) const
{
    std::vector<SegmentedRow> rows(data.numRows());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i] = {data.network(data.rowNetworks()[i]),
                   data.device(data.rowDevices()[i])};
    }
    std::vector<double> out(rows.size());
    predictBatchSegmented(rows.data(), rows.size(),
                          data.networkFeatures(), out.data());
    return out;
}

} // namespace gcm::ml

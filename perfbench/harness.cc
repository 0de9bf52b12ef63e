#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>

#include "util/error.hh"
#include "util/rng.hh"

namespace gcm::perfbench
{

namespace
{

/** ceil(p/100 * n), immune to p/100 not being exact in binary. */
std::size_t
nearestRank(std::size_t n, double p)
{
    return static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    const std::size_t n = values.size();
    const std::size_t rank = std::clamp<std::size_t>(nearestRank(n, p), 1, n);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     values.end());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    const std::size_t rank = nearestRank(n, p);
    return rank >= n ? 0 : n - rank;
}

double
highestReportablePercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (samplesBeyond(n, p) >= kTailSamples)
            return p;
    }
    return 0.0;
}

TailSummary
summarize(const std::vector<double> &values)
{
    TailSummary s;
    s.count = values.size();
    if (values.empty())
        return s;
    s.median = median(values);
    s.tail_percentile = highestReportablePercentile(values.size());
    if (s.tail_percentile > 0.0)
        s.tail = percentile(values, s.tail_percentile);
    return s;
}

bool
backlogGrowing(const std::vector<double> &delays, double slack)
{
    const std::size_t n = delays.size();
    if (n < 20)
        return false;
    const std::size_t tenth = n / 10;
    const std::vector<double> first(delays.begin(),
                                    delays.begin()
                                        + static_cast<std::ptrdiff_t>(tenth));
    const std::vector<double> last(delays.end()
                                       - static_cast<std::ptrdiff_t>(tenth),
                                   delays.end());
    return median(last) > median(first) + slack;
}

double
medianBlockP99(const std::vector<std::vector<double>> &streams)
{
    const auto full = [](const std::vector<double> &block) {
        return samplesBeyond(block.size(), 99.0) >= kTailSamples;
    };
    std::vector<std::vector<double>> blocks(1);
    for (const std::vector<double> &s : streams) {
        if (full(blocks.back()))
            blocks.emplace_back();
        blocks.back().insert(blocks.back().end(), s.begin(), s.end());
    }
    if (!full(blocks.back())) {
        if (blocks.size() == 1)
            return std::numeric_limits<double>::quiet_NaN();
        std::vector<double> rest = std::move(blocks.back());
        blocks.pop_back();
        blocks.back().insert(blocks.back().end(), rest.begin(), rest.end());
    }
    std::vector<double> p99s;
    for (std::vector<double> &b : blocks)
        p99s.push_back(percentile(std::move(b), 99.0));
    return median(p99s);
}

std::vector<double>
isotonicFit(const std::vector<double> &values,
            const std::vector<double> &weights)
{
    // Blocks of (weighted mean, weight, length), merged while the last
    // two are out of order.
    struct Block { double mean, weight; std::size_t length; };
    std::vector<Block> blocks;
    for (std::size_t i = 0; i < values.size(); ++i) {
        blocks.push_back({values[i], weights[i], 1});
        while (blocks.size() > 1
               && blocks[blocks.size() - 2].mean > blocks.back().mean) {
            const Block top = blocks.back();
            blocks.pop_back();
            Block &b = blocks.back();
            const double w = b.weight + top.weight;
            b.mean = (b.mean * b.weight + top.mean * top.weight) / w;
            b.weight = w;
            b.length += top.length;
        }
    }
    std::vector<double> fit;
    for (const Block &b : blocks)
        fit.insert(fit.end(), b.length, b.mean);
    return fit;
}

double
maxRateMeeting(const std::vector<RungPool> &rungs, double limit_ms)
{
    std::vector<double> log_p99, weights;
    for (const RungPool &r : rungs) {
        const double p99 =
            r.backlog ? std::max(r.p99_ms, 2.0 * limit_ms) : r.p99_ms;
        log_p99.push_back(std::log(std::clamp(p99, 1e-9, 1e9)));
        weights.push_back(r.weight);
    }
    const std::vector<double> fit = isotonicFit(log_p99, weights);
    const double limit = std::log(limit_ms);
    std::size_t k = 0;
    while (k < fit.size() && fit[k] <= limit)
        ++k;
    if (k == 0)
        return 0.0;
    if (k == fit.size())
        return rungs[k - 1].rate;
    const double t = (limit - fit[k - 1]) / (fit[k] - fit[k - 1]);
    return rungs[k - 1].rate * std::pow(rungs[k].rate / rungs[k - 1].rate, t);
}

namespace
{

std::string
formatExact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Log-normal sigma of the perturbation of a raw signature. */
constexpr double kRawSignatureSigma = 0.05;

/** Kinds of request in the mix. */
enum class Kind { Named, RawSignature, InlineGraph };

} // namespace

std::vector<TimedRequest>
makeRequestStream(const StreamSpec &spec, double rate_per_s,
                  double duration_s, std::uint64_t seed)
{
    if (spec.networks.empty() || spec.devices.empty()
        || spec.devices.size() != spec.signatures.size())
        fatal("makeRequestStream: empty or misaligned spec");
    if (!(rate_per_s > 0.0) || !(duration_s > 0.0))
        fatal("makeRequestStream: rate and duration must be positive");
    const bool inline_ok = !spec.inline_graphs.empty();

    // Popularity: a seeded ranking of every (network, device) pair,
    // weight 1/rank, sampled through the cumulative weights.
    const std::size_t pairs = spec.networks.size() * spec.devices.size();
    std::vector<std::size_t> ranking(pairs);
    for (std::size_t i = 0; i < pairs; ++i)
        ranking[i] = i;
    Rng rank_rng(kPopularitySeed);
    rank_rng.shuffle(ranking);
    std::vector<double> cumulative(pairs);
    double acc = 0.0;
    for (std::size_t r = 0; r < pairs; ++r) {
        acc += 1.0 / static_cast<double>(r + 1);
        cumulative[r] = acc;
    }

    Rng arrival_rng = Rng(seed).fork(0);
    Rng body_rng = Rng(seed).fork(1);
    // The kinds of each block of kMixBlock requests, and the pass over
    // the inline pool.
    Rng mix_rng = Rng(seed).fork(2);
    std::vector<Kind> block(kMixBlock, Kind::Named);
    std::vector<std::size_t> graph_order;
    std::size_t graph_next = 0;
    std::vector<TimedRequest> stream;
    stream.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1)
                   + 16);
    double t = 0.0;
    for (std::size_t k = 0;; ++k) {
        // Exponential gaps: 1 - u lies in (0, 1], so the log is finite.
        t += -std::log(1.0 - arrival_rng.uniform()) / rate_per_s;
        if (t >= duration_s)
            break;
        TimedRequest req;
        req.due_s = t;
        const std::size_t pair =
            ranking[static_cast<std::size_t>(
                std::lower_bound(cumulative.begin(), cumulative.end(),
                                 body_rng.uniform() * acc)
                - cumulative.begin())];
        const std::size_t net = pair / spec.devices.size();
        const std::size_t dev = pair % spec.devices.size();
        if (k % kMixBlock == 0) {
            for (std::size_t i = 0; i < kMixBlock; ++i)
                block[i] = i < kInlinePerBlock ? Kind::InlineGraph
                           : i < kInlinePerBlock + kRawPerBlock
                               ? Kind::RawSignature
                               : Kind::Named;
            mix_rng.shuffle(block);
        }
        Kind kind = block[k % kMixBlock];
        if (kind == Kind::InlineGraph && !inline_ok)
            kind = Kind::RawSignature;

        std::string &line = req.line;
        line = "{\"id\": \"q" + std::to_string(k) + "\"";
        if (kind == Kind::InlineGraph) {
            if (graph_next == graph_order.size()) {
                graph_order.resize(spec.inline_graphs.size());
                for (std::size_t i = 0; i < graph_order.size(); ++i)
                    graph_order[i] = i;
                mix_rng.shuffle(graph_order);
                graph_next = 0;
            }
            line += ", \"graph\": ";
            json::appendJsonString(
                line, spec.inline_graphs[graph_order[graph_next++]]);
            line += ", \"device\": ";
            json::appendJsonString(line, spec.devices[dev]);
        } else if (kind == Kind::RawSignature) {
            line += ", \"network\": ";
            json::appendJsonString(line, spec.networks[net]);
            line += ", \"signature\": [";
            const auto &sig = spec.signatures[dev];
            for (std::size_t i = 0; i < sig.size(); ++i) {
                if (i)
                    line += ", ";
                line += formatExact(
                    sig[i] * body_rng.lognormalFactor(kRawSignatureSigma));
            }
            line += "]";
        } else {
            line += ", \"network\": ";
            json::appendJsonString(line, spec.networks[net]);
            line += ", \"device\": ";
            json::appendJsonString(line, spec.devices[dev]);
        }
        line += "}";
        stream.push_back(std::move(req));
    }
    return stream;
}

OpenLoopTrace
runOpenLoop(const std::vector<TimedRequest> &stream, std::size_t batch_cap,
            const ServeFn &serve, std::vector<bool> &ok_out)
{
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    if (batch_cap == 0)
        fatal("runOpenLoop: batch_cap must be positive");

    const std::size_t n = stream.size();
    OpenLoopTrace trace;
    trace.latency_ms.assign(n, 0.0);
    trace.gen_lateness_ms.assign(n, 0.0);
    trace.queue_wait_ms.assign(n, 0.0);
    ok_out.assign(n, false);
    std::vector<double> release_s(n, 0.0);

    std::deque<std::size_t> queue;
    std::vector<std::size_t> batch;
    std::vector<bool> batch_ok;
    std::size_t next = 0;
    std::size_t served = 0;
    const Clock::time_point t0 = Clock::now();
    while (served < n) {
        double now = seconds(Clock::now() - t0);
        while (next < n && stream[next].due_s <= now) {
            release_s[next] = now;
            queue.push_back(next++);
        }
        if (queue.empty()) {
            while (seconds(Clock::now() - t0) < stream[next].due_s) {
            }
            continue;
        }
        batch.clear();
        while (!queue.empty() && batch.size() < batch_cap) {
            batch.push_back(queue.front());
            queue.pop_front();
        }
        const double start = now;
        serve(batch, batch_ok);
        const double end = seconds(Clock::now() - t0);
        if (batch_ok.size() != batch.size())
            fatal("runOpenLoop: serve returned ", batch_ok.size(),
                  " results for ", batch.size(), " requests");
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::size_t k = batch[i];
            const double due = stream[k].due_s;
            trace.latency_ms[k] = (end - due) * 1e3;
            trace.gen_lateness_ms[k] = (release_s[k] - due) * 1e3;
            trace.queue_wait_ms[k] = (start - due) * 1e3;
            ok_out[k] = batch_ok[i];
        }
        trace.batch_us.push_back((end - start) * 1e6);
        trace.batch_sizes.push_back(static_cast<double>(batch.size()));
        served += batch.size();
    }
    return trace;
}

namespace
{

double
spanTotalIn(const json::Value &spans, const std::string &name)
{
    double total = 0.0;
    if (!spans.isArray())
        return total;
    for (const json::Value &node : spans.array) {
        if (node.has("name") && node.at("name").str == name)
            total += node.at("total_ms").number;
        else if (node.has("children"))
            total += spanTotalIn(node.at("children"), name);
    }
    return total;
}

} // namespace

double
spanTotalMs(const json::Value &report, const std::string &name)
{
    return report.has("spans") ? spanTotalIn(report.at("spans"), name)
                               : 0.0;
}

double
counterOf(const json::Value &report, const std::string &name)
{
    if (!report.has("counters") || !report.at("counters").has(name))
        return 0.0;
    return report.at("counters").at(name).number;
}

double
histogramSumMs(const json::Value &report, const std::string &name)
{
    if (!report.has("histograms") || !report.at("histograms").has(name))
        return 0.0;
    return report.at("histograms").at(name).at("sum_ms").number;
}

} // namespace gcm::perfbench

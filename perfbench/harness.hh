/**
 * @file
 * Pure helpers of the end-to-end benchmark driver (driver.cc): the
 * tail-percentile rule, the open-loop request engine and its backlog
 * detector, the seeded gcm-serve/v1 request stream, the stall-robust
 * p99 and the max-rate fit, span-tree extraction from a
 * gcm-perf-report/v1 document, and metric-name validation. Nothing
 * here touches a model, so selftest.cc exercises every helper without
 * building the library's dataset.
 */

#ifndef GCM_PERFBENCH_HARNESS_HH
#define GCM_PERFBENCH_HARNESS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/json.hh"

namespace gcm::perfbench
{

/** Samples a tail percentile needs beyond it before it is reported. */
inline constexpr std::size_t kTailSamples = 10;

/**
 * Nearest-rank percentile (p in (0, 100]) of an unsorted sample.
 * Returns NaN for an empty sample.
 */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

/**
 * Samples strictly beyond the nearest-rank p-th percentile of n
 * samples: n - ceil(p/100 * n).
 */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has
 * at least kTailSamples samples beyond it in a sample of n, or 0 when
 * even the median does not.
 */
double highestReportablePercentile(std::size_t n);

/** A timing reported as median plus its highest reportable tail. */
struct TailSummary
{
    std::size_t count = 0;
    double median = 0.0;
    /** Percentile of `tail`; 0 when count is too small for any. */
    double tail_percentile = 0.0;
    double tail = 0.0;
};

TailSummary summarize(const std::vector<double> &values);

/**
 * Whether a request stream fell progressively further behind: the
 * median wait before service (batch start minus due time) over the
 * last tenth of the stream exceeds that of the first tenth by more
 * than `slack`. `delays` is in due order. Streams of fewer than 20
 * requests never count as growing.
 */
bool backlogGrowing(const std::vector<double> &delays, double slack);

/**
 * A p99 that one host stall cannot decide: consecutive streams are
 * grouped into blocks just large enough for their p99 to have
 * kTailSamples samples beyond it (a smaller remainder joins the last
 * block), the p99 of each block is taken, and the median of those is
 * returned. NaN when all the streams together are too few for one
 * block.
 */
double medianBlockP99(const std::vector<std::vector<double>> &streams);

/** One rung of a fixed rate ladder, its samples pooled over a run. */
struct RungPool
{
    double rate = 0.0;
    /** p99 latency (ms) of the rung (medianBlockP99 of its streams). */
    double p99_ms = 0.0;
    /** Whether most of the rung's streams showed a growing backlog. */
    bool backlog = false;
    /** The rung's weight in the fit: its number of blocks. */
    double weight = 1.0;
};

/**
 * Weighted least-squares non-decreasing fit of `values` (pool adjacent
 * violators). `weights` are positive and aligned with `values`.
 */
std::vector<double> isotonicFit(const std::vector<double> &values,
                                const std::vector<double> &weights);

/**
 * The highest rate that meets a p99 limit with no growing backlog.
 * p99 cannot fall as the offered rate rises, so log p99 over the rungs
 * (a rung with a growing backlog counts as twice the limit) is first
 * fitted non-decreasing, which keeps one noisy rung from deciding.
 * The result is the highest rung whose fit meets the limit, moved
 * toward the next rung by interpolating log rate linearly in the
 * fitted log p99 to where it crosses the limit. 0 when the first rung
 * misses; the last rung's rate when none does.
 */
double maxRateMeeting(const std::vector<RungPool> &rungs, double limit_ms);

/** One request of an open-loop stream. */
struct TimedRequest
{
    /** Due time, seconds from the start of the stream. */
    double due_s = 0.0;
    std::string line;
};

/**
 * Shares of the serving request mix: Zipf-popular (network, device)
 * pairs by name (cache hits once warm), the same pairs with a freshly
 * perturbed raw signature (misses that still hit the service's encoding
 * memo), and inline graph_text networks the service has never seen
 * (parse, verify, quantize, encode). The shares are assumed, not
 * measured: no traffic trace of the service exists. The inline share
 * sets most of the mix's cost (an inline request costs about a hundred
 * named ones), so a change to it is a change of workload.
 *
 * The shares are exact, not drawn per request: every kMixBlock
 * consecutive requests hold kInlinePerBlock inline and kRawPerBlock
 * raw-signature ones (2% and 12%) at seeded positions, and inline
 * requests walk seeded permutations of the pool, each graph once per
 * pass. Drawn independently, the twenty or so inline requests of a
 * latency slice would vary in number and graph by about a fifth, and
 * the slice's busy time with them.
 */
inline constexpr std::size_t kMixBlock = 50;
inline constexpr std::size_t kInlinePerBlock = 1;
inline constexpr std::size_t kRawPerBlock = 6;
/**
 * Seed of the popularity ranking of the pairs, weight 1/rank (Zipf,
 * s = 1, the weighting of the duplicate-heavy loadgen mix). An
 * arbitrary fixed value: the ranking is a property of the user
 * population, the same on every run, so a stream's seed changes which
 * requests arrive when, not which keys are hot.
 */
inline constexpr std::uint64_t kPopularitySeed = 30;

/** Inputs of the serving request mix. */
struct StreamSpec
{
    /** Servable zoo network names. */
    std::vector<std::string> networks;
    /** Device-table names with their signature latencies. */
    std::vector<std::string> devices;
    std::vector<std::vector<double>> signatures;
    /** Pre-serialized unseen networks (gcm-graph v1 text). */
    std::vector<std::string> inline_graphs;
};

/**
 * Poisson arrivals at `rate_per_s` for `duration_s` seconds, with
 * bodies drawn from the mix over `spec`. A pure function of
 * (spec, rate, duration, seed); the popularity ranking does not depend
 * on the seed, so every rung shares its hot keys.
 */
std::vector<TimedRequest> makeRequestStream(const StreamSpec &spec,
                                            double rate_per_s,
                                            double duration_s,
                                            std::uint64_t seed);

/** Per-request timings of one open-loop rung, in due order. */
struct OpenLoopTrace
{
    /** Completion minus due time (ms). */
    std::vector<double> latency_ms;
    /** Release by the generator minus due time (ms). */
    std::vector<double> gen_lateness_ms;
    /** Start of the request's batch minus due time (ms): the wait
     *  before service, and the backlog signal. */
    std::vector<double> queue_wait_ms;
    /** Wall time of each serve call (us) and its batch size. */
    std::vector<double> batch_us;
    std::vector<double> batch_sizes;
};

/**
 * Serve `batch` (indices into the stream, in due order) and report
 * which requests succeeded, index-aligned with `batch`.
 */
using ServeFn = std::function<void(const std::vector<std::size_t> &batch,
                                   std::vector<bool> &ok_out)>;

/**
 * Drive `stream` open loop in host time from one thread: release
 * every request whose due time has passed into a FIFO, serve the FIFO
 * head in batches of at most `batch_cap`, and time each request from
 * its due time. Waits for the next due time by spinning on the steady
 * clock. `ok_out` receives each request's success flag.
 */
OpenLoopTrace runOpenLoop(const std::vector<TimedRequest> &stream,
                          std::size_t batch_cap, const ServeFn &serve,
                          std::vector<bool> &ok_out);

/**
 * Sum of `total_ms` over the outermost spans named `name` in a
 * gcm-perf-report/v1 document (a span nested under a span of the same
 * name is already inside its parent's total). Totals, not self
 * times: spans under parallel loops sum across threads.
 */
double spanTotalMs(const json::Value &report, const std::string &name);

/** A counter of a gcm-perf-report/v1 document; 0 when absent. */
double counterOf(const json::Value &report, const std::string &name);

/** `sum_ms` of a histogram of a report; 0 when absent. */
double histogramSumMs(const json::Value &report, const std::string &name);

} // namespace gcm::perfbench

#endif // GCM_PERFBENCH_HARNESS_HH

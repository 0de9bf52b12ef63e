/**
 * @file
 * ServerFrontEnd — the serving engine: multi-worker serving with
 * backpressure, priority classes and a graceful-degradation ladder
 * (DESIGN.md §10). `gcm serve`, both load generators and the fleet
 * loop all serve through run().
 *
 * The front end owns N workers pulling micro-batches from two bounded
 * FIFO queues, one per Priority class; interactive traffic always
 * drains before bulk NAS traffic. Admission applies the degradation
 * ladder per request, keyed on the depth of its class queue:
 *
 *   depth <  soft_watermark   -> Full        (active snapshot)
 *   depth >= soft_watermark   -> Stale       (pinned previous version)
 *   depth >= hard_watermark   -> Analytical  (model-free roofline)
 *   depth >= queue_capacity   -> Shed        (structured overloaded)
 *
 * with availability adjustments: a mid-swap registry (the active
 * version changed after the run pinned it) caps Full at Stale; no
 * previous version (or no servable model at all) escalates Stale to
 * Analytical. DegradeMode::ShedOnly disables the middle rungs —
 * binary accept/reject.
 *
 * Open and closed arrivals. An open-loop caller (window 0: Poisson
 * loadgen, fixed-rate pacing, the fleet loop) admits each request at
 * its own timestamp, however far behind the server falls. A
 * closed-loop caller with window W keeps at most W requests
 * outstanding: request i is admitted at its timestamp or at the
 * simulated completion of request i-W, whichever is later.
 * closedWindow() derives the W that `gcm serve` uses from the config
 * so that a class queue can never reach the first degrading
 * watermark — a stream without timestamps is never degraded or shed.
 *
 * Determinism contract (the serving side of DESIGN.md §7).
 * Queueing decisions depend on *time*, which is why naive multi-
 * threaded serving is unreproducible. The front end splits each run
 * into two phases:
 *
 *  1. Plan (serial, simulated clock): a discrete-event simulation
 *     walks arrivals in admission order against per-tier service
 *     costs (FrontEndConfig), assigning every request its tier,
 *     worker and batch, and every batch its start/finish time. With
 *     a fixed arrival stream, window and worker count this phase is
 *     a pure function — tier decisions, shed set, queue peaks and
 *     sojourn percentiles are exactly reproducible.
 *  2. Execute (parallel, real threads): the planned batches run on
 *     real worker threads (one PredictionService per worker — batch
 *     state is not shareable — over one shared cache), each writing
 *     responses into its own pre-assigned slots. Payload content for
 *     a given (request, tier, pinned version) is a pure function, so
 *     response bytes are identical at ANY worker count; only the
 *     plan (which consumed the worker count) fixes the tier mix.
 *
 * The registry snapshots (active and previous) are pinned once per
 * run via shared_ptr: a concurrent rollback()+retire() can evict a
 * version from the registry mid-run without ever freeing a snapshot
 * the stale tier is reading.
 *
 * One deliberate exception to the contract: the shared cache's
 * hit/miss/coalesce counters depend on which worker's batch reaches
 * a key first, so FrontEndReport::cache is a scheduling-dependent
 * diagnostic. Everything else in the report — and every response
 * byte — is deterministic.
 */

#ifndef GCM_SERVE_FRONTEND_HH
#define GCM_SERVE_FRONTEND_HH

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "serve/analytical.hh"
#include "serve/cache.hh"
#include "serve/registry.hh"
#include "serve/service.hh"

namespace gcm::serve
{

/** One timestamped request line (simulated milliseconds). */
struct Arrival
{
    double time_ms = 0.0;
    std::string line;
};

/** Overload policy: the full ladder, or binary accept/shed. */
enum class DegradeMode
{
    Ladder,
    ShedOnly,
};

const char *degradeModeName(DegradeMode mode);

/** Parse "ladder" / "shed". Throws GcmError otherwise. */
DegradeMode parseDegradeMode(const std::string &name);

struct FrontEndConfig
{
    /** Worker threads; 0 means the GCM_THREADS/default pool size. */
    std::size_t workers = 0;
    /** Per-priority-class queue capacity; beyond it requests shed. */
    std::size_t queue_capacity = 256;
    /** Queue depth at which Full degrades to Stale. */
    std::size_t soft_watermark = 64;
    /** Queue depth at which the ladder drops to Analytical. */
    std::size_t hard_watermark = 160;
    /** Requests per planned micro-batch. */
    std::size_t batch_size = 16;
    DegradeMode degrade = DegradeMode::Ladder;

    /**
     * Simulated per-request service cost by tier (ms) and per-batch
     * dispatch overhead, driving the plan-phase clock. Costs drop
     * monotonically down the ladder — stale skips the freshness /
     * swap-synchronization work, analytical skips the model entirely —
     * but every rung is deliberately NOT free: at these defaults a
     * 2x-capacity stream outruns even the stale service rate, so the
     * queue climbs through both watermarks and the shed rung is
     * reachable (the tools/check.sh soak asserts exactly that).
     */
    double full_cost_ms = 1.0;
    double stale_cost_ms = 0.9;
    double analytical_cost_ms = 0.6;
    double batch_overhead_ms = 0.2;

    ServiceConfig service;

    /** Throws GcmError on nonsensical parameters. */
    void validate() const;
};

/** Per-run accounting; summary() renders the human-readable block. */
struct FrontEndReport
{
    std::size_t workers = 0;
    std::size_t offered = 0;
    std::size_t ok = 0;
    std::size_t errors = 0; // non-shed error responses
    std::size_t tier_full = 0;
    std::size_t tier_stale = 0;
    std::size_t tier_analytical = 0;
    std::size_t tier_shed = 0;
    std::size_t peak_queue_interactive = 0;
    std::size_t peak_queue_bulk = 0;
    /** Simulated clock when the last batch finished (ms). */
    double sim_duration_ms = 0.0;
    /** Served (non-shed) requests per simulated second. */
    double goodput_qps = 0.0;
    /** tier_shed / offered. */
    double shed_rate = 0.0;
    /** Simulated busy-time fraction across workers. */
    double utilization = 0.0;
    /** Simulated admission->completion sojourn, non-shed requests. */
    double sojourn_p50_ms = 0.0;
    double sojourn_p95_ms = 0.0;
    double sojourn_p99_ms = 0.0;
    ShardedLruCache::Stats cache;

    /** served() == offered - tier_shed; the accounting identity. */
    std::size_t served() const { return ok + errors; }

    std::string summary() const;
};

class ServerFrontEnd
{
  public:
    /**
     * @param registry Model source; must outlive the front end.
     * @param device_table Known devices, shared by every worker.
     */
    ServerFrontEnd(const ModelRegistry &registry,
                   PredictionService::DeviceTable device_table,
                   FrontEndConfig config = {});

    /**
     * Serve one timestamped arrival stream (must be sorted by
     * time_ms; validated). `window` 0 is open loop; W > 0 admits
     * request i no earlier than the simulated completion of request
     * i-W. When `responses_out` is non-null it receives one rendered
     * response line per arrival, index-aligned with the arrivals.
     * Never throws on malformed request lines.
     */
    FrontEndReport run(const std::vector<Arrival> &arrivals,
                       std::vector<std::string> *responses_out,
                       std::size_t window = 0);

    /** Resolved worker count (config.workers or the pool default). */
    std::size_t workers() const { return workers_; }

    /**
     * Sustainable full-tier throughput (requests per simulated
     * second): workers / (full_cost + amortized batch overhead).
     */
    double capacityQps() const;

    /**
     * Closed-loop window for untimed streams: one batch per worker,
     * capped so a class queue stays below the first degrading
     * watermark (soft for the ladder, capacity for shed-only). At
     * least 1.
     */
    std::size_t closedWindow() const;

    const FrontEndConfig &config() const { return config_; }
    const ModelRegistry &registry() const { return registry_; }
    const ShardedLruCache &cache() const { return *cache_; }
    const PredictionService::DeviceTable &deviceTable() const;

  private:
    const ModelRegistry &registry_;
    FrontEndConfig config_;
    std::size_t workers_;
    std::shared_ptr<ShardedLruCache> cache_;
    /** One service per worker (processBatch is not thread-safe). */
    std::vector<std::unique_ptr<PredictionService>> services_;
    std::vector<std::unique_ptr<AnalyticalEstimator>> estimators_;
};

/**
 * Read request lines from `in`, serve them through the front end and
 * write one response line per request to `out`, in request order.
 * With arrival_qps > 0 the whole stream arrives open loop at that
 * fixed rate; otherwise it is served closed loop with closedWindow(),
 * in runs of max(window, 1024) lines, each run's responses flushed
 * before the next run's lines are read.
 * Returns the number of lines consumed.
 */
std::size_t runFrontEndLoop(ServerFrontEnd &frontend, std::istream &in,
                            std::ostream &out, double arrival_qps = 0.0);

} // namespace gcm::serve

#endif // GCM_SERVE_FRONTEND_HH

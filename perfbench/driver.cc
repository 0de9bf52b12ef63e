/**
 * @file
 * gcm_perfbench — end-to-end benchmark driver (run through run.py).
 *
 * A run sets the system up (the paper-size dataset, a seeded 70/30
 * device split, the first fleet controller), then for its measured
 * time interleaves four stages of the user-visible path:
 *
 *  - eval: the paper's offline pipeline — MIS signature on the train
 *    devices, GBT training with it pinned, compile, predict every
 *    held-out (device, non-signature network) cell. Its first pass
 *    trains the model every serving stage uses.
 *  - serve: an open-loop rate ladder of gcm-serve/v1 request lines
 *    through the protocol layer and PredictionService::processBatch,
 *    on one thread, climbing to the highest rate that meets the p99
 *    limit.
 *  - search: ArchitectureSearch::run priced through the serving stack.
 *  - fleet: the FleetController closed loop at `gcm fleet` defaults.
 *
 * The workload's own stage gets kFocusShare of the time, the others
 * share the rest, and every couple of seconds the set-up is timed once
 * more and a short slice of each named serving rate samples request
 * latency and busy time. So every end-to-end
 * metric is measured on every workload, each as a median (or a
 * percentile of pooled samples) spread over the whole run rather than
 * taken at one moment of a host whose speed drifts. The driver times
 * the library's public calls from outside; with --trace 1 it enables
 * the obs layer around one repetition of each stage and derives the
 * per-layer metrics from the span tree and counters.
 *
 * Usage:
 *   gcm_perfbench --workload paper_eval|serve_open --seed N --seconds S
 *                 --trace 0|1 --pool THREADS
 *
 * Human-readable lines go to stdout; the last line is one JSON object
 * with the metrics, the check results and build facts, which run.py
 * turns into the benchmark's result line.
 */

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hh"
#include "core/experiment_context.hh"
#include "core/signature.hh"
#include "dnn/generator.hh"
#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "fleet/loop.hh"
#include "harness.hh"
#include "ml/metrics.hh"
#include "obs/obs.hh"
#include "search/search.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "serve/service.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

#ifndef GCM_PERFBENCH_BUILD_TYPE
#define GCM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef GCM_PERFBENCH_COMPILER
#define GCM_PERFBENCH_COMPILER "unknown"
#endif

namespace gcm::perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Wall time of fn() in seconds. */
template <typename Fn>
double
timed(Fn &&fn)
{
    const Clock::time_point t = Clock::now();
    fn();
    return secondsSince(t);
}

// ---------------------------------------------------------------- knobs

/** Timed set-ups per run; setup_s is their median. The first, untimed
 *  set-up pays the cold page faults; the run keeps the products of the
 *  second and repeats the set-up at each latency sample, so the timed
 *  ones spread over the run rather than all meeting the host's speed of
 *  its first second. */
constexpr std::size_t kSetups = 15;
/** Paper protocol: 70/30 device split, 10-network MIS signature, GBT
 *  with 100 trees of depth 3. */
constexpr double kTrainFraction = 0.7;
constexpr std::size_t kSignatureSize = 10;
constexpr std::size_t kPaperTrees = 100;
constexpr std::size_t kPaperDepth = 3;
/** Floor on the held-out R^2 of the paper pipeline. */
constexpr double kR2Floor = 0.8;

/** Open-loop serving: Poisson arrivals, one driver thread. */
constexpr std::size_t kBatchCap = 32;
/** Pool size while the serve stage runs. With a second thread, every
 *  batch of two or more missing keys wakes a pool worker and waits for
 *  it, and that wake-up costs about as much as a named request and is
 *  decided by the host's scheduler. On one thread each request is
 *  served on the driver thread: the serving metrics measure the
 *  request path, not the scheduler. */
constexpr std::size_t kServePool = 1;
/** Named rates of the ladder (requests per second). */
constexpr double kRateLow = 2500.0;
constexpr double kRateMid = 5000.0;
constexpr double kRateHigh = 10000.0;
/** One latency sample of the named rates: a slice of each, holding
 *  about kBlockSamples requests, every kSampleEvery seconds of the run
 *  (kSampleEveryServe on serve_open, where the samples carry its
 *  bounded serving metric); at least kMinSamples of them untraced.
 *  Their time counts toward the serve stage's share. */
constexpr double kSampleEvery = 3.0;
constexpr double kSampleEveryServe = 2.0;
constexpr std::size_t kMinSamples = 10;
/** The max-rate ladder: kLadderRungs rates from kRateHigh up, each
 *  kLadderStep times the one below, probed kProbeSeconds at a time. */
constexpr double kProbeSeconds = 0.3;
constexpr std::size_t kLadderRungs = 21;
constexpr double kLadderStep = 1.189207115002721; // 2^(1/4)
/** Latency limit on p99 for serve_max_rate: well above the cost of an
 *  inline-graph request, so queueing, not the mix, decides a miss. */
constexpr double kP99LimitMs = 5.0;
/** Backlog: last-tenth wait beyond the first tenth's by this. */
constexpr double kBacklogSlackMs = 2.0;
/** Untimed warm-up (at kRateHigh) of each serving service before its
 *  first stream, and a shorter one before each later sample or ladder:
 *  the stage before may have left cold caches and returned pages. */
constexpr double kWarmupSeconds = 0.5;
constexpr double kRewarmSeconds = 0.02;
/** Unseen networks available to inline graph_text requests; a fixed
 *  pool, so the seed picks requests, not the cost of the mix. */
constexpr std::size_t kInlineGraphs = 128;
constexpr std::uint64_t kInlineGraphSeed = 0x5eed;
/** Requests in one latency slice: a block of medianBlockP99, whose
 *  p99 then has at least ten samples beyond it. */
constexpr std::size_t kBlockSamples = 1000;
/** One request in this many is re-predicted cold and compared. */
constexpr std::uint64_t kCheckEvery = 61;

/** Search shape: a fixed device set, so the seed moves the search and
 *  not which devices bound it. */
constexpr std::size_t kSearchDevices = 9;
constexpr std::uint64_t kSearchDeviceSeed = 20;
constexpr std::size_t kSearchPopulation = 64;
constexpr std::size_t kSearchGenerations = 40;

/** fleet_final_r2 is the median over the first kFleetR2Configs fleet
 *  configs of a run, which every run reaches: a fixed set, so the
 *  metric is a function of the seed alone, not of how many configs the
 *  run's speed let it reach. */
constexpr std::size_t kFleetR2Configs = 5;

/** The workload's own stage: its share of the run and minimum. */
constexpr double kFocusShare = 0.4;
constexpr std::size_t kMinFocusReps = 2;

enum class Stage { Eval, Serve, Search, Fleet };

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Eval: return "eval";
      case Stage::Serve: return "serve";
      case Stage::Search: return "search";
      case Stage::Fleet: return "fleet";
    }
    return "?";
}

/** Minimum repetitions of a stage that is not the workload's own. */
std::size_t
minReps(Stage s)
{
    switch (s) {
      case Stage::Eval: return 3;
      case Stage::Serve: return 2;
      case Stage::Search: return 4;
      case Stage::Fleet: return kFleetR2Configs + 1;
    }
    return 1;
}

// ------------------------------------------------------------- results

/** Named samples; a metric's value is the median of its samples. */
class Samples
{
  public:
    void add(const std::string &name, double v) { map_[name].push_back(v); }
    bool has(const std::string &name) const { return map_.count(name) > 0; }
    double med(const std::string &name) const
    {
        return median(map_.at(name));
    }

  private:
    std::map<std::string, std::vector<double>> map_;
};

/** Output checks; any failure makes the run incorrect. */
class Checks
{
  public:
    void expect(bool ok, const std::string &what)
    {
        ++count_;
        if (!ok) {
            failures_.push_back(what);
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }
    bool ok() const { return failures_.empty(); }
    std::size_t count() const { return count_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::size_t count_ = 0;
    std::vector<std::string> failures_;
};

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** The worker pool at `n` threads for one scope, then at `back`. */
class PoolScope
{
  public:
    PoolScope(std::size_t n, std::size_t back) : back_(back)
    {
        setThreads(n);
    }
    ~PoolScope() { setThreads(back_); }
    PoolScope(const PoolScope &) = delete;
    PoolScope &operator=(const PoolScope &) = delete;

  private:
    std::size_t back_;
};

/** obs on, with a fresh registry, for one scope. */
class TraceScope
{
  public:
    explicit TraceScope(bool on) : on_(on)
    {
        if (on_) {
            obs::reset();
            obs::setEnabled(true);
        }
    }
    ~TraceScope()
    {
        if (on_)
            obs::setEnabled(false);
    }
    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /** The report collected so far. */
    json::Value report() const { return json::parseJson(obs::reportJson()); }

  private:
    bool on_;
};

// ------------------------------------------------------ the serve path

/** Kinds of request in the serving mix, as the service sees them. */
enum MixKind { kNamed, kRawSignature, kInlineGraph, kMixKinds };

MixKind
mixKind(const serve::ServeRequest &q)
{
    return !q.graph_text.empty() ? kInlineGraph
           : q.has_signature     ? kRawSignature
                                 : kNamed;
}

/** Each kind's share of the mix (harness.hh). */
double
mixShare(MixKind k)
{
    const double block = static_cast<double>(kMixBlock);
    switch (k) {
      case kInlineGraph: return static_cast<double>(kInlinePerBlock) / block;
      case kRawSignature: return static_cast<double>(kRawPerBlock) / block;
      default:
        return static_cast<double>(kMixBlock - kInlinePerBlock
                                   - kRawPerBlock)
               / block;
    }
}

/** What one open-loop stream recorded. */
struct StreamStats
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;
    std::size_t checked = 0;
    std::string first_error;
    double parse_s = 0.0;
    double render_s = 0.0;
    /** Busy time (us) of each batch of one request, by kind. */
    std::vector<double> single_us[kMixKinds];
    OpenLoopTrace trace;
    std::vector<bool> ok;
    /** Latencies with failed requests at +infinity (they miss any
     *  limit). */
    std::vector<double> latency_ms;
    bool backlog = false;
    bool meets = false;
};

/**
 * Drive one stream open loop through the protocol layer and `service`:
 * parse each due line, serve the batch, render every response. A
 * seeded sample of responses is kept and, after the stream, compared
 * with a cold predictMs call, so the check costs no request time.
 */
StreamStats
driveStream(serve::PredictionService &service,
          const std::vector<TimedRequest> &stream, std::uint64_t check_seed)
{
    StreamStats st;
    st.attempted = stream.size();

    std::vector<serve::ServeRequest> parsed;
    std::vector<serve::ServeRequest> valid;
    std::vector<std::size_t> valid_at;
    std::vector<serve::ServeResponse> responses;
    std::vector<std::pair<serve::ServeRequest, serve::ServeResponse>> sampled;
    std::size_t bytes = 0;

    const ServeFn serveFn = [&](const std::vector<std::size_t> &batch,
                                std::vector<bool> &ok) {
        const Clock::time_point t0 = Clock::now();
        Clock::time_point t = t0;
        parsed.assign(batch.size(), serve::ServeRequest{});
        responses.assign(batch.size(), serve::ServeResponse{});
        valid.clear();
        valid_at.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::string err =
                serve::tryParseRequest(stream[batch[i]].line, parsed[i]);
            if (err.empty()) {
                valid.push_back(parsed[i]);
                valid_at.push_back(i);
            } else {
                responses[i] = serve::ServeResponse::failure(
                    parsed[i].id, serve::ServeErrorCode::BadRequest, err);
            }
        }
        st.parse_s += secondsSince(t);

        std::vector<serve::ServeResponse> served =
            service.processBatch(valid);
        for (std::size_t j = 0; j < served.size(); ++j)
            responses[valid_at[j]] = std::move(served[j]);

        t = Clock::now();
        ok.assign(batch.size(), false);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            bytes += serve::renderResponse(responses[i]).size();
            ok[i] = responses[i].ok;
        }
        st.render_s += secondsSince(t);
        if (batch.size() == 1)
            st.single_us[mixKind(parsed[0])].push_back(1e6
                                                       * secondsSince(t0));

        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (!responses[i].ok && st.first_error.empty())
                st.first_error = serve::renderResponse(responses[i]);
            if (Rng(check_seed).fork(batch[i]).next() % kCheckEvery == 0)
                sampled.emplace_back(parsed[i], responses[i]);
        }
    };
    st.trace = runOpenLoop(stream, kBatchCap, serveFn, st.ok);
    if (bytes == 0)
        fatal("perfbench: rendered no response bytes");

    // The served value equals a cold predictMs call bit for bit, and
    // its rendered form round-trips exactly.
    const core::SignatureCostModel &model =
        service.registry().active().snapshot->costModel();
    for (const auto &[q, r] : sampled) {
        ++st.checked;
        bool same = r.ok;
        if (same) {
            const dnn::Graph g =
                q.network.empty()
                    ? dnn::quantize(dnn::graphFromText(q.graph_text))
                    : dnn::quantize(dnn::buildZooModel(q.network));
            const double cold = model.predictMs(
                g, q.has_signature ? q.signature
                                   : service.deviceTable().at(q.device));
            const double wire = json::parseJson(serve::renderResponse(r))
                                    .at("latency_ms")
                                    .number;
            same = sameBits(cold, r.latency_ms) && sameBits(wire, cold);
        }
        st.mismatches += same ? 0 : 1;
    }

    st.latency_ms = st.trace.latency_ms;
    for (std::size_t k = 0; k < st.ok.size(); ++k) {
        if (!st.ok[k]) {
            ++st.failed;
            st.latency_ms[k] = std::numeric_limits<double>::infinity();
        }
    }
    st.backlog = backlogGrowing(st.trace.queue_wait_ms, kBacklogSlackMs);
    st.meets = percentile(st.latency_ms, 99.0) <= kP99LimitMs && !st.backlog;
    return st;
}

/** Request and cache counters over the named slices of one rate. */
struct CacheTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
};

// ------------------------------------------------------------ the bench

/** Everything a measured stage consumes, built by one set-up. */
struct SetUpProducts
{
    std::optional<core::ExperimentContext> ctx;
    std::vector<std::size_t> train_devices;
    std::vector<std::size_t> test_devices;
    std::vector<std::string> inline_graphs;
    std::unique_ptr<fleet::FleetController> fleet_ready;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t pool = 1;
};

class Bench
{
  public:
    explicit Bench(Args args) : args_(std::move(args)) {}

    void run();
    void printResult() const;

  private:
    /** One set-up, timed into setup_s when `record`. */
    SetUpProducts setUp(bool record);
    void runStage(Stage s, bool traced, std::size_t rep);
    void evalPass(bool traced);
    void serveLadder(bool traced);
    void searchRun(bool traced, std::size_t rep);
    void fleetRun(bool traced, std::size_t rep);
    /** One latency sample: a slice of each named rate. */
    void sampleNamedRates(bool traced);
    void startServing();
    /** The serving metrics, from the samples of the whole run. */
    void summarizeServing();
    /** Untimed closed-loop burst of the request mix through `service`. */
    void warmUp(serve::PredictionService &service, double seconds);
    /** Serve a stream through `service`; checks its responses and
     *  counts its requests. */
    StreamStats serveStream(serve::PredictionService &service, double rate,
                            double seconds, std::uint64_t seed);
    /** The ladder's rungs with pooled samples, from the bottom. */
    std::vector<RungPool> pooledLadder() const;
    /** Index of the highest rung meeting the limit so far (0 if none). */
    std::size_t ladderBest() const;
    /** Record the work measure of a repetition of `s`. */
    void work(Stage s, bool traced, double value);
    void poolMetrics(const json::Value &report);

    /**
     * Seed of the search or fleet loop of a repetition. The first two
     * repetitions share one, so that config runs twice (its report
     * must repeat byte for byte); every later repetition has its own,
     * so the run's median spans several configs rather than the cost
     * of one.
     */
    std::uint64_t subSeed(Stage s, std::size_t rep) const
    {
        return Rng(args_.seed)
                   .fork(100 * (static_cast<std::uint64_t>(s) + 1)
                         + configOf(rep))
                   .next()
               % 1000000;
    }
    static std::size_t configOf(std::size_t rep)
    {
        return rep == 0 ? 0 : rep - 1;
    }

    Args args_;
    Stage focus_ = Stage::Eval;
    Samples e2e_;
    Samples layer_;
    Checks checks_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;

    SetUpProducts setup_;
    std::size_t setups_ = 0;

    // The first evaluation pass's products, and two long-lived
    // services: one for the latency samples of the named rates, one for
    // the max-rate ladder, whose overload probes would otherwise churn
    // the samples' cache.
    std::optional<std::vector<std::size_t>> signature_;
    std::optional<double> r2_;
    serve::ModelRegistry registry_;
    serve::PredictionService::DeviceTable table_;
    StreamSpec spec_;
    std::unique_ptr<serve::PredictionService> service_;
    std::unique_ptr<serve::PredictionService> ladder_service_;
    std::uint64_t streams_ = 0;

    // Determinism references across repetitions.
    std::map<std::uint64_t, std::string> search_reports_;
    std::map<std::uint64_t, std::string> fleet_reports_;

    // Max-rate ladder rungs, their probes pooled over the run.
    struct Rung
    {
        double rate = 0.0;
        /** Latencies (ms) of each probe. */
        std::vector<std::vector<double>> probes;
        std::size_t backlogs = 0;
        std::size_t attempted = 0;
        std::size_t failed = 0;
    };
    std::vector<Rung> ladder_;

    // Named-rate samples pooled over the run.
    std::map<std::string, std::vector<std::vector<double>>>
        named_latency_ms_;
    std::map<std::string, CacheTally> named_cache_;
    std::size_t samples_ = 0;
    std::size_t untraced_samples_ = 0;
    std::size_t serve_checked_ = 0;
    /** Busy time (us) of the untraced samples' batches of one request,
     *  by kind. */
    std::vector<double> single_us_[kMixKinds];
    double serve_parse_s_ = 0.0;
    double serve_render_s_ = 0.0;
    std::uint64_t serve_requests_ = 0;
    std::uint64_t serve_errors_ = 0;
    OpenLoopTrace high_;

    /** Per stage, the work measure of untraced and traced repetitions
     *  (their ratio is the tracing overhead). */
    std::map<Stage, std::vector<double>> work_plain_;
    std::map<Stage, std::vector<double>> work_traced_;
};

fleet::FleetLoopConfig
fleetConfig(std::uint64_t seed)
{
    // `gcm fleet` defaults, with every seed the loop draws from moved
    // by the benchmark's.
    fleet::FleetLoopConfig cfg;
    cfg.fleet.fleet_size = 10000;
    cfg.fleet.seed = 9000 + seed;
    cfg.rounds = 6;
    cfg.devices_per_round = 24;
    cfg.fault_rate = 0.1;
    cfg.num_random_networks = 8;
    cfg.campaign.runs_per_network = 5;
    cfg.retrain.cadence_rounds = 2;
    cfg.retrain.gbt.n_estimators = 60;
    cfg.canary.holdout_fraction = 0.2;
    cfg.canary.max_r2_regression = 0.01;
    cfg.canary.split_seed = 17 + seed;
    cfg.cohort_seed = 31 + seed;
    cfg.traffic.requests_per_round = 64;
    cfg.traffic.workers = 2;
    cfg.traffic.seed = 501 + seed;
    return cfg;
}

SetUpProducts
Bench::setUp(bool record)
{
    // The dataset at paper size, the seeded device split, the unseen
    // networks of the inline requests and the fleet controller of the
    // first fleet run: everything a measured stage consumes.
    SetUpProducts p;
    const Clock::time_point t0 = Clock::now();
    const double build_s =
        timed([&] { p.ctx.emplace(core::ExperimentContext::build()); });

    std::vector<std::size_t> devices(p.ctx->fleet().size());
    for (std::size_t d = 0; d < devices.size(); ++d)
        devices[d] = d;
    Rng(args_.seed).fork(10).shuffle(devices);
    const auto n_train = static_cast<std::ptrdiff_t>(std::lround(
        kTrainFraction * static_cast<double>(devices.size())));
    p.train_devices.assign(devices.begin(), devices.begin() + n_train);
    p.test_devices.assign(devices.begin() + n_train, devices.end());

    dnn::RandomNetworkGenerator gen(dnn::SearchSpace{}, kInlineGraphSeed);
    for (std::size_t g = 0; g < kInlineGraphs; ++g)
        p.inline_graphs.push_back(
            dnn::graphToText(gen.generate("unseen_" + std::to_string(g))));

    const double construct_s = timed([&] {
        p.fleet_ready = std::make_unique<fleet::FleetController>(
            fleetConfig(subSeed(Stage::Fleet, 0)));
    });
    if (record) {
        layer_.add("core.context_build_ms", 1e3 * build_s);
        layer_.add("fleet.construct_ms", 1e3 * construct_s);
        e2e_.add("setup_s", secondsSince(t0));
        ++setups_;
    }
    return p;
}

void
Bench::work(Stage s, bool traced, double value)
{
    (traced ? work_traced_ : work_plain_)[s].push_back(value);
}

void
Bench::poolMetrics(const json::Value &report)
{
    layer_.add("util.pool_chunks", counterOf(report, "pool.chunks"));
    layer_.add("util.pool_batches", counterOf(report, "pool.batches"));
    layer_.add("util.pool_queue_wait_ms",
               histogramSumMs(report, "pool.queue_wait_ms"));
}

void
Bench::evalPass(bool traced)
{
    const core::ExperimentContext &ctx = *setup_.ctx;
    TraceScope scope(traced);
    double select_s = 0.0, train_s = 0.0, compile_s = 0.0,
           predict_s = 0.0;
    std::vector<std::size_t> sig;
    std::optional<core::SignatureCostModel> model;
    std::vector<double> y_true, y_pred;

    const double pass_s = timed([&] {
        const auto matrix = ctx.latencyMatrix(setup_.train_devices);
        core::SignatureConfig sel;
        sel.size = kSignatureSize;
        select_s = timed(
            [&] { sig = core::selectMisSignature(matrix, sel.size, sel); });

        core::SignatureCostModel::Config cfg;
        cfg.selection = sel;
        cfg.pinned_signature = sig;
        cfg.gbt.n_estimators = kPaperTrees;
        cfg.gbt.max_depth = kPaperDepth;
        train_s = timed([&] {
            model.emplace(core::SignatureCostModel::train(ctx.suite(),
                                                          matrix, cfg));
        });
        compile_s = timed([&] { model->compile(); });

        std::vector<bool> in_sig(ctx.numNetworks(), false);
        for (std::size_t s : sig)
            in_sig[s] = true;
        predict_s = timed([&] {
            for (std::size_t d : setup_.test_devices) {
                std::vector<double> sig_lat;
                for (std::size_t s : sig)
                    sig_lat.push_back(ctx.latencyMs(d, s));
                for (std::size_t n = 0; n < ctx.numNetworks(); ++n) {
                    if (in_sig[n])
                        continue;
                    y_true.push_back(ctx.latencyMs(d, n));
                    y_pred.push_back(
                        model->predictMs(ctx.suite()[n], sig_lat));
                }
            }
        });
    });
    const double r2 = ml::r2Score(y_true, y_pred);
    attempted_ += 1;

    if (traced) {
        const json::Value doc = scope.report();
        layer_.add("ml.gbt_bin_ms", spanTotalMs(doc, "gbt.bin"));
        layer_.add("ml.tree_histogram_ms",
                   spanTotalMs(doc, "tree.histogram"));
        layer_.add("ml.tree_split_ms", spanTotalMs(doc, "tree.split"));
        if (focus_ == Stage::Eval)
            poolMetrics(doc);
    }
    layer_.add("core.select_ms", select_s * 1e3);
    layer_.add("core.train_ms", train_s * 1e3);
    layer_.add("core.compile_ms", compile_s * 1e3);
    layer_.add("core.predict_us_per_row",
               predict_s * 1e6 / static_cast<double>(y_pred.size()));
    work(Stage::Eval, traced, pass_s);
    if (!traced)
        e2e_.add("eval_pass_s", pass_s);

    checks_.expect(std::isfinite(r2) && r2 > kR2Floor,
                   "paper_eval: held-out R^2 " + fmt(r2)
                       + " is finite and above " + fmt(kR2Floor));
    if (signature_) {
        checks_.expect(*signature_ == sig,
                       "paper_eval: signature identical across passes");
        checks_.expect(sameBits(*r2_, r2),
                       "paper_eval: R^2 identical across passes");
        return;
    }
    signature_ = sig;
    r2_ = r2;
    e2e_.add("r2_holdout", r2);
    std::printf("eval: signature");
    for (const auto &name : model->signatureNames())
        std::printf(" %s", name.c_str());
    std::printf("; %zu held-out cells, R^2 %.6f\n", y_pred.size(), r2);
    registry_.publish(serve::ModelSnapshot::fromCostModel(std::move(*model)));
    startServing();
}

void
Bench::startServing()
{
    const core::ExperimentContext &ctx = *setup_.ctx;
    const core::SignatureCostModel &served =
        registry_.active().snapshot->costModel();
    for (std::size_t d = 0; d < ctx.fleet().size(); ++d) {
        std::vector<double> lat;
        for (std::size_t s : served.signature())
            lat.push_back(ctx.latencyMs(d, s));
        table_[ctx.fleet().devices()[d].model_name] = lat;
    }
    for (const auto &[name, lat] : table_) {
        spec_.devices.push_back(name);
        spec_.signatures.push_back(lat);
    }
    // The paper's 18 zoo networks are the servable names; the extended
    // zoo holds networks deeper than this model's encoder layout.
    spec_.networks = dnn::zooModelNames();
    spec_.inline_graphs = setup_.inline_graphs;
    service_ = std::make_unique<serve::PredictionService>(registry_, table_);
    ladder_service_ =
        std::make_unique<serve::PredictionService>(registry_, table_);
    const PoolScope pool(kServePool, args_.pool);
    warmUp(*service_, kWarmupSeconds);
    warmUp(*ladder_service_, kWarmupSeconds);
}

void
Bench::warmUp(serve::PredictionService &service, double seconds)
{
    // Untimed and closed loop, with the same mix: the encoding memo, the
    // hot keys and the allocator's pages are in place before timing.
    const std::vector<TimedRequest> warm = makeRequestStream(
        spec_, kRateHigh, seconds, Rng(args_.seed).fork(31 + streams_).next());
    ++streams_;
    std::vector<serve::ServeRequest> batch;
    for (std::size_t k = 0; k < warm.size(); ++k) {
        batch.emplace_back();
        if (!serve::tryParseRequest(warm[k].line, batch.back()).empty())
            fatal("perfbench: warm-up request does not parse");
        if (batch.size() == kBatchCap || k + 1 == warm.size()) {
            for (const serve::ServeResponse &r : service.processBatch(batch)) {
                serve_errors_ += r.ok ? 0 : 1;
                failed_ += r.ok ? 0 : 1;
            }
            batch.clear();
        }
    }
    attempted_ += warm.size();
}

StreamStats
Bench::serveStream(serve::PredictionService &service, double rate,
                   double seconds, std::uint64_t seed)
{
    const std::vector<TimedRequest> stream =
        makeRequestStream(spec_, rate, seconds, seed);
    StreamStats st = driveStream(service, stream, seed ^ 0xc0ffeeULL);
    ++streams_;
    attempted_ += st.attempted;
    failed_ += st.failed;
    serve_errors_ += st.failed;
    serve_checked_ += st.checked;
    checks_.expect(st.mismatches == 0,
                   "serve_open: " + std::to_string(st.mismatches) + " of "
                       + std::to_string(st.checked)
                       + " sampled responses differ from a cold predictMs "
                         "call at "
                       + fmt(rate) + " req/s");
    if (!st.first_error.empty())
        std::printf("  first failed response at %.0f req/s: %s\n", rate,
                    st.first_error.c_str());
    return st;
}

void
Bench::sampleNamedRates(bool traced)
{
    const PoolScope pool(kServePool, args_.pool);
    warmUp(*service_, kRewarmSeconds);
    TraceScope scope(traced);
    double busy_us = 0.0;
    std::uint64_t requests = 0;
    const struct { double rate; const char *label; } named[] = {
        {kRateLow, "low"}, {kRateMid, "mid"}, {kRateHigh, "high"}};
    for (const auto &r : named) {
        const serve::ShardedLruCache::Stats before = service_->cache().stats();
        const StreamStats st = serveStream(
            *service_, r.rate, static_cast<double>(kBlockSamples) / r.rate,
            Rng(args_.seed).fork(1000 + streams_).next());
        const serve::ShardedLruCache::Stats after = service_->cache().stats();
        for (double us : st.trace.batch_us)
            busy_us += us;
        requests += st.attempted;
        // A traced sample feeds only the tracing overhead: its latencies
        // carry the obs layer's cost.
        if (traced)
            continue;

        named_latency_ms_[r.label].push_back(st.latency_ms);
        CacheTally &c = named_cache_[r.label];
        c.attempted += st.attempted;
        c.failed += st.failed;
        c.lookups +=
            (after.hits + after.misses) - (before.hits + before.misses);
        c.hits += after.hits - before.hits;
        c.coalesced += after.coalesced - before.coalesced;
        c.evictions += after.evictions - before.evictions;
        serve_parse_s_ += st.parse_s;
        serve_render_s_ += st.render_s;
        for (int k = 0; k < kMixKinds; ++k)
            single_us_[k].insert(single_us_[k].end(), st.single_us[k].begin(),
                                 st.single_us[k].end());
        serve_requests_ += st.attempted;
        if (r.rate == kRateHigh) {
            const OpenLoopTrace &t = st.trace;
            const auto append = [](std::vector<double> &to,
                                   const std::vector<double> &from) {
                to.insert(to.end(), from.begin(), from.end());
            };
            append(high_.batch_us, t.batch_us);
            append(high_.batch_sizes, t.batch_sizes);
            append(high_.queue_wait_ms, t.queue_wait_ms);
            append(high_.gen_lateness_ms, t.gen_lateness_ms);
        }
    }
    ++samples_;
    // The serve stage's work measure is busy time per request at the
    // named rates: a ladder's wall time is fixed by its schedule.
    const double busy_per_request = busy_us / static_cast<double>(requests);
    work(Stage::Serve, traced, busy_per_request);
    if (!traced)
        ++untraced_samples_;
}

void
Bench::serveLadder(bool traced)
{
    const PoolScope pool(kServePool, args_.pool);
    warmUp(*ladder_service_, kRewarmSeconds);
    TraceScope scope(traced);
    // Climb the fixed ladder from two rungs below the highest that has
    // met the limit so far, one short probe per rung, until a probe
    // misses. Every probe's latencies pool into its rung, and
    // serve_max_rate is read from the pooled rungs at the end of the
    // run, so it rests on every ladder of the run, not on the last.
    // A traced ladder climbs the same way but pools nothing.
    const std::size_t best = ladderBest();
    std::size_t k = best >= 2 ? best - 2 : 0;
    for (; k < ladder_.size(); ++k) {
        Rung &rung = ladder_[k];
        const StreamStats st =
            serveStream(*ladder_service_, rung.rate, kProbeSeconds,
                        Rng(args_.seed).fork(5000 + streams_).next());
        if (!traced) {
            rung.probes.push_back(st.latency_ms);
            rung.backlogs += st.backlog ? 1 : 0;
            rung.attempted += st.attempted;
            rung.failed += st.failed;
        }
        std::printf("  probe %8.0f req/s: p99 %.4f ms%s\n", rung.rate,
                    percentile(st.latency_ms, 99.0),
                    st.backlog ? ", backlog growing" : "");
        if (!st.meets)
            break;
    }
}

std::vector<RungPool>
Bench::pooledLadder() const
{
    std::vector<RungPool> pooled;
    for (const Rung &r : ladder_) {
        if (r.probes.empty())
            break;
        pooled.push_back({r.rate, medianBlockP99(r.probes),
                          2 * r.backlogs > r.probes.size(),
                          static_cast<double>(r.probes.size())});
    }
    return pooled;
}

std::size_t
Bench::ladderBest() const
{
    const double rate = maxRateMeeting(pooledLadder(), kP99LimitMs);
    std::size_t k = 0;
    while (k + 1 < ladder_.size() && ladder_[k + 1].rate <= rate)
        ++k;
    return k;
}

void
Bench::searchRun(bool traced, std::size_t rep)
{
    TraceScope scope(traced);
    serve::PredictionService service(registry_, table_);
    search::SearchConfig cfg;
    std::vector<std::string> names = spec_.devices;
    Rng(kSearchDeviceSeed).shuffle(names);
    names.resize(kSearchDevices);
    cfg.devices = names;
    cfg.seed = subSeed(Stage::Search, rep);
    cfg.population = kSearchPopulation;
    cfg.generations = kSearchGenerations;
    cfg.elite = 4;
    // Budget: MobileNetV2's predicted latency on the slowest of the
    // devices, so the front sits in a realistic range.
    const core::SignatureCostModel &model =
        registry_.active().snapshot->costModel();
    const dnn::Graph mbv2 =
        dnn::quantize(dnn::buildZooModel("mobilenet_v2_1.0"));
    for (const auto &name : names)
        cfg.budget_ms = std::max(cfg.budget_ms,
                                 model.predictMs(mbv2, table_.at(name)));

    search::SearchResult result;
    const double run_s = timed([&] {
        result = search::ArchitectureSearch(service, cfg).run();
    });
    const std::string report = search::renderSearchReport(cfg, result);
    attempted_ += 1;
    work(Stage::Search, traced, run_s);

    const auto [known, fresh] = search_reports_.emplace(cfg.seed, report);
    if (fresh && !traced) {
        e2e_.add("search_cands_per_s",
                 static_cast<double>(result.candidates_evaluated) / run_s);
    }
    layer_.add("search.run_ms", run_s * 1e3);
    layer_.add("search.candidates",
               static_cast<double>(result.candidates_evaluated));
    layer_.add("search.rejected",
               static_cast<double>(result.candidates_rejected));
    layer_.add("search.front_size", static_cast<double>(result.front.size()));
    layer_.add("search.cache_hit_rate", result.cache.hitRate());
    layer_.add("search.cache_effective_hit_rate",
               result.cache.effectiveHitRate());
    if (traced) {
        const json::Value doc = scope.report();
        layer_.add("search.serve_batch_ms", spanTotalMs(doc, "serve.batch"));
        // The serve stage runs on one thread (kServePool), so on
        // serve_open the pool counters come from the search, whose
        // candidates are priced through the same service code.
        if (focus_ == Stage::Serve)
            poolMetrics(doc);
    }

    checks_.expect(result.candidates_evaluated + result.candidates_rejected
                       == kSearchPopulation * kSearchGenerations,
                   "nas_search: evaluated + rejected == population x "
                   "generations");
    checks_.expect(!result.front.empty(), "nas_search: non-empty front");
    if (!fresh) {
        checks_.expect(known->second == report,
                       "nas_search: gcm-search/v1 report identical across "
                       "repetitions of seed "
                           + std::to_string(cfg.seed));
        return;
    }
    std::printf("search seed %llu: %zu devices, budget %.3f ms, %llu "
                "candidates, %llu rejected, front %zu, cache effective hit "
                "rate %.3f\n",
                static_cast<unsigned long long>(cfg.seed), cfg.devices.size(),
                cfg.budget_ms,
                static_cast<unsigned long long>(result.candidates_evaluated),
                static_cast<unsigned long long>(result.candidates_rejected),
                result.front.size(), result.cache.effectiveHitRate());
}

void
Bench::fleetRun(bool traced, std::size_t rep)
{
    const fleet::FleetLoopConfig cfg =
        fleetConfig(subSeed(Stage::Fleet, rep));
    std::unique_ptr<fleet::FleetController> controller =
        std::move(setup_.fleet_ready);
    if (!controller) {
        layer_.add("fleet.construct_ms", 1e3 * timed([&] {
                       controller =
                           std::make_unique<fleet::FleetController>(cfg);
                   }));
    }
    TraceScope scope(traced);
    fleet::FleetResult result;
    const double run_s = timed([&] { result = controller->run(); });
    const std::string report = fleet::renderFleetReport(cfg, result);
    attempted_ += 1;
    work(Stage::Fleet, traced, run_s);

    std::size_t offered = 0;
    for (const auto &r : result.rounds)
        offered += r.serve.offered;
    // Holdout R^2 of whichever version the canary gate left active.
    double final_r2 = std::numeric_limits<double>::quiet_NaN();
    for (const auto &r : result.retrains) {
        if (r.decision == fleet::CanaryDecision::Bootstrap
            || r.decision == fleet::CanaryDecision::Published)
            final_r2 = r.candidate_r2;
    }

    const auto [known, fresh] =
        fleet_reports_.emplace(cfg.fleet.seed, report);
    if (fresh && !traced)
        e2e_.add("fleet_run_s", run_s);
    layer_.add("fleet.run_ms", run_s * 1e3);
    layer_.add("fleet.publishes", static_cast<double>(result.publishes));
    layer_.add("fleet.rollbacks", static_cast<double>(result.rollbacks));
    layer_.add("fleet.served", static_cast<double>(result.served_total));
    layer_.add("fleet.shed", static_cast<double>(result.shed_total));
    if (traced) {
        const json::Value doc = scope.report();
        layer_.add("fleet.gbt_train_ms", spanTotalMs(doc, "gbt.train"));
        layer_.add("fleet.tree_histogram_ms",
                   spanTotalMs(doc, "tree.histogram"));
        layer_.add("fleet.tree_split_ms", spanTotalMs(doc, "tree.split"));
        layer_.add("fleet.campaign_ms", spanTotalMs(doc, "campaign.run"));
        layer_.add("fleet.frontend_ms",
                   spanTotalMs(doc, "serve.frontend.run"));
    }

    checks_.expect(result.publishes + result.rollbacks + result.skipped
                       == result.retrains.size(),
                   "fleet_loop: publishes + rollbacks + skipped == retrains");
    checks_.expect(result.served_total + result.shed_total == offered,
                   "fleet_loop: served + shed == offered");
    checks_.expect(result.publishes > 0 && std::isfinite(final_r2),
                   "fleet_loop: a model was published with a finite R^2");
    if (!fresh) {
        checks_.expect(known->second == report,
                       "fleet_loop: gcm-fleet/v1 report identical across "
                       "repetitions of fleet seed "
                           + std::to_string(cfg.fleet.seed));
        return;
    }
    // One R^2 per fleet config: it is deterministic.
    if (configOf(rep) < kFleetR2Configs)
        e2e_.add("fleet_final_r2", final_r2);
    std::printf("fleet seed %llu: %zu retrains (%zu published, %zu rolled "
                "back, %zu skipped), served %zu, shed %zu, final R^2 %.6f\n",
                static_cast<unsigned long long>(cfg.fleet.seed),
                result.retrains.size(), result.publishes, result.rollbacks,
                result.skipped, result.served_total, result.shed_total,
                final_r2);
}

void
Bench::runStage(Stage s, bool traced, std::size_t rep)
{
    switch (s) {
      case Stage::Eval: evalPass(traced); break;
      case Stage::Serve: serveLadder(traced); break;
      case Stage::Search: searchRun(traced, rep); break;
      case Stage::Fleet: fleetRun(traced, rep); break;
    }
}

void
Bench::run()
{
    if (args_.workload == "paper_eval")
        focus_ = Stage::Eval;
    else if (args_.workload == "serve_open")
        focus_ = Stage::Serve;
    else
        fatal("unknown workload '", args_.workload,
              "' (paper_eval|serve_open)");
    setThreads(args_.pool);
    for (std::size_t k = 0; k < kLadderRungs; ++k)
        ladder_.push_back(
            {kRateHigh * std::pow(kLadderStep, static_cast<double>(k)), {},
             0});

    setUp(false);
    setup_ = setUp(true);
    const Clock::time_point start = Clock::now();

    // Stages interleave over the whole run. Evaluation runs first: it
    // trains the served model. After that the next repetition goes to
    // the stage furthest behind its share of the time (the workload's
    // own stage kFocusShare, the others an equal part of the rest),
    // until the time is up and every stage has its minimum
    // repetitions; a set-up and a latency sample of the named rates
    // run every few seconds in between, the sample counting as serve
    // time. With tracing the first
    // repetition of each stage is traced, and the workload's own stage
    // (for serve_open, its latency samples) alternates traced and
    // untraced: their difference is the tracing overhead.
    std::map<Stage, double> spent;
    std::map<Stage, std::size_t> reps;
    const Stage stages[] = {Stage::Eval, Stage::Serve, Stage::Fleet,
                            Stage::Search};
    const auto share = [&](Stage s) {
        return s == focus_ ? kFocusShare : (1.0 - kFocusShare) / 3.0;
    };
    const auto minimum = [&](Stage s) {
        return s == focus_ ? kMinFocusReps : minReps(s);
    };
    const double every =
        focus_ == Stage::Serve ? kSampleEveryServe : kSampleEvery;
    double last_sample = -every;
    const auto maybeSample = [&] {
        if (service_ && secondsSince(start) - last_sample >= every) {
            last_sample = secondsSince(start);
            setUp(true);
            spent[Stage::Serve] += timed([&] {
                sampleNamedRates(args_.trace && focus_ == Stage::Serve
                                 && samples_ % 2 == 1);
            });
        }
    };
    for (std::optional<Stage> next = Stage::Eval; next;) {
        const Stage s = *next;
        const bool traced =
            args_.trace
            && (reps[s] == 0 || (s == focus_ && reps[s] % 2 == 0));
        const double took = timed([&] { runStage(s, traced, reps[s]); });
        spent[s] += took;
        ++reps[s];
        std::printf("%s repetition %zu%s: %.3f s\n", stageName(s), reps[s],
                    traced ? " (traced)" : "", took);
        maybeSample();

        const bool time_up = secondsSince(start) >= args_.seconds;
        next.reset();
        for (Stage c : stages) {
            if (time_up && reps[c] >= minimum(c))
                continue;
            if (!next || spent[c] / share(c) < spent[*next] / share(*next))
                next = c;
        }
    }
    while (untraced_samples_ < kMinSamples)
        sampleNamedRates(args_.trace && focus_ == Stage::Serve
                         && samples_ % 2 == 1);
    while (setups_ < kSetups)
        setUp(true);

    summarizeServing();
    for (Stage s : stages) {
        const TailSummary ts = summarize(work_plain_[s]);
        std::printf("%s: %zu untraced repetitions, median %.4g %s, p%.4g "
                    "%.4g\n",
                    stageName(s), ts.count, ts.median,
                    s == Stage::Serve ? "us busy per request" : "s",
                    ts.tail_percentile, ts.tail);
    }
    std::printf("%s: %zu latency samples, %.2f s\n", args_.workload.c_str(),
                samples_, secondsSince(start));
}

void
Bench::summarizeServing()
{
    // Per named rate: p50 of every sample, p99 as the median over blocks
    // of >= kBlockSamples requests, so one VM stall does not decide it.
    for (const auto &[label, streams] : named_latency_ms_) {
        std::vector<double> all;
        for (const std::vector<double> &s : streams)
            all.insert(all.end(), s.begin(), s.end());
        const double p99 = medianBlockP99(streams);
        checks_.expect(std::isfinite(p99),
                       "serve_open: enough requests for >= 10 beyond the "
                       "p99 at "
                           + label);
        const TailSummary ts = summarize(all);
        e2e_.add("serve_p50_ms." + label, ts.median);
        e2e_.add("serve_p99_ms." + label, p99);
        const CacheTally &c = named_cache_[label];
        const double lookups = static_cast<double>(c.lookups);
        layer_.add("serve.cache_hit_rate." + label,
                   static_cast<double>(c.hits) / lookups);
        layer_.add("serve.cache_effective_hit_rate." + label,
                   static_cast<double>(c.hits + c.coalesced) / lookups);
        layer_.add("serve.cache_evictions." + label,
                   static_cast<double>(c.evictions));
        if (label == "high")
            layer_.add("serve.latency_samples",
                       static_cast<double>(all.size()));
        std::printf("serve %-4s: p50 %.4f ms, p%.4g %.4f ms over all %zu "
                    "requests; median block p99 %.4f ms over %zu samples; "
                    "%llu attempted, %llu ok, %llu failed\n",
                    label.c_str(), ts.median, ts.tail_percentile, ts.tail,
                    ts.count, p99, streams.size(),
                    static_cast<unsigned long long>(c.attempted),
                    static_cast<unsigned long long>(c.attempted - c.failed),
                    static_cast<unsigned long long>(c.failed));
    }
    checks_.expect(serve_checked_ > 0, "serve_open: responses were checked");

    // serve_busy_us: the mix's busy time per request, each kind's
    // share times the median busy time of its requests that were
    // served alone. Medians over every such request of the run, so a
    // burst of load from elsewhere on the host that slows some samples
    // does not decide it, and exact shares, so the seed does not.
    double busy_us = 0.0;
    const char *kind_names[] = {"named", "raw signature", "inline graph"};
    for (int k = 0; k < kMixKinds; ++k) {
        checks_.expect(single_us_[k].size() >= kTailSamples,
                       std::string("serve_open: enough lone ")
                           + kind_names[k] + " requests for serve_busy_us");
        const double med = median(single_us_[k]);
        busy_us += mixShare(static_cast<MixKind>(k)) * med;
        std::printf("serve busy: %s requests %.3f us (median of %zu)\n",
                    kind_names[k], med, single_us_[k].size());
    }
    e2e_.add("serve_busy_us", busy_us);

    const std::vector<RungPool> pooled = pooledLadder();
    for (std::size_t k = 0; k < pooled.size(); ++k) {
        const RungPool &r = pooled[k];
        std::printf("serve ladder %8.0f req/s: p99 %.4f ms over %zu "
                    "probes; %zu attempted, %zu ok, %zu failed%s\n",
                    r.rate, r.p99_ms, ladder_[k].probes.size(),
                    ladder_[k].attempted,
                    ladder_[k].attempted - ladder_[k].failed,
                    ladder_[k].failed, r.backlog ? ", backlog growing" : "");
    }
    const double max_rate = maxRateMeeting(pooled, kP99LimitMs);
    checks_.expect(max_rate > 0.0, "serve_open: the ladder's first rung, "
                                   + fmt(kRateHigh)
                                   + " req/s, meets the p99 limit");
    e2e_.add("serve_max_rate", max_rate);
    std::printf("serve: highest rate meeting p99 <= %.3g ms with no growing "
                "backlog: %.0f req/s\n",
                kP99LimitMs, max_rate);

    const double requests = static_cast<double>(serve_requests_);
    layer_.add("serve.parse_us", serve_parse_s_ * 1e6 / requests);
    layer_.add("serve.render_us", serve_render_s_ * 1e6 / requests);
    layer_.add("serve.errors", static_cast<double>(serve_errors_));
    double sizes = 0.0;
    for (double v : high_.batch_sizes)
        sizes += v;
    layer_.add("serve.batch_size_mean",
               sizes / static_cast<double>(high_.batch_sizes.size()));
    layer_.add("serve.batch_us.p50", median(high_.batch_us));
    layer_.add("serve.batch_us.p99", percentile(high_.batch_us, 99.0));
    layer_.add("serve.queue_wait_us.p50", 1e3 * median(high_.queue_wait_ms));
    layer_.add("serve.queue_wait_us.p99",
               1e3 * percentile(high_.queue_wait_ms, 99.0));
    layer_.add("serve.gen_lateness_us",
               1e3 * percentile(high_.gen_lateness_ms, 99.0));
}

void
Bench::printResult() const
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::string e2e = "{\"peak_rss_mb\": " + fmt(peak_rss_mb);
    for (const char *name :
         {"setup_s", "eval_pass_s", "r2_holdout", "fleet_run_s",
          "fleet_final_r2", "serve_busy_us", "serve_p50_ms.low",
          "serve_p50_ms.mid", "serve_p50_ms.high", "serve_p99_ms.low", "serve_p99_ms.mid",
          "serve_p99_ms.high", "serve_max_rate", "search_cands_per_s"}) {
        if (e2e_.has(name))
            e2e += std::string(", \"") + name + "\": " + fmt(e2e_.med(name));
    }
    e2e += "}";

    std::string layer = "{";
    const auto put = [&](const std::string &name, double v) {
        layer += (layer.size() > 1 ? ", \"" : "\"") + name + "\": " + fmt(v);
    };
    for (const char *name :
         {"core.context_build_ms", "core.compile_ms", "core.select_ms",
          "core.train_ms", "core.predict_us_per_row", "ml.gbt_bin_ms",
          "ml.tree_histogram_ms", "ml.tree_split_ms", "serve.parse_us",
          "serve.render_us", "serve.batch_us.p50", "serve.batch_us.p99",
          "serve.batch_size_mean", "serve.queue_wait_us.p50",
          "serve.queue_wait_us.p99", "serve.gen_lateness_us",
          "serve.latency_samples", "serve.cache_hit_rate.low",
          "serve.cache_hit_rate.mid", "serve.cache_hit_rate.high",
          "serve.cache_effective_hit_rate.low",
          "serve.cache_effective_hit_rate.mid",
          "serve.cache_effective_hit_rate.high", "serve.cache_evictions.low",
          "serve.cache_evictions.mid", "serve.cache_evictions.high",
          "serve.errors", "search.run_ms", "search.candidates",
          "search.rejected", "search.front_size", "search.serve_batch_ms",
          "search.cache_hit_rate", "search.cache_effective_hit_rate",
          "fleet.construct_ms", "fleet.run_ms", "fleet.publishes",
          "fleet.rollbacks", "fleet.served", "fleet.shed",
          "fleet.gbt_train_ms", "fleet.tree_histogram_ms",
          "fleet.tree_split_ms", "fleet.campaign_ms", "fleet.frontend_ms",
          "util.pool_chunks", "util.pool_batches",
          "util.pool_queue_wait_ms"}) {
        if (layer_.has(name))
            put(name, layer_.med(name));
    }
    const auto plain = work_plain_.find(focus_);
    const auto traced = work_traced_.find(focus_);
    if (plain != work_plain_.end() && traced != work_traced_.end())
        put("obs.overhead_frac",
            median(traced->second) / median(plain->second) - 1.0);
    layer += "}";

    std::string failures = "[";
    for (std::size_t i = 0; i < checks_.failures().size(); ++i) {
        if (i)
            failures += ", ";
        json::appendJsonString(failures, checks_.failures()[i]);
    }
    failures += "]";

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"correct\": %s, \"checks\": %zu, \"check_failures\": %s, "
                "\"attempted\": %llu, \"failed\": %llu, \"pool\": %zu, "
                "\"serve_pool\": %zu, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"end_to_end\": %s, \"per_layer\": %s}\n",
                args_.workload.c_str(),
                static_cast<unsigned long long>(args_.seed),
                args_.trace ? 1 : 0, checks_.ok() ? "true" : "false",
                checks_.count(), failures.c_str(),
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), numThreads(),
                kServePool, GCM_PERFBENCH_BUILD_TYPE, GCM_PERFBENCH_COMPILER,
                e2e.c_str(), layer.c_str());
}

Args
parseArgs(int argc, char **argv)
{
    if (argc % 2 == 0)
        fatal("flags come in --name value pairs");
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = val == "1";
        else if (key == "--pool")
            a.pool = std::stoul(val);
        else
            fatal("unknown flag '", key, "'");
    }
    if (a.workload.empty() || a.pool == 0 || !(a.seconds > 0.0))
        fatal("--workload, a positive --seconds and --pool are required");
    return a;
}

} // namespace
} // namespace gcm::perfbench

int
main(int argc, char **argv)
{
    using namespace gcm::perfbench;
    try {
        Bench bench(parseArgs(argc, argv));
        bench.run();
        bench.printResult();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gcm_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}

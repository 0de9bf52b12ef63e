#include "serve/frontend.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <istream>
#include <limits>
#include <ostream>
#include <queue>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/obs.hh"
#include "serve/protocol.hh"
#include "util/error.hh"
#include "util/parallel.hh"

namespace gcm::serve
{

const char *
degradeModeName(DegradeMode mode)
{
    switch (mode) {
      case DegradeMode::Ladder: return "ladder";
      case DegradeMode::ShedOnly: return "shed";
    }
    return "?";
}

DegradeMode
parseDegradeMode(const std::string &name)
{
    if (name == "ladder")
        return DegradeMode::Ladder;
    if (name == "shed")
        return DegradeMode::ShedOnly;
    fatal("unknown degrade mode '", name, "' (want 'ladder' or 'shed')");
}

void
FrontEndConfig::validate() const
{
    if (batch_size == 0)
        fatal("FrontEndConfig: batch_size must be >= 1");
    if (queue_capacity < batch_size) {
        fatal("FrontEndConfig: queue_capacity (", queue_capacity,
              ") must be >= batch_size (", batch_size, ")");
    }
    if (soft_watermark > hard_watermark) {
        fatal("FrontEndConfig: soft_watermark (", soft_watermark,
              ") must be <= hard_watermark (", hard_watermark, ")");
    }
    if (hard_watermark > queue_capacity) {
        fatal("FrontEndConfig: hard_watermark (", hard_watermark,
              ") must be <= queue_capacity (", queue_capacity, ")");
    }
    if (!(full_cost_ms > 0.0) || !(stale_cost_ms > 0.0)
        || !(analytical_cost_ms > 0.0)) {
        fatal("FrontEndConfig: per-tier service costs must be > 0");
    }
    if (!(batch_overhead_ms >= 0.0))
        fatal("FrontEndConfig: batch_overhead_ms must be >= 0");
}

namespace
{

/** Nearest-rank percentile of an unsorted sample (copied). */
double
percentile(std::vector<double> sample, double p)
{
    if (sample.empty())
        return 0.0;
    std::sort(sample.begin(), sample.end());
    const double rank = p / 100.0 * static_cast<double>(sample.size());
    std::size_t idx = rank <= 1.0
                          ? 0
                          : static_cast<std::size_t>(std::ceil(rank)) - 1;
    if (idx >= sample.size())
        idx = sample.size() - 1;
    return sample[idx];
}

} // namespace

std::string
FrontEndReport::summary() const
{
    std::ostringstream os;
    os.precision(1);
    os << std::fixed;
    os << "frontend: " << offered << " offered, " << served()
       << " served (" << ok << " ok, " << errors << " errors), "
       << tier_shed << " shed over " << sim_duration_ms
       << " simulated ms on " << workers << " worker(s)\n";
    os << "  goodput " << goodput_qps
       << " req/s, shed-rate " << (100.0 * shed_rate)
       << "%, utilization " << (100.0 * utilization) << "%\n";
    os << "  tiers: full " << tier_full << " / stale " << tier_stale
       << " / analytical " << tier_analytical << " / shed "
       << tier_shed << "\n";
    os << "  queue peaks: interactive " << peak_queue_interactive
       << ", bulk " << peak_queue_bulk << "\n";
    os << "  sim sojourn p50 " << sojourn_p50_ms << " ms, p95 "
       << sojourn_p95_ms << " ms, p99 " << sojourn_p99_ms << " ms";
    return os.str();
}

ServerFrontEnd::ServerFrontEnd(const ModelRegistry &registry,
                               PredictionService::DeviceTable device_table,
                               FrontEndConfig config)
    : registry_(registry), config_(config),
      workers_(config.workers != 0 ? config.workers : numThreads()),
      cache_(std::make_shared<ShardedLruCache>(
          config.service.cache_capacity, config.service.cache_shards))
{
    config_.validate();
    if (workers_ == 0)
        workers_ = 1;
    services_.reserve(workers_);
    estimators_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        services_.push_back(std::make_unique<PredictionService>(
            registry_, device_table, config_.service, cache_));
    }
    // The estimators validate device names against worker 0's table
    // (all copies are identical); the table outlives them.
    for (std::size_t w = 0; w < workers_; ++w) {
        estimators_.push_back(std::make_unique<AnalyticalEstimator>(
            &services_.front()->deviceTable()));
    }
}

const PredictionService::DeviceTable &
ServerFrontEnd::deviceTable() const
{
    return services_.front()->deviceTable();
}

double
ServerFrontEnd::capacityQps() const
{
    const double per_request =
        config_.full_cost_ms
        + config_.batch_overhead_ms
              / static_cast<double>(config_.batch_size);
    return static_cast<double>(workers_) * 1000.0 / per_request;
}

std::size_t
ServerFrontEnd::closedWindow() const
{
    // A class queue holds at most window - 1 requests when the next
    // one is admitted, and the first degrading rung starts at this
    // depth.
    const std::size_t first_degrading =
        config_.degrade == DegradeMode::Ladder ? config_.soft_watermark
                                               : config_.queue_capacity;
    return std::max<std::size_t>(
        1, std::min(workers_ * config_.batch_size, first_degrading));
}

FrontEndReport
ServerFrontEnd::run(const std::vector<Arrival> &arrivals,
                    std::vector<std::string> *responses_out,
                    std::size_t window)
{
    const obs::TraceSpan span("serve.frontend.run");
    const std::size_t n = arrivals.size();
    for (std::size_t i = 1; i < n; ++i) {
        if (arrivals[i].time_ms < arrivals[i - 1].time_ms)
            fatal("ServerFrontEnd::run: arrivals must be sorted by "
                  "time_ms");
    }

    // Pin both rungs' snapshots for the whole run. Holding the
    // shared_ptrs is the rollback/retire safety: the registry can
    // evict either version mid-run without freeing it under us.
    const ModelRegistry::ActiveModel active = registry_.active();
    const ModelRegistry::ActiveModel previous =
        registry_.previousModel();
    const auto servable = [](const ModelRegistry::ActiveModel &m) {
        return static_cast<bool>(m)
               && m.snapshot->kind() == SnapshotKind::CostModel;
    };
    const bool active_servable = servable(active);
    const bool prev_servable = servable(previous);

    // ------------------------------------------------------------------
    // Phase 1 — plan (serial, simulated clock). A discrete-event walk
    // over the arrival stream decides, deterministically: each
    // request's tier, which worker serves it in which batch, and all
    // simulated timings. No payload is computed here.
    // ------------------------------------------------------------------
    struct Item
    {
        ServeRequest request;
        std::string parse_error;
        ServeTier tier = ServeTier::Full;
        bool shed = false;
        /** Written by exactly one worker in the execute phase. */
        bool ok = false;
        double arrival_ms = 0.0;
        /** Simulated completion; infinite until dispatched or shed. */
        double done_ms = std::numeric_limits<double>::infinity();
    };
    struct Batch
    {
        std::size_t worker = 0;
        std::vector<std::size_t> items;
    };
    std::vector<Item> items(n);
    std::vector<std::vector<Batch>> worker_batches(workers_);
    std::vector<std::string> rendered(n);

    std::size_t peaks[2] = {0, 0}; // [Priority]
    double busy_total = 0.0;
    FrontEndReport report;
    report.workers = workers_;
    report.offered = n;
    {
        const obs::TraceSpan plan_span("serve.frontend.plan");
        std::deque<std::size_t> queues[2]; // [Priority]
        // Idle workers in id order: lowest id claims the next batch, so
        // the plan does not depend on completion-event heap internals.
        std::vector<bool> idle(workers_, true);
        std::size_t idle_count = workers_;
        using Completion = std::pair<double, std::size_t>; // (time, worker)
        std::priority_queue<Completion, std::vector<Completion>,
                            std::greater<Completion>>
            completions;

        const auto tier_cost = [&](ServeTier t) {
            switch (t) {
              case ServeTier::Full: return config_.full_cost_ms;
              case ServeTier::Stale: return config_.stale_cost_ms;
              default: return config_.analytical_cost_ms;
            }
        };
        const auto ladder = [&](std::size_t depth) {
            ServeTier t = ServeTier::Full;
            if (config_.degrade == DegradeMode::Ladder) {
                if (depth >= config_.hard_watermark)
                    t = ServeTier::Analytical;
                else if (depth >= config_.soft_watermark)
                    t = ServeTier::Stale;
                // Availability: a mid-swap registry (active changed after
                // the run pinned it) caps Full at Stale; a missing
                // previous version escalates Stale to Analytical.
                if (t == ServeTier::Full
                    && (!active_servable
                        || registry_.activeVersion() != active.version))
                    t = ServeTier::Stale;
                if (t == ServeTier::Stale && !prev_servable)
                    t = ServeTier::Analytical;
            }
            return t;
        };
        const auto dispatch = [&](double now) {
            while (idle_count > 0) {
                std::deque<std::size_t> *q = nullptr;
                if (!queues[0].empty())
                    q = &queues[0]; // interactive always drains first
                else if (!queues[1].empty())
                    q = &queues[1];
                else
                    break;
                std::size_t w = 0;
                while (!idle[w])
                    ++w;
                idle[w] = false;
                --idle_count;
                Batch b;
                b.worker = w;
                double cost = config_.batch_overhead_ms;
                const std::size_t take =
                    std::min(config_.batch_size, q->size());
                b.items.reserve(take);
                for (std::size_t k = 0; k < take; ++k) {
                    const std::size_t idx = q->front();
                    q->pop_front();
                    cost += tier_cost(items[idx].tier);
                    b.items.push_back(idx);
                }
                const double done = now + cost;
                busy_total += cost;
                for (const std::size_t idx : b.items)
                    items[idx].done_ms = done;
                completions.emplace(done, w);
                worker_batches[w].push_back(std::move(b));
            }
        };

        // When request i can be admitted, given the clock. Closed loop
        // waits for request i-W to complete (its done_ms stays infinite
        // while it is queued) and keeps admissions in request order.
        const auto admit_time = [&](std::size_t i, double now) {
            if (i >= n)
                return std::numeric_limits<double>::infinity();
            if (window == 0 || i < window)
                return arrivals[i].time_ms;
            return std::max(
                {arrivals[i].time_ms, items[i - window].done_ms, now});
        };

        std::size_t next = 0;
        double clock = 0.0;
        while (next < n || !completions.empty()) {
            const double ta = admit_time(next, clock);
            // Open loop completes a batch before a same-instant arrival.
            // Closed loop admits first: the requests released by a batch
            // join the queue before that worker picks its next batch.
            const bool complete_first =
                !completions.empty()
                && (window == 0 ? completions.top().first <= ta
                                : completions.top().first < ta);
            if (complete_first) {
                const auto [t, w] = completions.top();
                completions.pop();
                clock = t;
                idle[w] = true;
                ++idle_count;
                dispatch(clock);
                continue;
            }
            // Admit the next arrival. A queued gate implies a busy worker,
            // so its completion is pending and ta is finite here.
            GCM_ASSERT(ta < std::numeric_limits<double>::infinity(),
                       "closed-loop gate was never dispatched");
            const std::size_t i = next++;
            clock = ta;
            Item &item = items[i];
            item.arrival_ms = ta;
            item.parse_error =
                tryParseRequest(arrivals[i].line, item.request);
            const std::size_t cls =
                item.request.priority == Priority::Bulk ? 1 : 0;
            const std::size_t depth = queues[cls].size();
            if (depth >= config_.queue_capacity) {
                item.shed = true;
                item.tier = ServeTier::Shed;
                item.done_ms = ta;
                ServeResponse r = ServeResponse::failure(
                    item.request.id, ServeErrorCode::Overloaded,
                    std::string("admission queue full (")
                        + priorityName(item.request.priority) + ")");
                r.tier = ServeTier::Shed;
                r.queue_depth = depth;
                r.retry_after_ms = static_cast<double>(depth)
                                   * config_.full_cost_ms
                                   / static_cast<double>(workers_);
                rendered[i] = renderResponse(r);
            } else {
                item.tier = ladder(depth);
                queues[cls].push_back(i);
                peaks[cls] = std::max(peaks[cls], queues[cls].size());
            }
            // Closed loop admits every request ready at this instant
            // before dispatching, so batches are not cut short.
            if (window == 0 || admit_time(next, clock) > clock)
                dispatch(clock);
        }
        report.sim_duration_ms = clock;
        report.peak_queue_interactive = peaks[0];
        report.peak_queue_bulk = peaks[1];
    }

    // ------------------------------------------------------------------
    // Phase 2 — execute (parallel, real threads). Workers compute the
    // pre-decided (request, tier, pinned version) payloads into their
    // own pre-assigned response slots; payload content is a pure
    // function, so bytes match at any worker count.
    // ------------------------------------------------------------------
    std::vector<std::exception_ptr> failures(workers_);
    // Every worker's spans (serve.batch and below) nest under
    // serve.frontend.execute, on the caller's thread or a fresh one.
    void *execute_parent = nullptr;
    const auto work = [&](std::size_t w) noexcept {
        const obs::SpanParentScope obs_scope(execute_parent);
        try {
            PredictionService &svc = *services_[w];
            AnalyticalEstimator &est = *estimators_[w];
            std::vector<ServeRequest> reqs;
            std::vector<std::size_t> req_idx;
            for (const Batch &b : worker_batches[w]) {
                // Model-backed items of one tier are regrouped into
                // one processBatch call per (batch, tier).
                for (const ServeTier tier :
                     {ServeTier::Full, ServeTier::Stale}) {
                    reqs.clear();
                    req_idx.clear();
                    for (const std::size_t idx : b.items) {
                        Item &item = items[idx];
                        if (item.tier != tier
                            || !item.parse_error.empty())
                            continue;
                        reqs.push_back(item.request);
                        req_idx.push_back(idx);
                    }
                    if (reqs.empty())
                        continue;
                    std::vector<ServeResponse> served =
                        svc.processBatch(reqs,
                                         tier == ServeTier::Full
                                             ? active
                                             : previous);
                    for (std::size_t k = 0; k < served.size(); ++k) {
                        served[k].tier = tier;
                        items[req_idx[k]].ok = served[k].ok;
                        rendered[req_idx[k]] =
                            renderResponse(served[k]);
                    }
                }
                for (const std::size_t idx : b.items) {
                    Item &item = items[idx];
                    if (!item.parse_error.empty()) {
                        ServeResponse r = ServeResponse::failure(
                            item.request.id,
                            ServeErrorCode::BadRequest,
                            item.parse_error);
                        r.tier = item.tier;
                        rendered[idx] = renderResponse(r);
                    } else if (item.tier == ServeTier::Analytical) {
                        const ServeResponse r =
                            est.serve(item.request);
                        item.ok = r.ok;
                        rendered[idx] = renderResponse(r);
                    }
                }
            }
        } catch (...) {
            failures[w] = std::current_exception();
        }
    };
    {
        const obs::TraceSpan execute_span("serve.frontend.execute");
        execute_parent = obs::currentSpanHandle();
        std::vector<std::thread> threads;
        threads.reserve(workers_ > 0 ? workers_ - 1 : 0);
        for (std::size_t w = 1; w < workers_; ++w)
            threads.emplace_back(work, w);
        work(0); // the caller is worker 0, PR-2 pool style
        for (std::thread &t : threads)
            t.join();
    }
    for (const std::exception_ptr &e : failures) {
        if (e)
            std::rethrow_exception(e);
    }

    std::vector<double> sojourns;
    sojourns.reserve(n);
    for (const Item &item : items) {
        switch (item.tier) {
          case ServeTier::Full: ++report.tier_full; break;
          case ServeTier::Stale: ++report.tier_stale; break;
          case ServeTier::Analytical:
            ++report.tier_analytical;
            break;
          case ServeTier::Shed: ++report.tier_shed; break;
        }
        if (item.shed)
            continue;
        sojourns.push_back(item.done_ms - item.arrival_ms);
        ++(item.ok ? report.ok : report.errors);
    }

    report.goodput_qps =
        report.sim_duration_ms > 0.0
            ? static_cast<double>(report.served()) * 1000.0
                  / report.sim_duration_ms
            : 0.0;
    report.shed_rate =
        n > 0 ? static_cast<double>(report.tier_shed)
                    / static_cast<double>(n)
              : 0.0;
    report.utilization =
        report.sim_duration_ms > 0.0
            ? busy_total
                  / (report.sim_duration_ms
                     * static_cast<double>(workers_))
            : 0.0;
    report.sojourn_p50_ms = percentile(sojourns, 50.0);
    report.sojourn_p95_ms = percentile(sojourns, 95.0);
    report.sojourn_p99_ms = percentile(sojourns, 99.0);
    report.cache = cache_->stats();

    obs::counterAdd("serve.frontend.offered", n);
    obs::counterAdd("serve.frontend.tier.full", report.tier_full);
    obs::counterAdd("serve.frontend.tier.stale", report.tier_stale);
    obs::counterAdd("serve.frontend.tier.analytical",
                    report.tier_analytical);
    obs::counterAdd("serve.frontend.tier.shed", report.tier_shed);
    obs::gaugeSet("serve.frontend.workers",
                  static_cast<double>(workers_));
    obs::gaugeSet("serve.frontend.queue.interactive.peak",
                  static_cast<double>(peaks[0]));
    obs::gaugeSet("serve.frontend.queue.bulk.peak",
                  static_cast<double>(peaks[1]));
    obs::gaugeSet("serve.frontend.utilization", report.utilization);
    if (obs::enabled()) {
        for (const double s : sojourns)
            obs::histogramObserve("serve.frontend.sojourn_ms", s);
    }

    if (responses_out != nullptr)
        *responses_out = std::move(rendered);
    return report;
}

std::size_t
runFrontEndLoop(ServerFrontEnd &frontend, std::istream &in,
                std::ostream &out, double arrival_qps)
{
    // Open loop times the whole stream at the fixed rate in one run.
    // Closed loop stamps every line 0 and lets the window pace it, so
    // it can serve the stream in runs: responses flow while the input
    // is still open and memory stays bounded. Each run starts and
    // joins its workers, hence runs of many windows (DESIGN.md §10).
    constexpr std::size_t kClosedRunLines = 1024;
    const bool open = arrival_qps > 0.0;
    const double step_ms = open ? 1000.0 / arrival_qps : 0.0;
    const std::size_t window = open ? 0 : frontend.closedWindow();
    const std::size_t chunk = open
                                  ? std::numeric_limits<std::size_t>::max()
                                  : std::max(window, kClosedRunLines);
    std::vector<Arrival> arrivals;
    std::vector<std::string> responses;
    std::string line;
    std::size_t consumed = 0;
    double t = 0.0;
    for (bool more = true; more;) {
        arrivals.clear();
        while (arrivals.size() < chunk
               && (more = static_cast<bool>(std::getline(in, line)))) {
            arrivals.push_back({t, std::move(line)});
            t += step_ms;
        }
        if (arrivals.empty())
            break;
        frontend.run(arrivals, &responses, window);
        for (const std::string &r : responses)
            out << r << '\n';
        out.flush();
        consumed += arrivals.size();
    }
    return consumed;
}

} // namespace gcm::serve

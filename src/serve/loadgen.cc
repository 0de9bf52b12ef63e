#include "serve/loadgen.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

#include "dnn/zoo.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace gcm::serve
{

LoadMix
parseLoadMix(const std::string &name)
{
    if (name == "duplicate")
        return LoadMix::DuplicateHeavy;
    if (name == "unique")
        return LoadMix::UniqueHeavy;
    fatal("loadgen: unknown mix '", name, "' (duplicate|unique)");
}

void
LoadGenConfig::validate() const
{
    if (requests == 0)
        fatal("loadgen: requests must be >= 1");
    if (burst == 0)
        fatal("loadgen: burst must be >= 1");
    if (pool_size == 0)
        fatal("loadgen: pool_size must be >= 1");
    if (target_qps < 0.0)
        fatal("loadgen: target_qps must be >= 0");
    if (offered_qps < 0.0)
        fatal("loadgen: offered_qps must be >= 0");
    if (bulk_fraction < 0.0 || bulk_fraction > 1.0)
        fatal("loadgen: bulk_fraction must be in [0, 1]");
}

namespace
{

/**
 * The request bodies of a run. Request i is tagged
 * `"priority": "bulk"` where bulk[i]; the flags are drawn from their
 * own forked stream by the caller, so the body byte stream for a
 * given (seed, mix) is identical with and without priority tagging.
 */
std::vector<std::string>
generateLines(Rng &rng, std::size_t sig_width,
              const std::vector<std::string> &device_names,
              const LoadGenConfig &config, const std::vector<bool> &bulk)
{
    const std::vector<std::string> &zoo = dnn::zooModelNames();
    std::vector<std::string> lines;
    lines.reserve(config.requests);
    const auto priorityTag = [&](std::size_t i) {
        return bulk[i] ? std::string(", \"priority\": \"bulk\"")
                       : std::string();
    };

    if (config.mix == LoadMix::DuplicateHeavy) {
        if (device_names.empty()) {
            fatal("loadgen: the duplicate-heavy mix needs a non-empty "
                  "device table");
        }
        // A fixed pool of (network, device) pairs, drawn with a
        // skewed weighting so a few pairs dominate — the typical NAS
        // search hammering one device with candidate re-queries.
        struct Pair
        {
            std::string network;
            std::string device;
        };
        std::vector<Pair> pool;
        std::vector<double> weights;
        pool.reserve(config.pool_size);
        for (std::size_t p = 0; p < config.pool_size; ++p) {
            pool.push_back(
                {zoo[static_cast<std::size_t>(rng.uniformInt(
                     0, static_cast<std::int64_t>(zoo.size()) - 1))],
                 device_names[static_cast<std::size_t>(rng.uniformInt(
                     0,
                     static_cast<std::int64_t>(device_names.size())
                         - 1))]});
            weights.push_back(1.0 / static_cast<double>(p + 1));
        }
        for (std::size_t i = 0; i < config.requests; ++i) {
            const Pair &pick = pool[rng.weightedIndex(weights)];
            std::string line = "{\"id\": ";
            json::appendJsonString(line, "q" + std::to_string(i));
            line += ", \"network\": ";
            json::appendJsonString(line, pick.network);
            line += ", \"device\": ";
            json::appendJsonString(line, pick.device);
            line += priorityTag(i) + "}";
            lines.push_back(std::move(line));
        }
        return lines;
    }

    // Unique-heavy: every request carries a fresh raw signature
    // vector, so no two requests can share a cache entry.
    std::ostringstream num;
    num.precision(std::numeric_limits<double>::max_digits10);
    for (std::size_t i = 0; i < config.requests; ++i) {
        const std::string &network =
            zoo[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(zoo.size()) - 1))];
        std::string line = "{\"id\": ";
        json::appendJsonString(line, "q" + std::to_string(i));
        line += ", \"network\": ";
        json::appendJsonString(line, network);
        line += ", \"signature\": [";
        for (std::size_t k = 0; k < sig_width; ++k) {
            num.str("");
            num << rng.uniform(0.5, 50.0);
            if (k)
                line += ", ";
            line += num.str();
        }
        line += "]" + priorityTag(i) + "}";
        lines.push_back(std::move(line));
    }
    return lines;
}

/** Device-name list of a table, in map (sorted) order. */
std::vector<std::string>
deviceNames(const PredictionService::DeviceTable &table)
{
    std::vector<std::string> names;
    names.reserve(table.size());
    for (const auto &[name, sig] : table)
        names.push_back(name);
    return names;
}

/** Signature width of the active snapshot. Throws when unservable. */
std::size_t
servableSignatureWidth(const ModelRegistry &registry)
{
    const auto active = registry.active();
    if (!active || active.snapshot->kind() != SnapshotKind::CostModel)
        fatal("loadgen: the registry has no active cost-model snapshot");
    return active.snapshot->costModel().signatureNames().size();
}

} // namespace

std::vector<Arrival>
generateArrivals(const ServerFrontEnd &frontend,
                 const LoadGenConfig &config)
{
    config.validate();
    const std::size_t sig_width =
        servableSignatureWidth(frontend.registry());
    const std::vector<std::string> names =
        deviceNames(frontend.deviceTable());

    // Independent forked streams so bodies, priorities and arrival
    // gaps never perturb each other's draws (and the body stream
    // stays comparable across bulk_fraction settings).
    const Rng base(config.seed);
    Rng body_rng = base.fork(1);
    Rng prio_rng = base.fork(2);
    Rng time_rng = base.fork(3);

    std::vector<bool> bulk(config.requests, false);
    if (config.bulk_fraction > 0.0) {
        for (std::size_t i = 0; i < config.requests; ++i)
            bulk[i] = prio_rng.uniform() < config.bulk_fraction;
    }
    std::vector<std::string> lines =
        generateLines(body_rng, sig_width, names, config, bulk);

    // Open loop: a Poisson process on the simulated clock, i.e.
    // exponential inter-arrival gaps with mean 1/offered_qps. Closed
    // loop: fixed spacing at target_qps, or all at t = 0 (the window
    // alone paces the run).
    std::vector<Arrival> arrivals;
    arrivals.reserve(lines.size());
    double t = 0.0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (config.openLoop()) {
            double u = time_rng.uniform();
            if (u >= 1.0)
                u = 0.5; // uniform() is [0,1); belt and braces
            t += -std::log(1.0 - u) / (config.offered_qps / 1000.0);
        } else if (config.target_qps > 0.0) {
            t = static_cast<double>(i) * 1000.0 / config.target_qps;
        }
        arrivals.push_back({t, std::move(lines[i])});
    }
    return arrivals;
}

LoadReport
runLoad(ServerFrontEnd &frontend, const LoadGenConfig &config,
        std::ostream *responses_out)
{
    const std::vector<Arrival> arrivals =
        generateArrivals(frontend, config);
    std::vector<std::string> responses;
    LoadReport report;
    report.window = config.openLoop() ? 0 : config.burst;
    report.offered_qps = config.offered_qps;
    report.capacity_qps = frontend.capacityQps();
    const auto t0 = std::chrono::steady_clock::now();
    report.frontend = frontend.run(
        arrivals, responses_out != nullptr ? &responses : nullptr,
        report.window);
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - t0;
    report.wall_ms = wall.count();
    if (responses_out != nullptr) {
        for (const std::string &r : responses)
            *responses_out << r << '\n';
        responses_out->flush();
    }
    return report;
}

std::string
LoadReport::summary() const
{
    char buf[512];
    if (window == 0) {
        std::snprintf(buf, sizeof(buf),
                      "open-loop: offered %.1f req/s (%.2fx capacity "
                      "%.1f req/s)\n",
                      offered_qps,
                      capacity_qps > 0.0 ? offered_qps / capacity_qps
                                         : 0.0,
                      capacity_qps);
    } else {
        std::snprintf(buf, sizeof(buf),
                      "closed-loop: window %zu, capacity %.1f req/s\n",
                      window, capacity_qps);
    }
    std::string out(buf);
    out += frontend.summary();
    const ShardedLruCache::Stats &cache = frontend.cache;
    std::snprintf(
        buf, sizeof(buf),
        "\n  wall %.1f ms, throughput %.0f req/s"
        "\n  cache: %llu hits, %llu misses, %llu evictions, "
        "%llu coalesced (hit rate %.1f%%, effective %.1f%%)",
        wall_ms,
        wall_ms > 0.0
            ? static_cast<double>(frontend.offered) * 1000.0 / wall_ms
            : 0.0,
        (unsigned long long)cache.hits,
        (unsigned long long)cache.misses,
        (unsigned long long)cache.evictions,
        (unsigned long long)cache.coalesced, cache.hitRate() * 100.0,
        cache.effectiveHitRate() * 100.0);
    out += buf;
    return out;
}

} // namespace gcm::serve

/**
 * @file
 * Seeded load generator for the serving engine (ServerFrontEnd).
 *
 * Synthesizes a deterministic gcm-serve/v1 request stream from a
 * seed and a mix profile, serves it through ServerFrontEnd::run and
 * reports the run on the simulated clock (goodput, tiers, sojourn
 * percentiles) plus wall time, throughput and the cache profile.
 *
 * Mixes:
 *  - DuplicateHeavy: requests are drawn (with a skewed weighting)
 *    from a small pool of (network, device) pairs, so the steady
 *    state is almost all cache hits — the serving fast path.
 *  - UniqueHeavy: every request perturbs its raw signature vector,
 *    so every key is new and the cold path runs end to end.
 * A bulk_fraction of the stream is tagged `"priority": "bulk"`.
 *
 * Arrivals:
 *  - Closed loop (offered_qps == 0): at most `burst` requests are
 *    outstanding; request i is admitted once request i-burst has
 *    completed on the simulated clock. target_qps > 0 spaces the
 *    nominal arrivals at that rate; 0 offers them back to back.
 *  - Open loop (offered_qps > 0): Poisson arrivals on the simulated
 *    clock that do not wait for responses, which is what makes
 *    overload regimes reachable at all.
 *
 * Determinism: arrival times, tier decisions, goodput, shed-rate,
 * per-tier fractions and the response stream are pure functions of
 * (seed, config, model, worker count). Wall time and the shared
 * cache's hit/miss/coalesce counters are not (frontend.hh).
 */

#ifndef GCM_SERVE_LOADGEN_HH
#define GCM_SERVE_LOADGEN_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/frontend.hh"

namespace gcm::serve
{

/** Request-mix profiles. */
enum class LoadMix
{
    DuplicateHeavy,
    UniqueHeavy,
};

/** Parse "duplicate" / "unique". Throws GcmError. */
LoadMix parseLoadMix(const std::string &name);

struct LoadGenConfig
{
    std::size_t requests = 2000;
    /** Closed loop: requests outstanding at once (the window). */
    std::size_t burst = 32;
    /** Closed loop: nominal arrival rate; 0 = back to back. */
    double target_qps = 0.0;
    std::uint64_t seed = 42;
    LoadMix mix = LoadMix::DuplicateHeavy;
    /** Distinct (network, device) pairs of the duplicate-heavy pool. */
    std::size_t pool_size = 16;
    /** Poisson offered load (simulated req/s); > 0 means open loop. */
    double offered_qps = 0.0;
    /** Fraction of requests tagged priority "bulk". */
    double bulk_fraction = 0.0;

    bool openLoop() const { return offered_qps > 0.0; }

    /** Throws GcmError on invalid parameters. */
    void validate() const;
};

/** What one load-generation run measured. */
struct LoadReport
{
    FrontEndReport frontend;
    /** Closed-loop window; 0 for an open-loop run. */
    std::size_t window = 0;
    /** Poisson offered load; 0 for a closed-loop run. */
    double offered_qps = 0.0;
    double capacity_qps = 0.0;
    /** Wall time of the serving run (plan + execute). */
    double wall_ms = 0.0;

    /** Human-readable multi-line summary. */
    std::string summary() const;
};

/**
 * Generate the deterministic timestamped arrival stream for a run:
 * request bodies from the mix, priority tags for a bulk_fraction of
 * them, and simulated arrival times (Poisson when open loop, fixed
 * spacing or all-zero when closed). Each part draws from its own
 * forked stream, so changing one never perturbs the others. Exposed
 * so tests can replay the exact stream.
 */
std::vector<Arrival> generateArrivals(const ServerFrontEnd &frontend,
                                      const LoadGenConfig &config);

/**
 * Run the generator against the front end. When `responses_out` is
 * non-null, every response line is written to it in request order
 * (shed rejections included, in position).
 */
LoadReport runLoad(ServerFrontEnd &frontend, const LoadGenConfig &config,
                   std::ostream *responses_out);

} // namespace gcm::serve

#endif // GCM_SERVE_LOADGEN_HH

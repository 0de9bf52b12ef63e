/**
 * @file
 * gcm-serve/v1 — line-delimited JSON serving protocol.
 *
 * Requests, one JSON object per line:
 *
 *   {"id": "r1", "network": "mobilenet_v2_1.0", "device": "Mi-9"}
 *   {"id": "r2", "graph": "gcm-graph v1\n...", "signature": [3.1, 8.2]}
 *
 * Fields: `id` (optional string, echoed back), exactly one of
 * `network` (zoo name) / `graph` (inline gcm-graph v1 document),
 * exactly one of `device` (device-table name) / `signature` (array of
 * finite positive numbers, in model signature order), and an optional
 * `priority` ("interactive", the default, or "bulk") consumed by the
 * multi-worker front end's per-class queues (frontend.hh).
 *
 * Responses, one JSON object per request line, in request order:
 *
 *   {"id": "r1", "ok": true, "latency_ms": 42.25, "model_version": 1}
 *   {"id": "r2", "ok": false, "error": {"code": "bad_request",
 *    "message": "..."}}
 *
 * Degradation tags (version-gated: the field is *absent* for tier
 * "full", so pre-ladder clients keep parsing unchanged responses):
 *
 *   {"id": "r3", "ok": true, "latency_ms": 40.5, "model_version": 1,
 *    "degraded": {"tier": "stale"}}
 *
 * Shed responses carry backpressure context inside the error object —
 * the queue depth observed at rejection and a suggested back-off:
 *
 *   {"id": "r4", "ok": false, "error": {"code": "overloaded",
 *    "message": "...", "queue_depth": 256, "retry_after_ms": 12.5},
 *    "degraded": {"tier": "shed"}}
 *
 * The response line carries no cache or timing detail, so byte-equal
 * request streams produce byte-equal response streams at any thread
 * count and any cache temperature; hit/miss accounting is observable
 * through ShardedLruCache::stats() and the serve.cache.* counters.
 *
 * Untrusted-input contract: any line — malformed JSON, unknown
 * fields, wrong types, oversized lines (> kMaxRequestLineBytes),
 * non-finite numbers — yields a structured error *response*, never an
 * exception out of the serving engine and never a crash.
 *
 * This header is the wire format only. Admission, batching and
 * shedding live in the one serving engine, ServerFrontEnd
 * (frontend.hh).
 */

#ifndef GCM_SERVE_PROTOCOL_HH
#define GCM_SERVE_PROTOCOL_HH

#include <cstddef>
#include <string>

#include "serve/service.hh"

namespace gcm::serve
{

/** Hard cap on one request line; beyond it the line is rejected. */
inline constexpr std::size_t kMaxRequestLineBytes = 1u << 20;

/**
 * Parse one request line. Throws GcmError with a human-readable
 * message for any schema violation.
 */
ServeRequest parseRequestLine(const std::string &line);

/**
 * Non-throwing variant for the serving engine: returns an empty string
 * on success, the error message otherwise. `out.id` is filled
 * whenever the line was valid JSON carrying a string id, so even
 * schema-violating requests get their id echoed back.
 */
std::string tryParseRequest(const std::string &line, ServeRequest &out);

/** Render a response as one JSON line (no trailing newline). */
std::string renderResponse(const ServeResponse &response);

} // namespace gcm::serve

#endif // GCM_SERVE_PROTOCOL_HH

#include "serve/protocol.hh"

#include <limits>
#include <sstream>

#include "util/error.hh"
#include "util/json.hh"

namespace gcm::serve
{

std::string
tryParseRequest(const std::string &line, ServeRequest &out)
{
    if (line.size() > kMaxRequestLineBytes) {
        return "request line of " + std::to_string(line.size())
               + " bytes exceeds the "
               + std::to_string(kMaxRequestLineBytes) + "-byte limit";
    }
    json::Value doc;
    try {
        doc = json::parseJson(line);
    } catch (const GcmError &e) {
        return e.what();
    }
    if (!doc.isObject())
        return "request must be a JSON object";
    if (doc.has("id") && doc.at("id").isString())
        out.id = doc.at("id").str;

    for (const auto &[key, value] : doc.object) {
        if (key == "id") {
            if (!value.isString())
                return "field 'id' must be a string";
        } else if (key == "network") {
            if (!value.isString() || value.str.empty())
                return "field 'network' must be a non-empty string";
            out.network = value.str;
        } else if (key == "graph") {
            if (!value.isString() || value.str.empty())
                return "field 'graph' must be a non-empty string";
            out.graph_text = value.str;
        } else if (key == "device") {
            if (!value.isString() || value.str.empty())
                return "field 'device' must be a non-empty string";
            out.device = value.str;
        } else if (key == "priority") {
            if (!value.isString())
                return "field 'priority' must be \"interactive\" or "
                       "\"bulk\"";
            if (value.str == "interactive") {
                out.priority = Priority::Interactive;
            } else if (value.str == "bulk") {
                out.priority = Priority::Bulk;
            } else {
                return "field 'priority' must be \"interactive\" or "
                       "\"bulk\"";
            }
        } else if (key == "signature") {
            if (!value.isArray())
                return "field 'signature' must be an array of numbers";
            out.signature.reserve(value.array.size());
            for (const auto &v : value.array) {
                if (!v.isNumber())
                    return "field 'signature' must contain only "
                           "numbers";
                out.signature.push_back(v.number);
            }
            out.has_signature = true;
        } else {
            return "unknown field '" + key + "'";
        }
    }
    return "";
}

ServeRequest
parseRequestLine(const std::string &line)
{
    ServeRequest request;
    const std::string err = tryParseRequest(line, request);
    if (!err.empty())
        fatal("gcm-serve/v1: ", err);
    return request;
}

namespace
{

std::string
formatDouble(double v)
{
    std::ostringstream num;
    num.precision(std::numeric_limits<double>::max_digits10);
    num << v;
    return num.str();
}

} // namespace

std::string
renderResponse(const ServeResponse &response)
{
    std::string out = "{\"id\": ";
    json::appendJsonString(out, response.id);
    if (response.ok) {
        out += ", \"ok\": true, \"latency_ms\": "
               + formatDouble(response.latency_ms)
               + ", \"model_version\": "
               + std::to_string(response.model_version);
    } else {
        out += ", \"ok\": false, \"error\": {\"code\": \"";
        out += serveErrorCodeName(response.error_code);
        out += "\", \"message\": ";
        json::appendJsonString(out, response.error_message);
        if (response.error_code == ServeErrorCode::Overloaded) {
            // Backpressure context: what the client is waiting behind
            // and a nominal back-off before retrying.
            out += ", \"queue_depth\": "
                   + std::to_string(response.queue_depth)
                   + ", \"retry_after_ms\": "
                   + formatDouble(response.retry_after_ms);
        }
        out += "}";
    }
    // Version gate: the `degraded` field is absent for the full tier,
    // so clients predating the ladder keep seeing unchanged lines.
    if (response.tier != ServeTier::Full) {
        out += ", \"degraded\": {\"tier\": \"";
        out += serveTierName(response.tier);
        out += "\"}";
    }
    out += "}";
    return out;
}

} // namespace gcm::serve

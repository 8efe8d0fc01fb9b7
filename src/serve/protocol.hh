/**
 * @file
 * The sipt-serve wire protocol: newline-delimited JSON over a
 * Unix-domain stream socket. One request line in, one response
 * line out, in order; the connection stays open across requests
 * and survives malformed frames (they get an error response, not a
 * hangup).
 *
 * Requests (all members shown are required; extras are rejected):
 *
 *   {"op":"submit","app":<string>,"config":{<sim::configToJson>}}
 *   {"op":"poll","job":<16-hex>}
 *   {"op":"result","job":<16-hex>}
 *   {"op":"stats"}
 *   {"op":"shutdown"}
 *
 * Responses:
 *
 *   {"ok":true,"job":<id>,"state":"queued"|"running"|"done"|
 *                                 "cached"|"failed"}
 *   {"ok":true,"job":<id>,"state":"done","metrics":{...}}
 *   {"ok":true,"stats":{...}}          (stats)
 *   {"ok":true,"state":"stopping"}     (shutdown)
 *   {"ok":false,"error":"busy","retryAfterMs":<n>}
 *   {"ok":false,"error":"bad-request","detail":<string>}
 *   {"ok":false,"error":"not-ready","job":<id>,"state":...}
 *   {"ok":false,"error":"unknown-job","job":<id>}
 *   {"ok":false,"error":"job-failed","job":<id>,"detail":...}
 *   {"ok":false,"error":"corrupt-result","job":<id>,"detail":...}
 *
 * The job id is the 16-hex fnv1a64 of the engine's canonical run
 * key (sim::runKeyJson()), so identical submissions — from any
 * client, any connection — name the same job: dedup is inherent in
 * the id, not a server-side afterthought.
 *
 * All encoders emit Json::dump()'s canonical single-line form, so
 * byte-comparing against the golden fixtures in
 * tests/fixtures/serve/ detects any wire-format drift.
 */

#ifndef SIPT_SERVE_PROTOCOL_HH
#define SIPT_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace sipt::serve
{

enum class Op : std::uint8_t
{
    Submit,
    Poll,
    Result,
    Stats,
    Shutdown,
};

/** A parsed request line. */
struct Request
{
    Op op = Op::Stats;
    /** submit only. */
    std::string app;
    sim::SystemConfig config;
    /** poll / result only. */
    std::string job;
};

/** The 16-hex job id for a (app, config) submission. */
std::string jobIdFor(const std::string &key_json);

/**
 * Parse one request line. Strict: unknown ops, missing or extra
 * members, and malformed configs (via sim::configFromJson) all
 * fail with a human-readable @p error. The connection-level caller
 * turns a failure into a bad-request response.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

/** Canonical encoding of @p request (no trailing newline).
 *  parseRequest() of the result reproduces @p request; the fixture
 *  tests assert the bytes round-trip too. */
std::string encodeRequest(const Request &request);

/** Response builders (canonical member order). */
Json stateResponse(const std::string &job,
                   const std::string &state);
Json resultResponse(const std::string &job, Json metrics);
Json statsResponse(Json stats);
Json stoppingResponse();
Json busyResponse(std::uint64_t retry_after_ms);
Json errorResponse(const std::string &code,
                   const std::string &detail);
Json jobErrorResponse(const std::string &code,
                      const std::string &job,
                      const std::string &state_or_detail,
                      const char *extra_member);

/**
 * The metrics payload for one finished run: exactly the
 * fillRunMetrics() registry (prefix "run") serialised with
 * MetricsRegistry::toJson(). `sipt-client local` prints the same
 * payload from a direct runSingleCore() call, so daemon and
 * standalone results can be diffed byte-for-byte.
 */
Json metricsPayload(const sim::RunResult &result);

} // namespace sipt::serve

#endif // SIPT_SERVE_PROTOCOL_HH

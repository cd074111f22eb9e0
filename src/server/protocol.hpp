// The serve-mode wire protocol: one JSON object per '\n'-terminated line,
// both directions, over stdin/stdout or a Unix-domain socket.
//
// Requests:
//   {"op":"query","seed":3}                                  minimal
//   {"op":"query","id":"a1","request_id":"r-7","seed":3,"topk":5,
//    "deadline_ms":50,"allow_partial":true,"scores":true}    everything
//   {"op":"query","seed":3,"top_k":10}                       top-k
//   {"op":"query","seed":3,"top_k":10,"mode":"eps",
//    "eps":1e-6}                                             bounded-error
//   {"op":"health"}   {"op":"stats"}                         probes
//   {"op":"metrics"}  {"op":"dump"}                          observability
//
// "topk" (render count) truncates the ranking attached to a full solve;
// "top_k" (query mode) makes the ranking the deliverable instead — the
// solver ranks the full solve and keeps only the ranking, and the
// response's "topk" array holds exactly k sorted [node,score] pairs, plus
// "mode" and (for mode "eps") a per-score error "bound". "top_k" is
// incompatible with "scores":true (a top-k answer carries no score
// vector) and with "topk". "mode":"eps" requires "eps" (finite, > 0) and
// vice versa.
//
// "request_id" is the trace context: client-supplied (or minted by the
// server when absent), echoed in the response, threaded through
// QueryControl into solver trace spans, flight-recorder events and the
// slow-query log. "metrics" returns the registry as Prometheus text
// exposition; "dump" returns the flight-recorder rings as
// Perfetto-loadable JSON.
//
// Responses echo "id" when the request carried one and always have an
// "ok" boolean; failures add "error" (a stable snake_case code) and a
// human "message". The parser is deliberately unforgiving — every line is
// either a fully valid request or a one-line error response; nothing a
// client sends can kill the process. Defenses, in order:
//   * length cap before any parsing (transport-enforced, bounded memory
//     even for a line that never ends),
//   * strict RFC 8259 syntax (same rigor as the test-util validator:
//     raw control characters, bad escapes, trailing garbage all rejected),
//   * schema checks: unknown op, unknown keys, wrong types, out-of-range
//     numbers each produce a named error.
// Fault-injection sites cover every I/O edge: server.parse_garbage
// replaces an inbound line with garbage, server.short_read truncates a
// read mid-line, server.slow_client forces the write path down its
// client-never-drains timeout.
#ifndef BEPI_SERVER_PROTOCOL_HPP_
#define BEPI_SERVER_PROTOCOL_HPP_

#include <cstddef>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace bepi {

// --- JSON --------------------------------------------------------------

/// Parsed JSON value (strict, depth-capped). Numbers remember whether the
/// literal was integral so "seed":1.5 can be rejected as a bad id while
/// "deadline_ms":1.5 stays legal.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  bool number_is_integral = false;
  std::string string_value;                        // decoded (escapes resolved)
  std::map<std::string, JsonValue> object_value;   // key order irrelevant
  std::vector<JsonValue> array_value;
};

/// Strict parse of exactly one JSON value spanning the whole input.
/// `max_depth` caps object/array nesting (stack-exhaustion hardening).
Result<JsonValue> ParseJson(const std::string& text, int max_depth = 16);

// --- Requests ----------------------------------------------------------

enum class RequestOp { kQuery, kHealth, kStats, kMetrics, kDump };

/// A validated request. For kHealth/kStats/kMetrics/kDump only `op`,
/// `id_json` and `request_id` are meaningful.
struct Request {
  RequestOp op = RequestOp::kQuery;
  /// The request's "id" re-serialized (string or integer), empty when
  /// absent; responses echo it verbatim.
  std::string id_json;
  /// Trace context: [A-Za-z0-9._:-]{1,64}, empty when the client sent
  /// none (the server then mints one). Echoed in the response.
  std::string request_id;
  index_t seed = 0;
  index_t topk = 10;
  /// Top-k query mode ("top_k" key): 0 = dense solve (default); >= 1
  /// answers with the top_k best nodes alone. The parser enforces
  /// [1, 1e9]; the server additionally rejects top_k > n.
  index_t top_k = 0;
  /// "mode":"eps" — stop the Schur solve at `eps` and report a per-score
  /// error bound. Only meaningful when top_k > 0.
  bool mode_eps = false;
  double eps = 0.0;
  double deadline_ms = 0.0;  // 0 = no per-request deadline
  bool allow_partial = false;
  bool want_scores = false;
};

// Stable error codes carried in the "error" field of failure responses.
namespace protocol_errors {
inline constexpr char kParse[] = "parse_error";
inline constexpr char kInvalidArgument[] = "invalid_argument";
inline constexpr char kOverloaded[] = "overloaded";
inline constexpr char kDeadlineExceeded[] = "deadline_exceeded";
inline constexpr char kCancelled[] = "cancelled";
inline constexpr char kDraining[] = "draining";
inline constexpr char kInternal[] = "internal";
}  // namespace protocol_errors

/// Parses and validates one request line. On failure the Status message
/// is safe to embed in an error response; a parse-level failure maps to
/// kDataLoss (report "parse_error") and a schema-level one to
/// kInvalidArgument. The server.parse_garbage fault site fires here.
Result<Request> ParseRequest(const std::string& line);

/// One-line error response. `retry_after_ms` >= 0 adds the backpressure
/// hint (overloaded responses). A non-empty `request_id` is echoed so a
/// failed request stays traceable. `id_json` may be empty.
std::string ErrorResponseLine(const std::string& id_json,
                              const std::string& error,
                              const std::string& message,
                              double retry_after_ms = -1.0,
                              const std::string& request_id = "");

// --- Transports --------------------------------------------------------

/// A bidirectional line pipe. ReadLine strips the trailing '\n' and
/// returns false on clean EOF; an oversized line is discarded in bounded
/// memory and reported as kOutOfRange (the connection stays usable).
/// WriteLine appends '\n'. Implementations are not thread-safe; the
/// server serializes writers per transport.
class LineTransport {
 public:
  virtual ~LineTransport() = default;
  virtual Result<bool> ReadLine(std::string* line) = 0;
  virtual Status WriteLine(const std::string& line) = 0;
};

/// iostream-backed transport: the stdin/stdout serve mode and unit tests.
class StreamTransport final : public LineTransport {
 public:
  StreamTransport(std::istream& in, std::ostream& out,
                  std::size_t max_line_bytes);
  Result<bool> ReadLine(std::string* line) override;
  Status WriteLine(const std::string& line) override;

 private:
  std::istream& in_;
  std::ostream& out_;
  std::size_t max_line_bytes_;
};

/// File-descriptor transport for Unix-domain socket connections.
/// Non-blocking under the hood: reads poll the fd together with an
/// optional wake fd (the shutdown self-pipe) and surface kCancelled when
/// the wake fd fires; writes poll for writability and give up with
/// kIoError after `write_timeout_ms` (a client that never drains cannot
/// wedge a worker — the server drops the connection instead). Owns `fd`.
class FdTransport final : public LineTransport {
 public:
  FdTransport(int fd, std::size_t max_line_bytes, double write_timeout_ms,
              int wake_fd = -1);
  ~FdTransport() override;
  Result<bool> ReadLine(std::string* line) override;
  Status WriteLine(const std::string& line) override;
  void Close();

 private:
  int fd_;
  std::size_t max_line_bytes_;
  double write_timeout_ms_;
  int wake_fd_;
  std::string buffer_;  // bytes read but not yet returned
};

}  // namespace bepi

#endif  // BEPI_SERVER_PROTOCOL_HPP_

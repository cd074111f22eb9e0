#include "server/protocol.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <limits>

#include "common/faultinject.hpp"

namespace bepi {
namespace {

// --- JSON parser -------------------------------------------------------
// Recursive descent with the same strictness as the test-util validator
// (raw control chars, malformed escapes and trailing garbage all fail),
// plus value capture and a nesting depth cap.

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  int depth_left;

  void SkipWs() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r')) {
      ++i;
    }
  }

  Status Fail(const std::string& what) const {
    return Status::DataLoss(what + " at byte " + std::to_string(i));
  }

  Status ParseHex4(unsigned* out) {
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      if (i >= s.size()) return Fail("truncated \\u escape");
      const char c = s[i++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    *out = v;
    return Status::Ok();
  }

  void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    if (i >= s.size() || s[i] != '"') return Fail("expected string");
    ++i;
    out->clear();
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        ++i;
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c == '\\') {
        ++i;
        if (i >= s.size()) return Fail("truncated escape");
        const char e = s[i++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            unsigned cp = 0;
            BEPI_RETURN_IF_ERROR(ParseHex4(&cp));
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: a low surrogate must follow.
              if (i + 1 >= s.size() || s[i] != '\\' || s[i + 1] != 'u') {
                return Fail("lone high surrogate");
              }
              i += 2;
              unsigned lo = 0;
              BEPI_RETURN_IF_ERROR(ParseHex4(&lo));
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return Fail("bad low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Fail("lone low surrogate");
            }
            AppendUtf8(cp, out);
            break;
          }
          default:
            return Fail("bad escape character");
        }
        continue;
      }
      out->push_back(c);
      ++i;
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = i;
    bool integral = true;
    if (i < s.size() && s[i] == '-') ++i;
    std::size_t digits = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
      ++i;
      ++digits;
    }
    if (digits == 0) return Fail("expected value");
    if (digits > 1 && s[start + (s[start] == '-' ? 1 : 0)] == '0') {
      return Fail("leading zero in number");
    }
    if (i < s.size() && s[i] == '.') {
      integral = false;
      ++i;
      digits = 0;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
        ++digits;
      }
      if (digits == 0) return Fail("digits required after decimal point");
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      integral = false;
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      digits = 0;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
        ++digits;
      }
      if (digits == 0) return Fail("digits required in exponent");
    }
    out->type = JsonValue::Type::kNumber;
    out->number_value = std::strtod(s.c_str() + start, nullptr);
    out->number_is_integral =
        integral && std::isfinite(out->number_value) &&
        std::fabs(out->number_value) <= 9007199254740992.0;  // 2^53
    return Status::Ok();
  }

  Status ParseValue(JsonValue* out) {
    if (depth_left <= 0) return Fail("nesting too deep");
    SkipWs();
    if (i >= s.size()) return Fail("expected value");
    const char c = s[i];
    if (c == '{') {
      ++i;
      out->type = JsonValue::Type::kObject;
      SkipWs();
      if (i < s.size() && s[i] == '}') {
        ++i;
        return Status::Ok();
      }
      while (true) {
        SkipWs();
        std::string key;
        BEPI_RETURN_IF_ERROR(ParseString(&key));
        SkipWs();
        if (i >= s.size() || s[i] != ':') return Fail("expected ':'");
        ++i;
        JsonValue child;
        --depth_left;
        BEPI_RETURN_IF_ERROR(ParseValue(&child));
        ++depth_left;
        if (out->object_value.count(key) > 0) {
          return Fail("duplicate key \"" + key + "\"");
        }
        out->object_value.emplace(std::move(key), std::move(child));
        SkipWs();
        if (i >= s.size()) return Fail("unterminated object");
        if (s[i] == ',') {
          ++i;
          continue;
        }
        if (s[i] == '}') {
          ++i;
          return Status::Ok();
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++i;
      out->type = JsonValue::Type::kArray;
      SkipWs();
      if (i < s.size() && s[i] == ']') {
        ++i;
        return Status::Ok();
      }
      while (true) {
        JsonValue child;
        --depth_left;
        BEPI_RETURN_IF_ERROR(ParseValue(&child));
        ++depth_left;
        out->array_value.push_back(std::move(child));
        SkipWs();
        if (i >= s.size()) return Fail("unterminated array");
        if (s[i] == ',') {
          ++i;
          continue;
        }
        if (s[i] == ']') {
          ++i;
          return Status::Ok();
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string_value);
    }
    if (s.compare(i, 4, "true") == 0) {
      i += 4;
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      return Status::Ok();
    }
    if (s.compare(i, 5, "false") == 0) {
      i += 5;
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      return Status::Ok();
    }
    if (s.compare(i, 4, "null") == 0) {
      i += 4;
      out->type = JsonValue::Type::kNull;
      return Status::Ok();
    }
    return ParseNumber(out);
  }
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text, int max_depth) {
  Parser p{text, 0, max_depth};
  JsonValue v;
  BEPI_RETURN_IF_ERROR(p.ParseValue(&v));
  p.SkipWs();
  if (p.i != text.size()) {
    return p.Fail("trailing garbage after JSON value");
  }
  return v;
}

// --- Request validation ------------------------------------------------

namespace {

constexpr std::size_t kMaxIdChars = 128;
constexpr std::size_t kMaxRequestIdChars = 64;

Status BadArg(const std::string& what) {
  return Status::InvalidArgument(what);
}

/// request_id charset is deliberately narrow — it lands verbatim in log
/// lines, flight-recorder slots and Prometheus exemplar labels.
bool ValidRequestId(const std::string& s) {
  if (s.empty() || s.size() > kMaxRequestIdChars) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Result<Request> ParseRequest(const std::string& line) {
  std::string effective = line;
  if (BEPI_FAULT_INJECTED(fault_sites::kServerParseGarbage)) {
    // Deterministic hostile input: raw control bytes and broken syntax.
    effective = "\x01{\"op\":-garbage";
  }
  BEPI_ASSIGN_OR_RETURN(JsonValue root, ParseJson(effective));
  if (root.type != JsonValue::Type::kObject) {
    return Status::DataLoss("request must be a JSON object");
  }

  Request req;
  const auto* op = [&]() -> const JsonValue* {
    auto it = root.object_value.find("op");
    return it == root.object_value.end() ? nullptr : &it->second;
  }();
  if (op == nullptr || op->type != JsonValue::Type::kString) {
    return BadArg("missing or non-string \"op\"");
  }
  if (op->string_value == "query") {
    req.op = RequestOp::kQuery;
  } else if (op->string_value == "health") {
    req.op = RequestOp::kHealth;
  } else if (op->string_value == "stats") {
    req.op = RequestOp::kStats;
  } else if (op->string_value == "metrics") {
    req.op = RequestOp::kMetrics;
  } else if (op->string_value == "dump") {
    req.op = RequestOp::kDump;
  } else {
    return BadArg("unknown op \"" + op->string_value + "\"");
  }

  bool saw_seed = false;
  bool saw_topk = false;
  bool saw_top_k = false;
  bool saw_mode = false;
  bool saw_eps = false;
  for (const auto& [key, value] : root.object_value) {
    if (key == "op") continue;
    if (key == "id") {
      if (value.type == JsonValue::Type::kString) {
        if (value.string_value.size() > kMaxIdChars) {
          return BadArg("\"id\" longer than " + std::to_string(kMaxIdChars) +
                        " characters");
        }
        req.id_json = JsonQuote(value.string_value);
      } else if (value.type == JsonValue::Type::kNumber &&
                 value.number_is_integral) {
        req.id_json = std::to_string(
            static_cast<long long>(value.number_value));
      } else {
        return BadArg("\"id\" must be a string or an integer");
      }
      continue;
    }
    if (key == "request_id") {
      if (value.type != JsonValue::Type::kString ||
          !ValidRequestId(value.string_value)) {
        return BadArg("\"request_id\" must be 1-" +
                      std::to_string(kMaxRequestIdChars) +
                      " characters of [A-Za-z0-9._:-]");
      }
      req.request_id = value.string_value;
      continue;
    }
    if (req.op != RequestOp::kQuery) {
      return BadArg("unexpected key \"" + key + "\" for op \"" +
                    op->string_value + "\"");
    }
    if (key == "seed") {
      if (value.type != JsonValue::Type::kNumber ||
          !value.number_is_integral) {
        return BadArg("\"seed\" must be an integer");
      }
      req.seed = static_cast<index_t>(value.number_value);
      saw_seed = true;
    } else if (key == "topk") {
      if (value.type != JsonValue::Type::kNumber ||
          !value.number_is_integral || value.number_value < 0 ||
          value.number_value > 1e9) {
        return BadArg("\"topk\" must be an integer in [0, 1e9]");
      }
      req.topk = static_cast<index_t>(value.number_value);
      saw_topk = true;
    } else if (key == "top_k") {
      if (value.type != JsonValue::Type::kNumber ||
          !value.number_is_integral || value.number_value < 1 ||
          value.number_value > 1e9) {
        return BadArg("\"top_k\" must be an integer in [1, 1e9]");
      }
      req.top_k = static_cast<index_t>(value.number_value);
      saw_top_k = true;
    } else if (key == "mode") {
      if (value.type != JsonValue::Type::kString) {
        return BadArg("\"mode\" must be \"exact\" or \"eps\"");
      }
      if (value.string_value == "exact") {
        req.mode_eps = false;
      } else if (value.string_value == "eps") {
        req.mode_eps = true;
      } else {
        return BadArg("\"mode\" must be \"exact\" or \"eps\", got \"" +
                      value.string_value + "\"");
      }
      saw_mode = true;
    } else if (key == "eps") {
      if (value.type != JsonValue::Type::kNumber ||
          !std::isfinite(value.number_value) ||
          !(value.number_value > 0.0)) {
        return BadArg("\"eps\" must be a finite number > 0");
      }
      req.eps = value.number_value;
      saw_eps = true;
    } else if (key == "deadline_ms") {
      if (value.type != JsonValue::Type::kNumber ||
          !(value.number_value > 0.0) || value.number_value > 86400000.0) {
        return BadArg("\"deadline_ms\" must be a number in (0, 86400000]");
      }
      req.deadline_ms = value.number_value;
    } else if (key == "allow_partial") {
      if (value.type != JsonValue::Type::kBool) {
        return BadArg("\"allow_partial\" must be a boolean");
      }
      req.allow_partial = value.bool_value;
    } else if (key == "scores") {
      if (value.type != JsonValue::Type::kBool) {
        return BadArg("\"scores\" must be a boolean");
      }
      req.want_scores = value.bool_value;
    } else {
      return BadArg("unknown key \"" + key + "\"");
    }
  }
  if (req.op == RequestOp::kQuery && !saw_seed) {
    return BadArg("query requires an integer \"seed\"");
  }
  // Cross-field checks for the top-k query mode: each error names the
  // offending key so a client can fix the exact field.
  if (saw_mode && !saw_top_k) {
    return BadArg("\"mode\" requires \"top_k\"");
  }
  if (saw_eps && !req.mode_eps) {
    return BadArg("\"eps\" requires \"mode\":\"eps\"");
  }
  if (req.mode_eps && !saw_eps) {
    return BadArg("\"mode\":\"eps\" requires \"eps\"");
  }
  if (saw_top_k && req.want_scores) {
    return BadArg("\"top_k\" is incompatible with \"scores\":true");
  }
  if (saw_top_k && saw_topk) {
    return BadArg("\"top_k\" is incompatible with \"topk\"");
  }
  return req;
}

std::string ErrorResponseLine(const std::string& id_json,
                              const std::string& error,
                              const std::string& message,
                              double retry_after_ms,
                              const std::string& request_id) {
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\":" + id_json + ",";
  out += "\"ok\":false,\"error\":" + JsonQuote(error);
  if (!request_id.empty()) {
    out += ",\"request_id\":" + JsonQuote(request_id);
  }
  if (retry_after_ms >= 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", retry_after_ms);
    out += ",\"retry_after_ms\":";
    out += buf;
  }
  out += ",\"message\":" + JsonQuote(message) + "}";
  return out;
}

// --- StreamTransport ---------------------------------------------------

StreamTransport::StreamTransport(std::istream& in, std::ostream& out,
                                 std::size_t max_line_bytes)
    : in_(in), out_(out), max_line_bytes_(max_line_bytes) {}

Result<bool> StreamTransport::ReadLine(std::string* line) {
  line->clear();
  // Char-at-a-time with the cap enforced as we go: a line that never ends
  // is discarded in O(1) memory instead of ballooning a getline buffer.
  bool overflow = false;
  int c;
  while ((c = in_.get()) != std::char_traits<char>::eof()) {
    if (c == '\n') {
      if (overflow) {
        return Status::OutOfRange("request line exceeds " +
                                  std::to_string(max_line_bytes_) + " bytes");
      }
      if (BEPI_FAULT_INJECTED(fault_sites::kServerShortRead)) {
        return Status::IoError("connection truncated mid-line (injected)");
      }
      return true;
    }
    if (line->size() >= max_line_bytes_) {
      overflow = true;
      line->clear();  // keep discarding, bounded
      continue;
    }
    line->push_back(static_cast<char>(c));
  }
  if (overflow) {
    return Status::OutOfRange("request line exceeds " +
                              std::to_string(max_line_bytes_) + " bytes");
  }
  if (!line->empty()) {
    // EOF mid-line: the client vanished between bytes.
    return Status::IoError("EOF mid-line");
  }
  return false;
}

Status StreamTransport::WriteLine(const std::string& line) {
  if (BEPI_FAULT_INJECTED(fault_sites::kServerSlowClient)) {
    return Status::IoError("client did not drain its responses (injected)");
  }
  out_ << line << '\n';
  out_.flush();
  if (!out_) return Status::IoError("write failed");
  return Status::Ok();
}

// --- FdTransport -------------------------------------------------------

FdTransport::FdTransport(int fd, std::size_t max_line_bytes,
                         double write_timeout_ms, int wake_fd)
    : fd_(fd),
      max_line_bytes_(max_line_bytes),
      write_timeout_ms_(write_timeout_ms),
      wake_fd_(wake_fd) {
  if (fd_ >= 0) {
    const int fl = fcntl(fd_, F_GETFL);
    if (fl >= 0) fcntl(fd_, F_SETFL, fl | O_NONBLOCK);
  }
}

FdTransport::~FdTransport() { Close(); }

void FdTransport::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<bool> FdTransport::ReadLine(std::string* line) {
  line->clear();
  bool overflow = false;
  while (true) {
    // Serve a complete line from the buffer first.
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      if (nl > max_line_bytes_ || overflow) {
        buffer_.erase(0, nl + 1);
        return Status::OutOfRange("request line exceeds " +
                                  std::to_string(max_line_bytes_) + " bytes");
      }
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      if (BEPI_FAULT_INJECTED(fault_sites::kServerShortRead)) {
        line->clear();
        return Status::IoError("connection truncated mid-line (injected)");
      }
      return true;
    }
    if (buffer_.size() > max_line_bytes_) {
      // Unterminated over-long line: discard what we have, keep draining.
      overflow = true;
      buffer_.clear();
    }
    if (fd_ < 0) return Status::IoError("transport closed");

    struct pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    nfds_t nfds = 1;
    if (wake_fd_ >= 0) {
      fds[1] = {wake_fd_, POLLIN, 0};
      nfds = 2;
    }
    const int rc = poll(fds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("poll failed reading request");
    }
    if (nfds == 2 && (fds[1].revents & POLLIN) != 0) {
      return Status::Cancelled("shutdown requested");
    }
    char chunk[4096];
    const ssize_t n = read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError("read failed");
    }
    if (n == 0) {
      if (overflow) {
        return Status::OutOfRange("request line exceeds " +
                                  std::to_string(max_line_bytes_) + " bytes");
      }
      if (!buffer_.empty()) {
        buffer_.clear();
        return Status::IoError("EOF mid-line");
      }
      return false;  // clean EOF
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Status FdTransport::WriteLine(const std::string& line) {
  if (fd_ < 0) return Status::IoError("transport closed");
  if (BEPI_FAULT_INJECTED(fault_sites::kServerSlowClient)) {
    return Status::IoError("client did not drain its responses (injected)");
  }
  std::string payload = line;
  payload.push_back('\n');
  std::size_t off = 0;
  while (off < payload.size()) {
    // MSG_NOSIGNAL: a peer that closed its socket must surface as EPIPE
    // (connection dropped), never as a process-killing SIGPIPE. Plain
    // pipes (tests, stdio plumbing) say ENOTSOCK; fall back to write()
    // for them — serve mode additionally ignores SIGPIPE process-wide.
    ssize_t n = send(fd_, payload.data() + off, payload.size() - off,
                     MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = write(fd_, payload.data() + off, payload.size() - off);
    }
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::IoError("write failed");
    }
    // Kernel buffer full: the client is not draining. Wait up to the
    // timeout for writability, then give up so a slow client can only
    // stall its own connection, never a worker forever.
    struct pollfd pfd = {fd_, POLLOUT, 0};
    const int rc =
        poll(&pfd, 1, static_cast<int>(write_timeout_ms_ > 0.0
                                           ? write_timeout_ms_
                                           : 1.0));
    if (rc < 0 && errno != EINTR) {
      return Status::IoError("poll failed writing response");
    }
    if (rc == 0) {
      return Status::IoError("client did not drain its responses within " +
                             std::to_string(write_timeout_ms_) + " ms");
    }
  }
  return Status::Ok();
}

}  // namespace bepi

#ifndef TDMATCH_SERVE_HTTP_HTTP_H_
#define TDMATCH_SERVE_HTTP_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace tdmatch {
namespace serve {
namespace http {

/// \brief Dependency-free HTTP/1.1 message types and wire parsing, shared
/// by the server (requests in, responses out) and the blocking client
/// (the reverse). Supports what a JSON API front end needs: Content-Length
/// framed bodies, persistent connections, hard size limits. No chunked
/// transfer encoding, no TLS — this speaks plain HTTP behind whatever
/// terminates the edge.

/// Limits enforced while parsing. Oversized input maps to a specific
/// status code (431 for the header block, 413 for the body) so clients
/// can tell "too big" from "malformed" (400).
struct HttpLimits {
  size_t max_header_bytes = 16 * 1024;
  size_t max_body_bytes = 4 * 1024 * 1024;
};

struct HttpRequest {
  std::string method;   // uppercase by convention of the sender
  std::string target;   // request target, e.g. "/v1/query?x=1"
  std::string path;     // target without the query string
  std::string query;    // the part after '?', possibly empty
  std::string version;  // "HTTP/1.1"
  /// Header (name, value) pairs in arrival order; names lower-cased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First value of `name` (lower-case), or "".
  const std::string& Header(const std::string& name) const;
  /// True when the connection should stay open after the response
  /// (HTTP/1.1 default keep-alive; "connection: close" opts out).
  bool KeepAlive() const;
};

struct HttpResponse {
  int status = 200;
  /// Extra headers; Content-Length, Content-Type and Connection are
  /// emitted by the serializer.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string content_type = "application/json";
  std::string body;

  const std::string& Header(const std::string& name) const;

  static HttpResponse Json(int status, std::string body) {
    HttpResponse r;
    r.status = status;
    r.body = std::move(body);
    return r;
  }
};

/// Reason phrase for the status codes this server emits.
const char* StatusReason(int status);

/// Value of `key` in a query string ("seconds=2&format=json"): the part
/// between `key=` and the next '&', %XX-decoded with '+' as space.
/// Empty when the key is absent (or has an empty value).
std::string QueryParam(const std::string& query, std::string_view key);

/// \brief Incremental parser for one HTTP message read from a byte
/// stream. Feed() consumes bytes as they arrive; Done() flips once a full
/// message (head + Content-Length body) is buffered. Any protocol or
/// limit violation surfaces as a Status with an http_status() to answer
/// with — the parser never crashes on hostile bytes, it rejects them.
class HttpParser {
 public:
  enum class Mode { kRequest, kResponse };

  explicit HttpParser(Mode mode, HttpLimits limits = {})
      : mode_(mode), limits_(limits) {}

  /// Consumes `data`. Returns an error for malformed or oversized input;
  /// once Done(), extra bytes are retained in leftover() for the next
  /// message on the connection (pipelining / keep-alive).
  util::Status Feed(std::string_view data);

  bool Done() const { return state_ == State::kDone; }
  /// Bytes received after the current message ended.
  const std::string& leftover() const { return leftover_; }

  /// HTTP status code describing the last Feed error (400/413/431/501/
  /// 505), 0 while healthy. Meaningful for kRequest mode.
  int http_status() const { return http_status_; }

  /// The parsed message; valid once Done(). Request fields are filled in
  /// kRequest mode; in kResponse mode method/target hold the status line
  /// pieces instead (see response()).
  HttpRequest& request() { return request_; }
  int response_status() const { return response_status_; }

  /// Resets for the next message on the same connection, seeding the
  /// buffer with the previous leftover.
  void Reset();

 private:
  enum class State { kHead, kBody, kDone };

  util::Status Fail(int http_status, const std::string& msg);
  util::Status ParseHead();

  Mode mode_;
  HttpLimits limits_;
  State state_ = State::kHead;
  std::string buffer_;
  std::string leftover_;
  HttpRequest request_;
  int response_status_ = 0;
  size_t body_expected_ = 0;
  int http_status_ = 0;
};

/// Serializes a response (server side). `keep_alive` controls the
/// Connection header.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// Serializes a request (client side). `extra_headers` are emitted
/// verbatim after the standard ones (e.g. {"X-Request-Id", "t-..."}).
std::string SerializeRequest(
    const std::string& method, const std::string& target,
    const std::string& host, const std::string& body,
    const std::string& content_type, bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& extra_headers =
        {});

}  // namespace http
}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_HTTP_HTTP_H_

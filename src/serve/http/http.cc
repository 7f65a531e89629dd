#include "serve/http/http.h"

#include <cctype>

#include "util/string_util.h"

namespace tdmatch {
namespace serve {
namespace http {

namespace {

const std::string kEmpty;

bool IsTokenChar(char c) {
  // RFC 7230 token characters, the subset that matters for methods and
  // header names.
  if (std::isalnum(static_cast<unsigned char>(c)) != 0) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool IsToken(std::string_view s) {
  if (s.empty() || s.size() > 32) return false;
  for (char c : s) {
    if (!IsTokenChar(c)) return false;
  }
  return true;
}

const std::string* FindHeader(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  for (const auto& kv : headers) {
    if (kv.first == name) return &kv.second;
  }
  return nullptr;
}

}  // namespace

const std::string& HttpRequest::Header(const std::string& name) const {
  const std::string* v = FindHeader(headers, name);
  return v == nullptr ? kEmpty : *v;
}

const std::string& HttpResponse::Header(const std::string& name) const {
  const std::string* v = FindHeader(headers, name);
  return v == nullptr ? kEmpty : *v;
}

bool HttpRequest::KeepAlive() const {
  const std::string conn = util::ToLower(Header("connection"));
  if (conn.find("close") != std::string::npos) return false;
  if (version == "HTTP/1.0") {
    return conn.find("keep-alive") != std::string::npos;
  }
  return true;  // HTTP/1.1 defaults to persistent connections
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

util::Status HttpParser::Fail(int http_status, const std::string& msg) {
  http_status_ = http_status;
  return util::Status::InvalidArgument(msg);
}

util::Status HttpParser::Feed(std::string_view data) {
  if (state_ == State::kDone) {
    leftover_.append(data);
    return util::Status::OK();
  }
  buffer_.append(data);

  if (state_ == State::kHead) {
    const size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > limits_.max_header_bytes) {
        return Fail(431, util::StrFormat(
                             "header block exceeds %zu bytes",
                             limits_.max_header_bytes));
      }
      return util::Status::OK();  // need more bytes
    }
    if (head_end > limits_.max_header_bytes) {
      return Fail(431, util::StrFormat("header block exceeds %zu bytes",
                                       limits_.max_header_bytes));
    }
    TDM_RETURN_NOT_OK(ParseHead());
    // ParseHead consumed [0, head_end + 4) logically; keep the rest as the
    // body prefix.
    buffer_.erase(0, head_end + 4);
    state_ = State::kBody;
  }

  if (state_ == State::kBody) {
    if (buffer_.size() >= body_expected_) {
      request_.body = buffer_.substr(0, body_expected_);
      leftover_ = buffer_.substr(body_expected_);
      buffer_.clear();
      state_ = State::kDone;
    }
  }
  return util::Status::OK();
}

util::Status HttpParser::ParseHead() {
  const size_t head_end = buffer_.find("\r\n\r\n");
  std::string_view head(buffer_.data(), head_end);

  // --- start line ---------------------------------------------------------
  size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) line_end = head.size();
  std::string_view line = head.substr(0, line_end);

  if (mode_ == Mode::kRequest) {
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string_view::npos
                           ? std::string_view::npos
                           : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        line.find(' ', sp2 + 1) != std::string_view::npos) {
      return Fail(400, "malformed request line");
    }
    request_.method = std::string(line.substr(0, sp1));
    request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    request_.version = std::string(line.substr(sp2 + 1));
    if (!IsToken(request_.method)) {
      return Fail(400, "malformed method '" + request_.method + "'");
    }
    if (request_.target.empty() || request_.target[0] != '/') {
      return Fail(400, "request target must be an absolute path");
    }
    if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
      return Fail(505, "unsupported version '" + request_.version + "'");
    }
    const size_t q = request_.target.find('?');
    request_.path = request_.target.substr(0, q);
    request_.query =
        q == std::string::npos ? "" : request_.target.substr(q + 1);
  } else {
    // Status line: HTTP/1.1 SP 3DIGIT SP reason.
    const size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos || line.substr(0, 5) != "HTTP/") {
      return Fail(400, "malformed status line");
    }
    const std::string_view code = line.substr(sp1 + 1, 3);
    if (code.size() != 3 ||
        std::isdigit(static_cast<unsigned char>(code[0])) == 0 ||
        std::isdigit(static_cast<unsigned char>(code[1])) == 0 ||
        std::isdigit(static_cast<unsigned char>(code[2])) == 0) {
      return Fail(400, "malformed status code");
    }
    response_status_ =
        (code[0] - '0') * 100 + (code[1] - '0') * 10 + (code[2] - '0');
  }

  // --- header fields ------------------------------------------------------
  size_t pos = line_end;
  while (pos < head.size()) {
    pos += 2;  // skip the CRLF
    size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = head.size();
    std::string_view field = head.substr(pos, next - pos);
    pos = next;
    if (field.empty()) continue;
    if (field[0] == ' ' || field[0] == '\t') {
      return Fail(400, "obsolete header line folding is not supported");
    }
    const size_t colon = field.find(':');
    if (colon == std::string_view::npos) {
      return Fail(400, "header field without ':'");
    }
    std::string_view name = field.substr(0, colon);
    if (!IsToken(name)) {
      return Fail(400, "malformed header name");
    }
    std::string_view value = util::Trim(field.substr(colon + 1));
    request_.headers.emplace_back(util::ToLower(name), std::string(value));
  }

  // --- body framing -------------------------------------------------------
  if (!request_.Header("transfer-encoding").empty()) {
    return Fail(501, "transfer-encoding is not supported; use "
                     "Content-Length framing");
  }
  // Conflicting repeated Content-Length values are a request-smuggling
  // desync vector behind a proxy that picks the other one (RFC 7230
  // §3.3.2 requires rejection); identical repeats are collapsed.
  const std::string* content_length = nullptr;
  for (const auto& kv : request_.headers) {
    if (kv.first != "content-length") continue;
    if (content_length != nullptr && *content_length != kv.second) {
      return Fail(400, "conflicting Content-Length headers");
    }
    content_length = &kv.second;
  }
  body_expected_ = 0;
  if (content_length != nullptr) {
    // Present means 1*DIGIT (RFC 7230 §3.3.2): an empty value is not "no
    // body", or the body bytes would be read as the next request.
    const std::string& cl = *content_length;
    if (cl.empty()) return Fail(400, "empty Content-Length");
    uint64_t n = 0;
    for (char c : cl) {
      if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
        return Fail(400, "malformed Content-Length '" + cl + "'");
      }
      if (n > (UINT64_MAX - 9) / 10) {
        return Fail(413, "Content-Length overflows");
      }
      n = n * 10 + static_cast<uint64_t>(c - '0');
    }
    if (n > limits_.max_body_bytes) {
      return Fail(413, util::StrFormat(
                           "body of %llu bytes exceeds the %zu byte limit",
                           static_cast<unsigned long long>(n),
                           limits_.max_body_bytes));
    }
    body_expected_ = static_cast<size_t>(n);
  }
  return util::Status::OK();
}

void HttpParser::Reset() {
  buffer_ = std::move(leftover_);
  leftover_.clear();
  request_ = HttpRequest();
  response_status_ = 0;
  body_expected_ = 0;
  http_status_ = 0;
  state_ = State::kHead;
  // A pipelined next message may already be buffered; re-run the state
  // machine over it. Errors (and Done) surface on the next Feed — the
  // caller's read loop always Feeds before inspecting, and Feed("") is a
  // no-op append.
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(response.body.size() + 256);
  out += util::StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                         StatusReason(response.status));
  out += "Content-Type: " + response.content_type + "\r\n";
  out += util::StrFormat("Content-Length: %zu\r\n", response.body.size());
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& kv : response.headers) {
    out += kv.first + ": " + kv.second + "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

std::string SerializeRequest(
    const std::string& method, const std::string& target,
    const std::string& host, const std::string& body,
    const std::string& content_type, bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::string out;
  out.reserve(body.size() + 256);
  out += method + " " + target + " HTTP/1.1\r\n";
  out += "Host: " + host + "\r\n";
  if (!body.empty()) {
    out += "Content-Type: " + content_type + "\r\n";
  }
  out += util::StrFormat("Content-Length: %zu\r\n", body.size());
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::string QueryParam(const std::string& query, std::string_view key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        std::string_view(query).substr(pos, eq - pos) == key) {
      std::string out;
      out.reserve(amp - eq - 1);
      for (size_t i = eq + 1; i < amp; ++i) {
        const char c = query[i];
        if (c == '+') {
          out.push_back(' ');
        } else if (c == '%' && i + 2 < amp && std::isxdigit(static_cast<
                       unsigned char>(query[i + 1])) &&
                   std::isxdigit(static_cast<unsigned char>(query[i + 2]))) {
          out.push_back(static_cast<char>(
              std::stoi(query.substr(i + 1, 2), nullptr, 16)));
          i += 2;
        } else {
          out.push_back(c);
        }
      }
      return out;
    }
    pos = amp + 1;
  }
  return std::string();
}

}  // namespace http
}  // namespace serve
}  // namespace tdmatch

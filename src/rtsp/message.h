// RTSP message model and wire codec (RFC 2326 subset).
//
// RealServer talks to RealPlayer over an RTSP control connection (§II.A of
// the paper); the streamed data flows on a separate data connection. We
// implement the subset RealPlayer exercises: OPTIONS, DESCRIBE, SETUP, PLAY,
// PAUSE, TEARDOWN and SET_PARAMETER, with CSeq tracking, Session ids and
// Transport negotiation.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace rv::rtsp {

enum class Method {
  kOptions,
  kDescribe,
  kSetup,
  kPlay,
  kPause,
  kTeardown,
  kSetParameter,
};

std::string_view method_name(Method m);
std::optional<Method> parse_method(std::string_view name);

enum class StatusCode {
  kOk = 200,
  kBadRequest = 400,
  kNotFound = 404,
  kSessionNotFound = 454,
  kUnsupportedTransport = 461,
  kInternalError = 500,
  kServiceUnavailable = 503,
};

std::string_view status_reason(StatusCode code);

// Case-insensitive header map (RTSP header names are case-insensitive).
class HeaderMap {
 public:
  void set(std::string_view name, std::string value);
  std::optional<std::string> get(std::string_view name) const;
  // Removes the header and returns its value.
  std::optional<std::string> take(std::string_view name);
  bool contains(std::string_view name) const { return get(name).has_value(); }
  std::size_t size() const { return headers_.size(); }
  auto begin() const { return headers_.begin(); }
  auto end() const { return headers_.end(); }
  bool operator==(const HeaderMap& o) const { return headers_ == o.headers_; }

 private:
  // Stored with lower-cased keys; original casing is not preserved (the
  // serialiser emits canonical names).
  std::map<std::string, std::string> headers_;
};

// CSeq is a field, not a header: the parsers move it out of `headers` (an
// absent or malformed CSeq reads as 0) and serialize() writes it back.
struct Request {
  Method method = Method::kOptions;
  std::string url;
  int cseq = 0;
  HeaderMap headers;
  std::string body;

  std::string serialize() const;
};

struct Response {
  StatusCode status = StatusCode::kOk;
  int cseq = 0;
  HeaderMap headers;
  std::string body;

  bool ok() const { return status == StatusCode::kOk; }
  std::string serialize() const;
};

// Parses one complete message; returns std::nullopt on malformed input.
std::optional<Request> parse_request(std::string_view text);
std::optional<Response> parse_response(std::string_view text);

// The header-block layout RTSP and HTTP share: a start line, "Name: value"
// lines up to the first blank line, then the body verbatim. Returns
// std::nullopt when the start line is empty or a header line has no name.
struct HeaderBlock {
  std::string start_line;
  HeaderMap headers;
  std::string body;
};
std::optional<HeaderBlock> split_header_block(std::string_view text);

// A status code of exactly three decimal digits, 100..999 ("2xx", "-1",
// "0200" and "20" are all rejected).
std::optional<int> parse_status_code(std::string_view code);

// --- Transport header ----------------------------------------------------
// RealSystem negotiates its RDT data transport over UDP or TCP, e.g.:
//   Transport: x-real-rdt/udp;client_port=6970
//   Transport: x-real-rdt/tcp
struct TransportSpec {
  bool use_udp = true;
  int client_port = 0;  // 1..65535 for UDP; parsed as 0 for TCP

  std::string serialize() const;
};

// Rejects an unknown transport, a UDP spec without a client_port, and any
// client_port outside 1..65535.
std::optional<TransportSpec> parse_transport(std::string_view value);

}  // namespace rv::rtsp

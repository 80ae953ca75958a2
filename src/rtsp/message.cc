#include "rtsp/message.h"

#include <array>
#include <charconv>
#include <sstream>
#include <utility>

#include "util/strings.h"

namespace rv::rtsp {
namespace {

constexpr std::string_view kVersion = "RTSP/1.0";

struct MethodName {
  Method method;
  std::string_view name;
};

constexpr std::array<MethodName, 7> kMethods = {{
    {Method::kOptions, "OPTIONS"},
    {Method::kDescribe, "DESCRIBE"},
    {Method::kSetup, "SETUP"},
    {Method::kPlay, "PLAY"},
    {Method::kPause, "PAUSE"},
    {Method::kTeardown, "TEARDOWN"},
    {Method::kSetParameter, "SET_PARAMETER"},
}};

std::optional<int> parse_int(std::string_view s) {
  int value = 0;
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

int take_cseq(HeaderMap& headers) {
  const auto v = headers.take("CSeq");
  if (!v) return 0;
  return parse_int(*v).value_or(0);
}

}  // namespace

std::string_view method_name(Method m) {
  for (const auto& entry : kMethods) {
    if (entry.method == m) return entry.name;
  }
  return "OPTIONS";
}

std::optional<Method> parse_method(std::string_view name) {
  for (const auto& entry : kMethods) {
    if (entry.name == name) return entry.method;
  }
  return std::nullopt;
}

std::string_view status_reason(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kBadRequest:
      return "Bad Request";
    case StatusCode::kNotFound:
      return "Not Found";
    case StatusCode::kSessionNotFound:
      return "Session Not Found";
    case StatusCode::kUnsupportedTransport:
      return "Unsupported Transport";
    case StatusCode::kInternalError:
      return "Internal Server Error";
    case StatusCode::kServiceUnavailable:
      return "Service Unavailable";
  }
  return "Unknown";
}

void HeaderMap::set(std::string_view name, std::string value) {
  headers_[util::to_lower(name)] = std::move(value);
}

std::optional<std::string> HeaderMap::get(std::string_view name) const {
  const auto it = headers_.find(util::to_lower(name));
  if (it == headers_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> HeaderMap::take(std::string_view name) {
  auto node = headers_.extract(util::to_lower(name));
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped());
}

std::optional<HeaderBlock> split_header_block(std::string_view text) {
  const std::size_t pos = text.find('\n');
  if (pos == std::string_view::npos) return std::nullopt;
  HeaderBlock block;
  block.start_line = util::trim(text.substr(0, pos));
  if (block.start_line.empty()) return std::nullopt;
  std::size_t line_start = pos + 1;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string line =
        util::trim(text.substr(line_start, line_end - line_start));
    line_start = line_end + 1;
    if (line.empty()) break;  // blank line: headers done
    const auto [name, value] = util::split_first(line, ':');
    const std::string key = util::trim(name);
    if (key.empty()) return std::nullopt;
    block.headers.set(key, util::trim(value));
  }
  if (line_start < text.size()) {
    block.body = std::string(text.substr(line_start));
  }
  return block;
}

std::optional<int> parse_status_code(std::string_view code) {
  if (code.size() != 3) return std::nullopt;
  for (const char c : code) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  const auto status = parse_int(code);
  if (!status || *status < 100) return std::nullopt;
  return status;
}

std::string Request::serialize() const {
  std::ostringstream os;
  os << method_name(method) << ' ' << url << ' ' << kVersion << "\r\n";
  os << "CSeq: " << cseq << "\r\n";
  for (const auto& [name, value] : headers) {
    os << name << ": " << value << "\r\n";
  }
  os << "\r\n" << body;
  return os.str();
}

std::string Response::serialize() const {
  std::ostringstream os;
  os << kVersion << ' ' << static_cast<int>(status) << ' '
     << status_reason(status) << "\r\n";
  os << "CSeq: " << cseq << "\r\n";
  for (const auto& [name, value] : headers) {
    os << name << ": " << value << "\r\n";
  }
  os << "\r\n" << body;
  return os.str();
}

std::optional<Request> parse_request(std::string_view text) {
  auto block = split_header_block(text);
  if (!block) return std::nullopt;
  const auto parts = util::split(block->start_line, ' ');
  if (parts.size() != 3 || parts[2] != kVersion) return std::nullopt;
  const auto method = parse_method(parts[0]);
  if (!method) return std::nullopt;
  Request req;
  req.headers = std::move(block->headers);
  req.body = std::move(block->body);
  req.method = *method;
  req.url = parts[1];
  req.cseq = take_cseq(req.headers);
  return req;
}

std::optional<Response> parse_response(std::string_view text) {
  auto block = split_header_block(text);
  if (!block) return std::nullopt;
  // "RTSP/1.0 200 OK" — reason may contain spaces.
  const std::string& start_line = block->start_line;
  const auto first_space = start_line.find(' ');
  if (first_space == std::string::npos) return std::nullopt;
  if (std::string_view(start_line).substr(0, first_space) != kVersion) {
    return std::nullopt;
  }
  const auto second_space = start_line.find(' ', first_space + 1);
  const std::string code_str =
      second_space == std::string::npos
          ? start_line.substr(first_space + 1)
          : start_line.substr(first_space + 1, second_space - first_space - 1);
  const auto code = parse_status_code(code_str);
  if (!code) return std::nullopt;
  Response resp;
  resp.headers = std::move(block->headers);
  resp.body = std::move(block->body);
  resp.status = static_cast<StatusCode>(*code);
  resp.cseq = take_cseq(resp.headers);
  return resp;
}

std::string TransportSpec::serialize() const {
  std::ostringstream os;
  os << "x-real-rdt/" << (use_udp ? "udp" : "tcp");
  if (use_udp) os << ";client_port=" << client_port;
  return os.str();
}

std::optional<TransportSpec> parse_transport(std::string_view value) {
  const auto fields = util::split(value, ';');
  if (fields.empty()) return std::nullopt;
  TransportSpec spec;
  const std::string proto = util::to_lower(util::trim(fields[0]));
  if (proto == "x-real-rdt/udp") {
    spec.use_udp = true;
  } else if (proto == "x-real-rdt/tcp") {
    spec.use_udp = false;
  } else {
    return std::nullopt;
  }
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const auto [key, val] = util::split_first(util::trim(fields[i]), '=');
    if (util::iequals(key, "client_port")) {
      // A port outside 1..65535 would otherwise wrap silently when the
      // server narrows it to net::Port (70000 -> 4464, -1 -> 65535).
      const auto port = parse_int(util::trim(val));
      if (!port || *port < 1 || *port > 65535) return std::nullopt;
      spec.client_port = *port;
    }
  }
  if (!spec.use_udp) {
    spec.client_port = 0;  // serialize() omits it for TCP
  } else if (spec.client_port == 0) {
    return std::nullopt;
  }
  return spec;
}

}  // namespace rv::rtsp

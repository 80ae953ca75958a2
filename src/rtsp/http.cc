#include "rtsp/http.h"

#include <sstream>
#include <utility>

#include "util/strings.h"

namespace rv::rtsp {
namespace {

constexpr std::string_view kHttpVersion = "HTTP/1.0";

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    default: return status < 400 ? "OK" : "Error";
  }
}

}  // namespace

std::string HttpRequest::serialize() const {
  std::ostringstream os;
  os << "GET " << path << ' ' << kHttpVersion << "\r\n";
  for (const auto& [name, value] : headers) {
    os << name << ": " << value << "\r\n";
  }
  os << "\r\n";
  return os.str();
}

std::string HttpResponse::serialize() const {
  std::ostringstream os;
  os << kHttpVersion << ' ' << status << ' ' << reason_phrase(status)
     << "\r\n";
  for (const auto& [name, value] : headers) {
    os << name << ": " << value << "\r\n";
  }
  os << "\r\n" << body;
  return os.str();
}

std::optional<HttpRequest> parse_http_request(std::string_view text) {
  auto block = split_header_block(text);
  if (!block) return std::nullopt;
  const auto parts = util::split(block->start_line, ' ');
  // The metafile model is HTTP/1.0, but the embedded status exporter feeds
  // this parser requests from real clients (curl, Prometheus), which send
  // HTTP/1.1 — accept both request versions.
  if (parts.size() != 3 || parts[0] != "GET" ||
      (parts[2] != kHttpVersion && parts[2] != "HTTP/1.1")) {
    return std::nullopt;
  }
  HttpRequest req;
  req.path = parts[1];
  req.headers = std::move(block->headers);
  return req;
}

std::optional<HttpResponse> parse_http_response(std::string_view text) {
  auto block = split_header_block(text);
  if (!block) return std::nullopt;
  const auto parts = util::split(block->start_line, ' ');
  if (parts.size() < 2 || parts[0] != kHttpVersion) return std::nullopt;
  const auto status = parse_status_code(parts[1]);
  if (!status) return std::nullopt;
  HttpResponse resp;
  resp.status = *status;
  resp.headers = std::move(block->headers);
  resp.body = std::move(block->body);
  return resp;
}

std::string make_ram_metafile(const std::string& rtsp_url) {
  // Real .ram files are a list of URLs, one per line, possibly with
  // comments.
  return "# RAM metafile\n" + rtsp_url + "\n";
}

std::string parse_ram_metafile(std::string_view body) {
  for (const auto& line : util::split(body, '\n')) {
    const std::string trimmed = util::trim(line);
    if (trimmed.rfind("rtsp://", 0) == 0) return trimmed;
  }
  return "";
}

}  // namespace rv::rtsp

#include <gtest/gtest.h>

#include <string>

#include "mutation.h"
#include "rtsp/http.h"

namespace rv::rtsp {
namespace {

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.path = "/clip/203.ram";
  req.headers.set("User-Agent", "RealTracer/1.0");
  const auto parsed = parse_http_request(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->path, "/clip/203.ram");
  EXPECT_EQ(parsed->headers.get("user-agent"), "RealTracer/1.0");
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 200;
  resp.headers.set("Content-Type", "audio/x-pn-realaudio");
  resp.body = "# RAM metafile\nrtsp://server/clip/203\n";
  const auto parsed = parse_http_response(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->body, resp.body);
}

TEST(Http, NotFoundResponse) {
  HttpResponse resp;
  resp.status = 404;
  const auto parsed = parse_http_response(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->ok());
  EXPECT_EQ(parsed->status, 404);
}

TEST(Http, RejectsMalformed) {
  EXPECT_FALSE(parse_http_request("").has_value());
  EXPECT_FALSE(parse_http_request("POST /x HTTP/1.0\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_request("GET /x RTSP/1.0\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_response("HTTP/1.0 banana\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_response("nope").has_value());
}

TEST(Http, AcceptsHttp11RequestLine) {
  // The embedded status exporter reuses this parser, and its clients (curl,
  // Prometheus) send HTTP/1.1 request lines.
  const auto req =
      parse_http_request("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->path, "/metrics");
  EXPECT_EQ(req->headers.get("host"), "x");
  // Other versions stay rejected.
  EXPECT_FALSE(parse_http_request("GET /x HTTP/2.0\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_request("GET /x HTTP/1.2\r\n\r\n").has_value());
}

TEST(Http, ResponseReasonPhraseMatchesStatus) {
  HttpResponse resp;
  resp.status = 404;
  EXPECT_NE(resp.serialize().find("HTTP/1.0 404 Not Found\r\n"),
            std::string::npos);
  resp.status = 200;
  EXPECT_NE(resp.serialize().find("HTTP/1.0 200 OK\r\n"), std::string::npos);
}

TEST(Http, StatusMustBeExactlyThreeDigits) {
  // atoi-style parsing accepted all of these; strict parsing must not.
  EXPECT_FALSE(parse_http_response("HTTP/1.0 2xx OK\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_response("HTTP/1.0 -1 Bad\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_response("HTTP/1.0 0200 OK\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_response("HTTP/1.0 20 OK\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_response("HTTP/1.0 20a OK\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_response("HTTP/1.0 2000 OK\r\n\r\n").has_value());
  EXPECT_FALSE(parse_http_response("HTTP/1.0 099 X\r\n\r\n").has_value());
}

TEST(Http, ValidThreeDigitStatusesParse) {
  const auto ok = parse_http_response("HTTP/1.0 200 OK\r\n\r\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  const auto cont = parse_http_response("HTTP/1.0 100 Continue\r\n\r\n");
  ASSERT_TRUE(cont.has_value());
  EXPECT_EQ(cont->status, 100);
  const auto err = parse_http_response("HTTP/1.0 599 Ugh\r\n\r\n");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, 599);
}

TEST(HttpMutation, RequestRejectsOrRoundTrips) {
  HttpRequest req;
  req.path = "/clip/203.ram";
  req.headers.set("Host", "site3");
  req.headers.set("User-Agent", "RealTracer/1.0");
  req.headers.set("Accept", "*/*");
  mutation::run_mutants(
      req.serialize(), 3000, 401, [](const std::string& mutant) {
        return mutation::parses_and_round_trips(
            mutant, parse_http_request,
            [](const HttpRequest& a, const HttpRequest& b) {
              return a.path == b.path && a.headers == b.headers;
            });
      });
}

TEST(HttpMutation, ResponseRejectsOrRoundTrips) {
  HttpResponse resp;
  resp.status = 200;
  resp.headers.set("Content-Type", "audio/x-pn-realaudio");
  resp.headers.set("Content-Length", "39");
  resp.body = make_ram_metafile("rtsp://site3/clip/203");
  mutation::run_mutants(
      resp.serialize(), 3000, 402, [](const std::string& mutant) {
        return mutation::parses_and_round_trips(
            mutant, parse_http_response,
            [](const HttpResponse& a, const HttpResponse& b) {
              return a.status == b.status && a.headers == b.headers &&
                     a.body == b.body;
            });
      });
}

TEST(Http, RamMetafileRoundTrip) {
  const std::string body = make_ram_metafile("rtsp://server/clip/7");
  EXPECT_EQ(parse_ram_metafile(body), "rtsp://server/clip/7");
}

TEST(Http, RamMetafileIgnoresCommentsAndJunk) {
  EXPECT_EQ(parse_ram_metafile("# only a comment\n"), "");
  EXPECT_EQ(parse_ram_metafile(""), "");
  EXPECT_EQ(parse_ram_metafile("junk\nrtsp://a/clip/1\nrtsp://b/clip/2\n"),
            "rtsp://a/clip/1");
}

}  // namespace
}  // namespace rv::rtsp

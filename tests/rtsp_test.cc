#include <gtest/gtest.h>

#include <string>

#include "mutation.h"
#include "rtsp/http.h"
#include "rtsp/message.h"
#include "util/rng.h"
#include "rtsp/session.h"

namespace rv::rtsp {
namespace {

TEST(Message, RequestRoundTrip) {
  Request req;
  req.method = Method::kSetup;
  req.url = "rtsp://site0/news-3.rm";
  req.cseq = 7;
  req.headers.set("Transport", "x-real-rdt/udp;client_port=6970");
  req.headers.set("User-Agent", "RealTracer/1.0");
  const std::string wire = req.serialize();
  const auto parsed = parse_request(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, Method::kSetup);
  EXPECT_EQ(parsed->url, req.url);
  EXPECT_EQ(parsed->cseq, 7);
  EXPECT_EQ(parsed->headers.get("transport"),
            "x-real-rdt/udp;client_port=6970");
  EXPECT_EQ(parsed->headers.get("USER-AGENT"), "RealTracer/1.0");
}

TEST(Message, ResponseRoundTrip) {
  Response resp;
  resp.status = StatusCode::kOk;
  resp.cseq = 3;
  resp.headers.set("Session", "abc123");
  resp.body = "v=0\nm=video\n";
  const std::string wire = resp.serialize();
  const auto parsed = parse_response(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->cseq, 3);
  EXPECT_EQ(parsed->headers.get("Session"), "abc123");
  EXPECT_EQ(parsed->body, "v=0\nm=video\n");
}

TEST(Message, ParseErrorStatus) {
  const auto parsed =
      parse_response("RTSP/1.0 404 Not Found\r\nCSeq: 9\r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, StatusCode::kNotFound);
  EXPECT_FALSE(parsed->ok());
  EXPECT_EQ(parsed->cseq, 9);
}

TEST(Message, RejectsMalformed) {
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("GARBAGE\r\n\r\n").has_value());
  EXPECT_FALSE(parse_request("FETCH rtsp://x RTSP/1.0\r\n\r\n").has_value());
  EXPECT_FALSE(parse_request("PLAY rtsp://x HTTP/1.1\r\n\r\n").has_value());
  EXPECT_FALSE(parse_response("200 OK\r\n\r\n").has_value());
  EXPECT_FALSE(parse_response("RTSP/1.0 banana OK\r\n\r\n").has_value());
}

TEST(Message, ResponseStatusMustBeExactlyThreeDigits) {
  for (const char* status : {"2xx", "-1", "0200", "20", "20a", "2000", "099",
                             "+20", ""}) {
    EXPECT_FALSE(parse_response(std::string("RTSP/1.0 ") + status +
                                " OK\r\nCSeq: 1\r\n\r\n")
                     .has_value())
        << status;
  }
  const auto ok = parse_response("RTSP/1.0 461\r\nCSeq: 1\r\n\r\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, StatusCode::kUnsupportedTransport);
}

TEST(Message, MethodNamesRoundTrip) {
  for (const Method m :
       {Method::kOptions, Method::kDescribe, Method::kSetup, Method::kPlay,
        Method::kPause, Method::kTeardown, Method::kSetParameter}) {
    EXPECT_EQ(parse_method(method_name(m)), m);
  }
  EXPECT_FALSE(parse_method("RECORD").has_value());
}

TEST(Message, HeaderCaseInsensitivity) {
  HeaderMap h;
  h.set("CSeq", "11");
  EXPECT_EQ(h.get("cseq"), "11");
  EXPECT_EQ(h.get("CSEQ"), "11");
  h.set("cSeQ", "12");
  EXPECT_EQ(h.get("CSeq"), "12");
  EXPECT_EQ(h.size(), 1u);
}

TEST(Transport, SerializeParseUdp) {
  TransportSpec spec;
  spec.use_udp = true;
  spec.client_port = 6970;
  const auto parsed = parse_transport(spec.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->use_udp);
  EXPECT_EQ(parsed->client_port, 6970);
}

TEST(Transport, SerializeParseTcp) {
  TransportSpec spec;
  spec.use_udp = false;
  const auto parsed = parse_transport(spec.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->use_udp);
}

TEST(Transport, RejectsUnknownOrIncomplete) {
  EXPECT_FALSE(parse_transport("RTP/AVP;client_port=88").has_value());
  EXPECT_FALSE(parse_transport("x-real-rdt/udp").has_value());  // no port
  EXPECT_FALSE(parse_transport("").has_value());
  EXPECT_FALSE(
      parse_transport("x-real-rdt/udp;client_port=banana").has_value());
}

TEST(Transport, RejectsClientPortOutsideTheUdpPortRange) {
  // The server narrows the port to 16 bits, so an accepted 70000 would
  // become 4464 and -1 would become 65535.
  for (const char* port : {"0", "-1", "65536", "70000", "4294967296"}) {
    EXPECT_FALSE(
        parse_transport(std::string("x-real-rdt/udp;client_port=") + port)
            .has_value())
        << port;
    EXPECT_FALSE(
        parse_transport(std::string("x-real-rdt/tcp;client_port=") + port)
            .has_value())
        << port;
  }
  const auto low = parse_transport("x-real-rdt/udp;client_port=1");
  ASSERT_TRUE(low.has_value());
  EXPECT_EQ(low->client_port, 1);
  const auto high = parse_transport("x-real-rdt/udp;client_port=65535");
  ASSERT_TRUE(high.has_value());
  EXPECT_EQ(high->client_port, 65535);
  // TCP carries no data port: one given is checked, then dropped, exactly
  // as serialize() drops it.
  const auto tcp = parse_transport("x-real-rdt/tcp;client_port=6970");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->client_port, 0);
}

bool same_request(const Request& a, const Request& b) {
  return a.method == b.method && a.url == b.url && a.cseq == b.cseq &&
         a.headers == b.headers && a.body == b.body;
}

bool same_response(const Response& a, const Response& b) {
  return a.status == b.status && a.cseq == b.cseq && a.headers == b.headers &&
         a.body == b.body;
}

TEST(RtspMutation, RequestRejectsOrRoundTrips) {
  Request req;
  req.method = Method::kSetup;
  req.url = "rtsp://site3/news-17.rm";
  req.cseq = 4;
  req.headers.set("Transport", "x-real-rdt/udp;client_port=6970");
  req.headers.set("Bandwidth", "56000");
  req.headers.set("Session", "0000beef");
  req.headers.set("User-Agent", "RealTracer/1.0");
  req.body = "x-param: 1\r\n";
  mutation::run_mutants(req.serialize(), 3000, 301,
                        [](const std::string& mutant) {
                          return mutation::parses_and_round_trips(
                              mutant, parse_request, same_request);
                        });
}

TEST(RtspMutation, ResponseRejectsOrRoundTrips) {
  Response resp;
  resp.status = StatusCode::kOk;
  resp.cseq = 4;
  resp.headers.set("Session", "0000beef");
  resp.headers.set("Transport",
                   "x-real-rdt/udp;client_port=6970;server_port=7002");
  resp.body = "v=0\r\nm=video 0 RTP/AVP 101\r\na=length:npt=60\r\n";
  mutation::run_mutants(resp.serialize(), 3000, 302,
                        [](const std::string& mutant) {
                          return mutation::parses_and_round_trips(
                              mutant, parse_response, same_response);
                        });
}

TEST(RtspMutation, TransportRejectsOrRoundTrips) {
  mutation::run_mutants(
      "x-real-rdt/udp;client_port=6970;server_port=7002;mode=play", 3000, 303,
      [](const std::string& mutant) {
        const auto spec = parse_transport(mutant);
        if (!spec) return false;
        if (spec->use_udp) {
          EXPECT_GE(spec->client_port, 1);
          EXPECT_LE(spec->client_port, 65535);
        } else {
          EXPECT_EQ(spec->client_port, 0);
        }
        const auto back = parse_transport(spec->serialize());
        EXPECT_TRUE(back.has_value()) << spec->serialize();
        if (back) {
          EXPECT_EQ(back->use_udp, spec->use_udp);
          EXPECT_EQ(back->client_port, spec->client_port);
        }
        return true;
      });
}

TEST(Session, HappyPathLifecycle) {
  Session s(0xBEEF);
  EXPECT_EQ(s.state(), SessionState::kInit);
  EXPECT_TRUE(s.apply(Method::kOptions));
  EXPECT_TRUE(s.apply(Method::kDescribe));
  EXPECT_TRUE(s.apply(Method::kSetup));
  EXPECT_EQ(s.state(), SessionState::kReady);
  EXPECT_TRUE(s.apply(Method::kPlay));
  EXPECT_EQ(s.state(), SessionState::kPlaying);
  EXPECT_TRUE(s.apply(Method::kPause));
  EXPECT_EQ(s.state(), SessionState::kReady);
  EXPECT_TRUE(s.apply(Method::kPlay));
  EXPECT_TRUE(s.apply(Method::kTeardown));
  EXPECT_EQ(s.state(), SessionState::kTornDown);
}

TEST(Session, RejectsIllegalTransitions) {
  Session s(1);
  EXPECT_FALSE(s.apply(Method::kPlay));   // PLAY before SETUP
  EXPECT_FALSE(s.apply(Method::kPause));  // PAUSE before PLAY
  EXPECT_TRUE(s.apply(Method::kSetup));
  EXPECT_FALSE(s.apply(Method::kSetup));  // double SETUP
  EXPECT_TRUE(s.apply(Method::kTeardown));
  EXPECT_FALSE(s.apply(Method::kPlay));     // after teardown
  EXPECT_FALSE(s.apply(Method::kOptions));  // after teardown
  EXPECT_FALSE(s.apply(Method::kTeardown));
}

TEST(Session, IdString) {
  Session s(255);
  EXPECT_EQ(s.id_string(), "ff");
  EXPECT_EQ(s.id(), 255u);
}


// Property: the parsers never crash or accept garbage, whatever bytes come
// off the wire.
class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, RandomBytesNeverCrash) {
  rv::util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  for (int iter = 0; iter < 200; ++iter) {
    std::string junk;
    const int len = static_cast<int>(rng.uniform_int(0, 400));
    for (int i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.uniform_int(1, 255)));
    }
    // None of these may throw; acceptance of random bytes as a *valid*
    // message is overwhelmingly unlikely but not an error per se.
    (void)parse_request(junk);
    (void)parse_response(junk);
    (void)parse_transport(junk);
    (void)parse_http_request(junk);
    (void)parse_http_response(junk);
    (void)parse_ram_metafile(junk);
  }
}

TEST_P(ParserFuzzTest, MutatedValidMessagesNeverCrash) {
  rv::util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  Request req;
  req.method = Method::kSetup;
  req.url = "rtsp://server/clip/42";
  req.cseq = 9;
  req.headers.set("Transport", "x-real-rdt/udp;client_port=6970");
  const std::string base = req.serialize();
  for (int iter = 0; iter < 200; ++iter) {
    std::string mutated = base;
    const int flips = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < flips && !mutated.empty(); ++i) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(1, 255));
    }
    (void)parse_request(mutated);
    (void)parse_response(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 8));
}  // namespace
}  // namespace rv::rtsp

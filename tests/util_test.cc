#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mutation.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/md5.h"
#include "util/small_vec.h"
#include "util/symbol.h"
#include "util/strings.h"
#include "util/units.h"

namespace rv {
namespace {

using util::Rng;

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(RV_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsOnFalse) {
  EXPECT_THROW(RV_CHECK(false) << "context", util::CheckError);
}

TEST(Check, ComparisonMacros) {
  EXPECT_NO_THROW(RV_CHECK_EQ(2, 2));
  EXPECT_THROW(RV_CHECK_LT(3, 2), util::CheckError);
  EXPECT_THROW(RV_CHECK_GE(1, 2), util::CheckError);
}

TEST(Units, Conversions) {
  EXPECT_EQ(sec(2), 2'000'000);
  EXPECT_EQ(msec(3), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_msec(msec(7)), 7.0);
  EXPECT_DOUBLE_EQ(kbps(56.0), 56'000.0);
  EXPECT_EQ(seconds_to_sim(1.5), 1'500'000);
}

TEST(Units, TransmissionTimeRoundsUp) {
  // 1000 bytes at 1 Mbps = exactly 8000 usec.
  EXPECT_EQ(transmission_time(1000, mbps(1)), 8000);
  // 1 byte at 1 Gbps < 1 usec, rounds to 1.
  EXPECT_EQ(transmission_time(1, 1e9), 1);
  EXPECT_EQ(transmission_time(0, mbps(1)), 0);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every value in [-3, 3] appears
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40'000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(19);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w), util::CheckError);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.next_u64() == c2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkByLabelDeterministic) {
  Rng a(29);
  Rng b(29);
  Rng fa = a.fork("clip-7");
  Rng fb = b.fork("clip-7");
  EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Strings, Split) {
  const auto parts = util::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitFirst) {
  const auto [k, v] = util::split_first("Transport: RDT/UDP", ':');
  EXPECT_EQ(k, "Transport");
  EXPECT_EQ(util::trim(v), "RDT/UDP");
  const auto [k2, v2] = util::split_first("noseparator", ':');
  EXPECT_EQ(k2, "noseparator");
  EXPECT_EQ(v2, "");
}

TEST(Strings, TrimAndLower) {
  EXPECT_EQ(util::trim("  x y \t\n"), "x y");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::to_lower("AbC"), "abc");
  EXPECT_TRUE(util::iequals("CSeq", "cseq"));
  EXPECT_FALSE(util::iequals("CSeq", "cse"));
}

TEST(Strings, StrCatAndFormat) {
  EXPECT_EQ(util::str_cat("a=", 1, ", b=", 2.5), "a=1, b=2.5");
  EXPECT_EQ(util::format_double(3.14159, 2), "3.14");
}

TEST(Strings, StableHashIsStable) {
  EXPECT_EQ(util::stable_hash("abc"), util::stable_hash("abc"));
  EXPECT_NE(util::stable_hash("abc"), util::stable_hash("abd"));
}

}  // namespace
}  // namespace rv

// --- Args ------------------------------------------------------------------

#include "util/args.h"

namespace rv {
namespace {

util::Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return util::Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, KeyValueForms) {
  const auto args =
      make_args({"prog", "--scale", "0.5", "--seed=42", "--verbose"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.get("scale"), "0.5");
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(args.get_int("seed", 0), 42);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
}

TEST(Args, PositionalArguments) {
  const auto args = make_args({"prog", "fig", "11", "--scale", "0.1"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "fig");
  EXPECT_EQ(args.positional()[1], "11");
}

TEST(Args, Fallbacks) {
  const auto args = make_args({"prog"});
  EXPECT_EQ(args.get_or("missing", "x"), "x");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_FALSE(args.get("missing").has_value());
}

TEST(Args, FlagFollowedByFlag) {
  const auto args = make_args({"prog", "--live", "--watch", "30"});
  EXPECT_TRUE(args.has("live"));
  EXPECT_EQ(args.get("live"), "");  // bare flag, no value swallowed
  EXPECT_EQ(args.get_int("watch", 0), 30);
}

TEST(Args, ValueContainingEquals) {
  const auto args = make_args({"prog", "--filter=key=value"});
  EXPECT_EQ(args.get("filter"), "key=value");
}

TEST(Args, UnknownFlagsAreTheOnesOutsideTheKnownSet) {
  const auto args = make_args(
      {"prog", "summary", "--scael", "0.1", "--seed=7", "--bare", "--", "--x"});
  EXPECT_EQ(args.unknown_flags({"scale", "seed"}),
            (std::vector<std::string>{"--bare", "--scael"}));
  EXPECT_TRUE(args.unknown_flags({"bare", "scael", "seed"}).empty());
}

util::Args make_args_with_bare(std::initializer_list<const char*> argv,
                               std::initializer_list<std::string_view> bare) {
  std::vector<const char*> v(argv);
  return util::Args(static_cast<int>(v.size()), v.data(), bare);
}

TEST(Args, BareFlagNeverTakesTheNextToken) {
  const auto args = make_args_with_bare(
      {"prog", "--faults", "summary", "--report", "s0", "s1", "--out", "m"},
      {"faults", "report"});
  EXPECT_EQ(args.get("faults"), "");
  EXPECT_EQ(args.get("report"), "");
  EXPECT_EQ(args.get("out"), "m");
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"summary", "s0", "s1"}));
}

TEST(Args, BareFlagDoesNotChangeValuedFlags) {
  const auto args = make_args_with_bare(
      {"prog", "--scale", "0.5", "--live", "--watch", "30", "--live2", "x"},
      {"live"});
  EXPECT_EQ(args.get("scale"), "0.5");
  EXPECT_EQ(args.get_int("watch", 0), 30);
  EXPECT_TRUE(args.has("live"));
  // Not named bare, so it still takes the next token.
  EXPECT_EQ(args.get("live2"), "x");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Args, BareFlagAtTheEndAndAfterDoubleDash) {
  const auto args = make_args_with_bare(
      {"prog", "run", "--profile", "--", "--profile2"}, {"profile"});
  EXPECT_TRUE(args.has("profile"));
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"run", "--profile2"}));
}

TEST(Args, BareFlagsAreKnownFlags) {
  const auto args = make_args_with_bare(
      {"prog", "--faults", "--scale", "0.1", "--scael", "0.2"}, {"faults"});
  EXPECT_EQ(args.unknown_flags({"scale"}),
            (std::vector<std::string>{"--scael"}));
  EXPECT_TRUE(args.unknown_flags({"scale", "scael"}).empty());
}

TEST(Args, ValidNumericsLeaveErrorsEmpty) {
  const auto args =
      make_args({"prog", "--scale=0.25", "--seed=2001", "--watch", "60"});
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.25);
  EXPECT_EQ(args.get_int("seed", 0), 2001);
  EXPECT_EQ(args.get_int("watch", 0), 60);
  EXPECT_TRUE(args.errors().empty());
}

TEST(Args, MalformedIntFallsBackAndRecordsError) {
  const auto args = make_args({"prog", "--seed=20o1"});
  // The typo'd value must not be silently truncated to 20.
  EXPECT_EQ(args.get_int("seed", 7), 7);
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("--seed"), std::string::npos);
  EXPECT_NE(args.errors()[0].find("20o1"), std::string::npos);
}

TEST(Args, MalformedDoubleFallsBackAndRecordsError) {
  const auto args = make_args({"prog", "--scale=0.5x", "--rate=1e"});
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 2.0), 2.0);
  EXPECT_EQ(args.errors().size(), 2u);
}

TEST(Args, PartialMatchIsRejected) {
  // from_chars alone would parse "3.5" out of "3.5abc"; the full string
  // must match.
  const auto args = make_args({"prog", "--watch=3.5abc", "--clip=1 "});
  EXPECT_DOUBLE_EQ(args.get_double("watch", 9.0), 9.0);
  EXPECT_EQ(args.get_int("clip", 4), 4);
  EXPECT_EQ(args.errors().size(), 2u);
}

TEST(Args, BareFlagNumericLookupIsNotAnError) {
  // --live has no value; asking for it as a number uses the fallback
  // without flagging a user mistake.
  const auto args = make_args({"prog", "--live"});
  EXPECT_EQ(args.get_int("live", 3), 3);
  EXPECT_TRUE(args.errors().empty());
}

TEST(Args, DoubleDashEndsFlagParsing) {
  const auto args = make_args({"prog", "--seed=5", "--", "--not-a-flag"});
  EXPECT_EQ(args.get_int("seed", 0), 5);
  EXPECT_FALSE(args.has("not-a-flag"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "--not-a-flag");
  EXPECT_TRUE(args.errors().empty());
}

// What a tool takes from its command line: the flags it reads and the
// positionals. A tool rejects a command line that names a flag outside its
// set or gives a malformed number (std::nullopt here). The numbers are
// functions of the flag strings, so comparing those compares them too.
struct ToolArgs {
  std::string program;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
  bool operator==(const ToolArgs&) const = default;
};

std::optional<ToolArgs> parse_as_tool(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv;
  for (const auto& t : tokens) argv.push_back(t.c_str());
  const util::Args args(static_cast<int>(argv.size()), argv.data(),
                        {"faults", "telemetry"});
  if (!args.unknown_flags({"scale", "seed", "threads", "out"}).empty()) {
    return std::nullopt;
  }
  ToolArgs out;
  out.program = args.program();
  for (const char* key :
       {"faults", "telemetry", "scale", "seed", "threads", "out"}) {
    if (const auto v = args.get(key)) out.flags[key] = *v;
  }
  out.positional = args.positional();
  args.get_double("scale", 1.0);
  args.get_int("seed", 2001);
  args.get_int("threads", 0);
  if (!args.errors().empty()) return std::nullopt;
  return out;
}

// The canonical command line of parsed arguments: every flag as
// --key=value, then "--" and the positionals.
std::vector<std::string> canonical(const ToolArgs& parsed) {
  std::vector<std::string> tokens{parsed.program};
  for (const auto& [key, value] : parsed.flags) {
    tokens.push_back("--" + key + "=" + value);
  }
  tokens.push_back("--");
  tokens.insert(tokens.end(), parsed.positional.begin(),
                parsed.positional.end());
  return tokens;
}

// The same command as parse_as_tool's, as a flag table: the tool's Args
// come from the table and check_flags() is the verdict.
const util::CommandSpec kMutationTool[] = {
    {"summary",
     "",
     {{"faults"},
      {"telemetry"},
      {"scale", util::FlagKind::kReal, "X", 0, 1},
      {"seed", util::FlagKind::kInt, "N"},
      {"threads", util::FlagKind::kInt, "N", 0, 1024},
      {"out", util::FlagKind::kPath, "DIR"}}}};

std::optional<ToolArgs> parse_through_table(
    const std::vector<std::string>& tokens) {
  std::vector<const char*> argv;
  for (const auto& t : tokens) argv.push_back(t.c_str());
  const util::Args args(static_cast<int>(argv.size()), argv.data(),
                        kMutationTool);
  std::ostringstream err;
  if (!util::check_flags(args, kMutationTool[0], err)) return std::nullopt;
  // A value its row admits reads back without a diagnostic.
  args.get_double("scale", 1.0);
  args.get_int("seed", 2001);
  args.get_int("threads", 0);
  EXPECT_TRUE(args.errors().empty());
  return ToolArgs{args.program(), args.flags(), args.positional()};
}

// A mutant is a command line with one token per line. Every mutant must be
// rejected, or parse to arguments whose canonical command line parses back
// to the same arguments and is a fixed point. Parsing must never throw,
// whatever the tokens hold (embedded NULs end a token, as in a real argv).
void expect_rejects_or_round_trips(
    std::optional<ToolArgs> (*parse)(const std::vector<std::string>&)) {
  const std::string valid =
      "realdata\n--faults\nsummary\n--scale\n0.25\n--seed=7\n--threads\n"
      "4\n--out\nk=v\n--telemetry\n--\n--trace-play\nfig";
  const auto split_lines = [](const std::string& text) {
    std::vector<std::string> tokens(1);
    for (const char c : text) {
      if (c == '\n') {
        tokens.emplace_back();
      } else {
        tokens.back() += c;
      }
    }
    return tokens;
  };
  ASSERT_TRUE(parse(split_lines(valid)).has_value());
  mutation::run_mutants(valid, 3000, 503, [&](const std::string& mutant) {
    const auto parsed = parse(split_lines(mutant));
    if (!parsed) return false;
    const auto tokens = canonical(*parsed);
    const auto back = parse(tokens);
    EXPECT_TRUE(back.has_value()) << mutant;
    if (back) {
      EXPECT_EQ(*back, *parsed) << mutant;
      EXPECT_EQ(canonical(*back), tokens) << mutant;
    }
    return true;
  });
}

TEST(ArgsMutation, RejectsOrRoundTrips) {
  expect_rejects_or_round_trips(&parse_as_tool);
}

TEST(ArgsMutation, TableRejectsOrRoundTrips) {
  expect_rejects_or_round_trips(&parse_through_table);
}

// --- Flag tables ------------------------------------------------------------

const util::CommandSpec kTool[] = {
    {"run",
     "",
     {{"faults"},
      {"label", util::FlagKind::kText, "TEXT"},
      {"out", util::FlagKind::kPath, "DIR"},
      {"threads", util::FlagKind::kInt, "N", 0, 16},
      {"scale", util::FlagKind::kReal, "X", 0, 1},
      {"watch", util::FlagKind::kReal, "SEC", 0},
      {"cc", util::FlagKind::kChoice, "reno|cubic|bbr"}}},
    {"merge",
     "DIR...",
     {util::required({"into", util::FlagKind::kPath, "DIR"})}},
};

// Whether `argv` passes check_flags against kTool[command], and what it
// printed.
std::pair<bool, std::string> check(std::initializer_list<const char*> argv,
                                   int command = 0) {
  std::vector<const char*> v(argv);
  const util::Args args(static_cast<int>(v.size()), v.data(), kTool);
  std::ostringstream err;
  const bool ok = util::check_flags(args, kTool[command], err);
  return {ok, err.str()};
}

bool passes(std::initializer_list<const char*> argv, int command = 0) {
  return check(argv, command).first;
}

TEST(FlagTable, IntBoundsAreInclusiveAtBothEnds) {
  EXPECT_TRUE(passes({"t", "run", "--threads", "0"}));
  EXPECT_TRUE(passes({"t", "run", "--threads=16"}));
  EXPECT_FALSE(passes({"t", "run", "--threads", "-1"}));
  EXPECT_FALSE(passes({"t", "run", "--threads", "17"}));
  EXPECT_FALSE(passes({"t", "run", "--threads", "1.5"}));
  EXPECT_FALSE(passes({"t", "run", "--threads", "4x"}));
  EXPECT_FALSE(passes({"t", "run", "--threads"}));  // no value
  const auto [ok, err] = check({"t", "run", "--threads=17"});
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, "--threads: expects an integer in [0, 16], got '17'\n");
}

TEST(FlagTable, RealBoundsIncludeOnlyTheUpperEndAndAreFinite) {
  EXPECT_TRUE(passes({"t", "run", "--scale", "1"}));
  EXPECT_TRUE(passes({"t", "run", "--scale", "1e-9"}));
  EXPECT_FALSE(passes({"t", "run", "--scale", "0"}));
  EXPECT_FALSE(passes({"t", "run", "--scale", "1.0001"}));
  EXPECT_FALSE(passes({"t", "run", "--scale", "0.5x"}));
  EXPECT_FALSE(passes({"t", "run", "--scale", "nan"}));
  EXPECT_TRUE(passes({"t", "run", "--watch", "1e9"}));
  EXPECT_FALSE(passes({"t", "run", "--watch", "inf"}));
  EXPECT_FALSE(passes({"t", "run", "--scale="}));
}

TEST(FlagTable, PathMustBeNonEmptyButTextMayBe) {
  EXPECT_TRUE(passes({"t", "run", "--out", "d"}));
  EXPECT_FALSE(passes({"t", "run", "--out="}));
  const auto [ok, err] = check({"t", "run", "--out"});
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, "--out: expects a DIR\n");
  EXPECT_TRUE(passes({"t", "run", "--label="}));
  EXPECT_TRUE(passes({"t", "run", "--label", "56k Modem"}));
}

TEST(FlagTable, ChoiceOutsideItsListIsRejected) {
  EXPECT_TRUE(passes({"t", "run", "--cc", "bbr"}));
  EXPECT_FALSE(passes({"t", "run", "--cc", "Reno"}));
  EXPECT_FALSE(passes({"t", "run", "--cc", "reno|cubic"}));
  EXPECT_FALSE(passes({"t", "run", "--cc", ""}));
  EXPECT_EQ(check({"t", "run", "--cc=tahoe"}).second,
            "--cc: expects one of reno|cubic|bbr, got 'tahoe'\n");
}

TEST(FlagTable, FlagUnknownToTheCommandIsRejected) {
  // --into is merge's, --threads is run's: each command reads only its own
  // rows, though the tool knows both.
  const auto [ok, err] = check({"t", "run", "--into", "m"});
  EXPECT_FALSE(ok);
  EXPECT_NE(err.find("--into"), std::string::npos) << err;
  EXPECT_FALSE(passes({"t", "merge", "a", "--into", "m", "--threads", "2"}, 1));
  EXPECT_FALSE(passes({"t", "run", "--scael", "0.1"}));
  EXPECT_TRUE(passes({"t", "run", "--help"}));
  EXPECT_TRUE(passes({"t", "merge", "a", "--into", "m", "--help"}, 1));
}

TEST(FlagTable, RequiredRowMustBeGiven) {
  EXPECT_EQ(check({"t", "merge", "a"}, 1).second, "--into: required\n");
  EXPECT_TRUE(passes({"t", "merge", "a", "b", "--into", "m"}, 1));
}

TEST(FlagTable, FlagGivenWithoutTheFlagItNeedsIsRejected) {
  const util::CommandSpec traced[] = {
      {"run",
       "",
       {{"trace", util::FlagKind::kPath, "PATH"},
        util::beside({"trace-play", util::FlagKind::kText, "U,P"}, "trace"),
        {"status-port", util::FlagKind::kInt, "P", 0, 65535},
        util::beside({"status-hold-ms", util::FlagKind::kInt, "N", 0, 10},
                     "status-port")}}};
  const auto run = [&](std::initializer_list<const char*> argv) {
    std::vector<const char*> v(argv);
    const util::Args args(static_cast<int>(v.size()), v.data(), traced);
    std::ostringstream err;
    const bool ok = util::check_flags(args, traced[0], err);
    return std::make_pair(ok, err.str());
  };
  EXPECT_TRUE(run({"t", "run", "--trace", "t.json", "--trace-play", "1,2"})
                  .first);
  EXPECT_TRUE(run({"t", "run", "--trace", "t.json"}).first);
  const auto [ok, err] = run({"t", "run", "--trace-play", "1,2"});
  EXPECT_FALSE(ok);
  EXPECT_EQ(err,
            "--trace-play: given without --trace, which it only matters "
            "beside\n");
  // A value the row rejects is reported as such, not as the missing flag.
  EXPECT_EQ(run({"t", "run", "--status-hold-ms", "11"}).second,
            "--status-hold-ms: expects an integer in [0, 10], got '11'\n");
  EXPECT_TRUE(
      run({"t", "run", "--status-port", "0", "--status-hold-ms", "10"}).first);
}

TEST(FlagTable, BareFlagBeforeAPositionalTakesNoValue) {
  const std::vector<const char*> argv = {"t", "--faults", "run", "--help",
                                         "x"};
  const util::Args args(static_cast<int>(argv.size()), argv.data(), kTool);
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"run", "x"}));
  EXPECT_TRUE(args.has("faults"));
  EXPECT_TRUE(passes({"t", "--faults", "run", "--threads", "2"}));
  EXPECT_FALSE(passes({"t", "run", "--faults=1"}));
}

TEST(FlagTable, UsageRendersEveryRowOfEveryCommand) {
  EXPECT_EQ(util::usage("t", kTool),
            "usage: t run [--faults] [--label TEXT] [--out DIR] [--threads N]"
            " [--scale X] [--watch SEC] [--cc reno|cubic|bbr]\n"
            "       t merge DIR... --into DIR\n");
  EXPECT_EQ(util::usage("t", {kTool + 1, 1}),
            "usage: t merge DIR... --into DIR\n");
}

TEST(SmallVec, StaysInlineUpToCapacity) {
  util::SmallVec<int, 3> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v.back(), 3);
}

TEST(SmallVec, SpillsToHeapAndKeepsContents) {
  util::SmallVec<int, 3> v;
  for (int i = 0; i < 20; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVec, CopyAndMovePreserveElements) {
  util::SmallVec<std::pair<int, int>, 2> v;
  v.emplace_back(1, 2);
  v.emplace_back(3, 4);
  v.emplace_back(5, 6);  // spilled
  auto copy = v;
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[2], (std::pair<int, int>{5, 6}));
  auto moved = std::move(v);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[0], (std::pair<int, int>{1, 2}));

  // Inline move: elements are moved individually.
  util::SmallVec<int, 4> inline_v;
  inline_v.push_back(7);
  auto inline_moved = std::move(inline_v);
  ASSERT_EQ(inline_moved.size(), 1u);
  EXPECT_EQ(inline_moved[0], 7);
}

TEST(SmallVec, MoveOnlyElements) {
  util::SmallVec<std::unique_ptr<int>, 2> v;
  v.push_back(std::make_unique<int>(1));
  v.push_back(std::make_unique<int>(2));
  v.push_back(std::make_unique<int>(3));
  auto moved = std::move(v);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(*moved[2], 3);
}

TEST(SmallVec, ClearKeepsHeapCapacityAndRangeForWorks) {
  util::SmallVec<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  const auto cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
  v.push_back(42);
  int sum = 0;
  for (const int x : v) sum += x;
  EXPECT_EQ(sum, 42);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  const auto escaped = [](std::string_view s) {
    std::string out;
    util::json_escape(out, s);
    return out;
  };
  EXPECT_EQ(escaped("plain text"), "plain text");
  EXPECT_EQ(escaped("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escaped("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escaped("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(escaped(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // Appends to existing content rather than replacing it.
  std::string out = "pre:";
  util::json_escape(out, "x");
  EXPECT_EQ(out, "pre:x");
}

TEST(JsonQuote, WrapsAndEscapes) {
  EXPECT_EQ(util::json_quote("abc"), "\"abc\"");
  EXPECT_EQ(util::json_quote(""), "\"\"");
  EXPECT_EQ(util::json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(util::json_quote("line\nbreak"), "\"line\\nbreak\"");
}

TEST(Symbol, InterningGivesOneIdPerDistinctString) {
  const util::Symbol a("US/CNN");
  const util::Symbol b(std::string("US/CNN"));
  const util::Symbol c("UK/BBC");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.str(), "US/CNN");
  EXPECT_EQ(c.str(), "UK/BBC");
}

TEST(Symbol, DefaultIsEmptyStringWithIdZero) {
  const util::Symbol s;
  EXPECT_EQ(s.id(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.str(), "");
  EXPECT_EQ(s, util::Symbol(""));
}

TEST(Symbol, ImplicitStringConversionRoundTrips) {
  const util::Symbol s("Pentium II / 128-256");
  const std::string& back = s;
  EXPECT_EQ(back, "Pentium II / 128-256");
  EXPECT_EQ(s.size(), back.size());
  std::map<std::string, int> m;
  m[s] = 7;  // usable as an ordered-map key via the conversion
  EXPECT_EQ(m.count("Pentium II / 128-256"), 1u);
}

TEST(Symbol, OrderingFollowsStringOrder) {
  const util::Symbol a("alpha"), b("beta");
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
}

TEST(Symbol, ConcurrentInterningIsConsistent) {
  // Many threads interning overlapping vocabularies must agree on ids.
  constexpr int kThreads = 8, kStrings = 64;
  std::vector<std::vector<std::uint32_t>> ids(
      kThreads, std::vector<std::uint32_t>(kStrings));
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &ids] {
      for (int i = 0; i < kStrings; ++i) {
        ids[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            util::Symbol("concurrent-" + std::to_string(i)).id();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<std::size_t>(t)], ids[0]);
  }
  std::set<std::uint32_t> distinct(ids[0].begin(), ids[0].end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kStrings));
}

enum class Color { kRed, kGreen, kBlue };

TEST(ByteCodec, RoundTripsEveryOperationLittleEndian) {
  util::ByteWriter w;
  w.u8(0xAB);
  w.u32(0x01020304);
  w.i32(-7);
  w.u64(0x1122334455667788ull);
  w.i64(-1);
  w.f64(-0.0);
  w.boolean(true);
  w.enum_u8(Color::kBlue, 3);
  w.enum_i32(Color::kGreen, 3);
  w.str("hello");
  w.varint(300);
  w.varint(~0ull);
  w.list(std::vector<int>{5, -6}, 8, [&w](int v) { w.i64(v); });
  w.map(std::map<std::string, int>{{"a", 1}, {"b", 2}}, 8,
        [&w](int v) { w.u8(static_cast<std::uint8_t>(v)); });
  EXPECT_EQ(w.bytes().substr(1, 4), std::string("\x04\x03\x02\x01", 4));
  EXPECT_EQ(w.bytes().substr(w.bytes().find("hello") - 4, 4),
            std::string("\x05\0\0\0", 4));

  util::ByteReader r(w.bytes());
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  int c = 0;
  std::uint64_t d = 0;
  std::int64_t e = 0;
  double f = 1.0;
  bool g = false;
  Color h = Color::kRed, i = Color::kRed;
  std::string j;
  std::uint32_t k = 0;
  std::uint64_t l = 0;
  std::vector<int> m;
  std::map<std::string, int> n;
  r.u8(a);
  r.u32(b);
  r.i32(c);
  r.u64(d);
  r.i64(e);
  r.f64(f);
  r.boolean(g);
  r.enum_u8(h, 3);
  r.enum_i32(i, 3);
  r.str(j);
  r.varint(k);
  r.varint(l);
  r.list(m, 8, [&r](int& v) { r.i64(v); });
  r.map(n, 8, [&r](int& v) { r.u8(v); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0x01020304u);
  EXPECT_EQ(c, -7);
  EXPECT_EQ(d, 0x1122334455667788ull);
  EXPECT_EQ(e, -1);
  EXPECT_TRUE(std::signbit(f));
  EXPECT_TRUE(g);
  EXPECT_EQ(h, Color::kBlue);
  EXPECT_EQ(i, Color::kGreen);
  EXPECT_EQ(j, "hello");
  EXPECT_EQ(k, 300u);
  EXPECT_EQ(l, ~0ull);
  EXPECT_EQ(m, (std::vector<int>{5, -6}));
  EXPECT_EQ(n, (std::map<std::string, int>{{"a", 1}, {"b", 2}}));
}

TEST(ByteCodec, FirstFailureIsStickyAndLeavesTargetsUntouched) {
  util::ByteReader r(std::string_view("\x01\x02\x03", 3));
  std::uint32_t v = 42;
  r.u32(v);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(r.remaining(), 0u);
  std::uint8_t byte = 9;
  r.u8(byte);  // bytes were left, but the reader has already failed
  EXPECT_EQ(byte, 9);
  EXPECT_FALSE(r.ok());
}

TEST(ByteCodec, RejectsValuesOutsideTheirTargetOrRange) {
  const auto rejects = [](const std::string& bytes, auto read) {
    util::ByteReader r(bytes);
    read(r);
    return !r.ok();
  };
  EXPECT_TRUE(rejects("\x02", [](auto& r) { bool b; r.boolean(b); }));
  EXPECT_TRUE(rejects("\x03", [](auto& r) { Color c; r.enum_u8(c, 3); }));
  EXPECT_TRUE(rejects(std::string("\xFF\xFF\xFF\xFF", 4),
                      [](auto& r) { Color c; r.enum_i32(c, 3); }));
  // An i64 that does not fit an int target.
  EXPECT_TRUE(rejects(std::string("\0\0\0\0\1\0\0\0", 8),
                      [](auto& r) { int n; r.i64(n); }));
  // A u32 varint target given 2^32, a u64 given an eleventh byte, and a
  // tenth byte carrying more than the u64's top bit.
  EXPECT_TRUE(rejects("\x80\x80\x80\x80\x10",
                      [](auto& r) { std::uint32_t n; r.varint(n); }));
  EXPECT_TRUE(rejects(std::string(10, '\x80') + '\x01',
                      [](auto& r) { std::uint64_t n; r.varint(n); }));
  EXPECT_TRUE(rejects(std::string(9, '\x80') + '\x02',
                      [](auto& r) { std::uint64_t n; r.varint(n); }));
  EXPECT_TRUE(rejects(std::string("\x05\0\0\0abc", 7),
                      [](auto& r) { std::string s; r.str(s); }));
}

TEST(ByteCodec, CountsAreBoundedBeforeAllocating) {
  // A list claiming 1000 one-byte elements with 3 bytes left, or more than
  // its cap, fails before the vector is sized.
  util::ByteWriter w;
  w.u32(1000);
  for (const std::uint8_t b : {1, 2, 3}) w.u8(b);
  std::vector<std::uint8_t> v{7};
  util::ByteReader r(w.bytes());
  r.list(v, 1u << 20, [&r](std::uint8_t& x) { r.u8(x); });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(v, std::vector<std::uint8_t>{7});

  util::ByteWriter capped;
  capped.list(std::vector<std::uint8_t>{1, 2, 3}, 0,
              [&capped](std::uint8_t x) { capped.u8(x); });
  util::ByteReader rc(capped.bytes());
  rc.list(v, 2, [&rc](std::uint8_t& x) { rc.u8(x); });
  EXPECT_FALSE(rc.ok());

  // Map keys must arrive strictly ascending, as a std::map writes them.
  util::ByteWriter unsorted;
  unsorted.u32(2);
  unsorted.str("b");
  unsorted.str("a");
  std::map<std::string, int> m;
  util::ByteReader rm(unsorted.bytes());
  rm.map(m, 8, [](int&) {});
  EXPECT_FALSE(rm.ok());
}

TEST(Md5, Rfc1321TestVectors) {
  EXPECT_EQ(util::md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(util::md5_hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(util::md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(util::md5_hex("message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(util::md5_hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      util::md5_hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                    "0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(util::md5_hex("1234567890123456789012345678901234567890"
                          "1234567890123456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalUpdatesMatchOneShot) {
  util::Md5 h;
  h.update("mess");
  h.update("age ");
  h.update("digest");
  EXPECT_EQ(h.hex_digest(), util::md5_hex("message digest"));
}

TEST(Md5, FileDigestMatchesInMemory) {
  const std::string path = ::testing::TempDir() + "/md5_test.bin";
  // Spans multiple 64-byte blocks and a ragged tail.
  std::string content;
  for (int i = 0; i < 1000; ++i) content += static_cast<char>(i % 251);
  {
    std::ofstream os(path, std::ios::binary);
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  EXPECT_EQ(util::md5_file_hex(path), util::md5_hex(content));
  EXPECT_EQ(util::md5_file_hex(path + ".does-not-exist"), "");
}

}  // namespace
}  // namespace rv

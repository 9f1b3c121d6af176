// Unit tests: util module (JSON, statistics, CSV, units).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace p4s::util {
namespace {

// ---------- Json construction & type queries ----------

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_FALSE(j.is_object());
}

TEST(Json, BoolRoundTrip) {
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_FALSE(Json(false).as_bool());
  EXPECT_EQ(Json(true).dump(), "true");
}

TEST(Json, IntPreserves64Bits) {
  const std::int64_t big = 1234567890123456789LL;
  Json j(big);
  EXPECT_TRUE(j.is_int());
  EXPECT_EQ(j.as_int(), big);
  EXPECT_EQ(Json::parse(j.dump()).as_int(), big);
}

TEST(Json, UnsignedConstruction) {
  Json j(42u);
  EXPECT_TRUE(j.is_int());
  EXPECT_EQ(j.as_int(), 42);
}

TEST(Json, DoubleRoundTrip) {
  Json j(3.25);
  EXPECT_TRUE(j.is_double());
  EXPECT_DOUBLE_EQ(Json::parse(j.dump()).as_double(), 3.25);
}

TEST(Json, IntCoercesToDouble) {
  EXPECT_DOUBLE_EQ(Json(7).as_double(), 7.0);
}

TEST(Json, DoubleCoercesToInt) {
  EXPECT_EQ(Json(7.9).as_int(), 7);
}

TEST(Json, DoubleOutsideInt64RangeThrowsOnAsInt) {
  EXPECT_EQ(Json(-0x1p63).as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json(0x1p62).as_int(), std::int64_t{1} << 62);
  EXPECT_THROW(Json(0x1p63).as_int(), JsonError);
  EXPECT_THROW(Json(-0x1p64).as_int(), JsonError);
  EXPECT_THROW(Json(1e300).as_int(), JsonError);
  EXPECT_THROW(Json(std::nan("")).as_int(), JsonError);
  EXPECT_THROW(Json(HUGE_VAL).as_int(), JsonError);
  // Parsed numbers take the same path (a manifest "version": 1e300).
  EXPECT_THROW(Json::parse(R"({"version": 1e300})").at("version").as_int(),
               JsonError);
}

TEST(Json, StringEscaping) {
  Json j("line\n\"quoted\"\tback\\slash");
  const std::string dumped = j.dump();
  EXPECT_EQ(Json::parse(dumped).as_string(), j.as_string());
}

TEST(Json, ControlCharactersEscaped) {
  std::string s = "a";
  s.push_back('\x01');
  Json j(s);
  EXPECT_NE(j.dump().find("\\u0001"), std::string::npos);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), s);
}

TEST(Json, ObjectAccess) {
  Json j = Json::object();
  j["alpha"] = 1;
  j["beta"] = "two";
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at("alpha").as_int(), 1);
  EXPECT_TRUE(j.contains("beta"));
  EXPECT_FALSE(j.contains("gamma"));
  EXPECT_THROW(j.at("gamma"), JsonError);
}

TEST(Json, FindReturnsNulloptForMissing) {
  Json j = Json::object();
  j["x"] = 5;
  EXPECT_TRUE(j.find("x").has_value());
  EXPECT_FALSE(j.find("y").has_value());
  EXPECT_FALSE(Json(3).find("x").has_value());
}

TEST(Json, ArrayAccess) {
  Json j = Json::array();
  j.as_array().push_back(Json(1));
  j.as_array().push_back(Json("two"));
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.as_array()[1].as_string(), "two");
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(Json(1).as_string(), JsonError);
  EXPECT_THROW(Json("x").as_int(), JsonError);
  EXPECT_THROW(Json("x").as_bool(), JsonError);
  EXPECT_THROW(Json(1).size(), JsonError);
}

TEST(Json, DeterministicKeyOrder) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["alpha"] = 2;
  EXPECT_EQ(j.dump(), R"({"alpha":2,"zebra":1})");
}

TEST(Json, PrettyPrint) {
  Json j = Json::object();
  j["a"] = 1;
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(Json, Equality) {
  Json a = Json::object();
  a["k"] = 1;
  Json b = Json::object();
  b["k"] = 1;
  EXPECT_TRUE(a == b);
  b["k"] = 2;
  EXPECT_FALSE(a == b);
}

// ---------- Json parsing ----------

TEST(JsonParse, NestedDocument) {
  const Json j = Json::parse(
      R"({"flow":{"src_ip":"10.0.0.1","ports":[1,2,3]},"ok":true,)"
      R"("rate":1.5e3,"none":null})");
  EXPECT_EQ(j.at("flow").at("src_ip").as_string(), "10.0.0.1");
  EXPECT_EQ(j.at("flow").at("ports").as_array()[2].as_int(), 3);
  EXPECT_TRUE(j.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(j.at("rate").as_double(), 1500.0);
  EXPECT_TRUE(j.at("none").is_null());
}

TEST(JsonParse, WhitespaceTolerant) {
  const Json j = Json::parse("  {  \"a\" : [ 1 , 2 ]\n}\t");
  EXPECT_EQ(j.at("a").size(), 2u);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_EQ(Json::parse("{}").size(), 0u);
  EXPECT_EQ(Json::parse("[]").size(), 0u);
}

TEST(JsonParse, NegativeAndExponent) {
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e-3").as_double(), -0.0015);
}

TEST(JsonParse, IntegerOverflowBecomesDouble) {
  const Json j = Json::parse("99999999999999999999999999");
  EXPECT_TRUE(j.is_double());
}

TEST(JsonParse, UnicodeEscape) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");
}

TEST(JsonParse, MalformedInputsThrow) {
  for (const char* bad :
       {"", "{", "}", "[1,", "{\"a\":}", "tru", "nul", "{\"a\" 1}",
        "\"unterminated", "[1 2]", "{\"a\":1} trailing", "{'a':1}",
        "+1", "01x"}) {
    EXPECT_THROW(Json::parse(bad), JsonError) << "input: " << bad;
  }
}

TEST(JsonParse, DeepNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += "]";
  Json j = Json::parse(deep);
  for (int i = 0; i < 100; ++i) {
    Json inner = j.as_array()[0];  // copy out before reassigning
    j = std::move(inner);
  }
  EXPECT_EQ(j.as_int(), 1);
}

TEST(JsonParse, NestingPastTheCapThrows) {
  // The parser recurses once per container, so unbounded nesting would
  // overflow the stack. Up to 256 levels parse, deeper input throws.
  const auto nested = [](const std::string& open, int levels,
                         const std::string& close) {
    std::string text;
    for (int i = 0; i < levels; ++i) text += open;
    text += "1";
    for (int i = 0; i < levels; ++i) text += close;
    return text;
  };
  EXPECT_NO_THROW(Json::parse(nested("[", 256, "]")));
  EXPECT_NO_THROW(Json::parse(nested("{\"a\":", 256, "}")));
  EXPECT_THROW(Json::parse(nested("[", 257, "]")), JsonError);
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
  std::string chain;
  for (int i = 0; i < 100000; ++i) chain += "{\"a\":";
  EXPECT_THROW(Json::parse(chain), JsonError);
}

// ---------- Stats ----------

TEST(Stats, JainAllEqualIsOne) {
  const double xs[] = {5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_fairness(xs).value(), 1.0);
}

TEST(Stats, JainSingleFlowIsOne) {
  const double xs[] = {123.0};
  EXPECT_DOUBLE_EQ(jain_fairness(xs).value(), 1.0);
}

TEST(Stats, JainWorstCase) {
  // One flow hogging everything among N: F = 1/N.
  const double xs[] = {10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(xs).value(), 0.25);
}

TEST(Stats, JainKnownValue) {
  // F = (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
  const double xs[] = {1.0, 2.0, 3.0};
  EXPECT_NEAR(jain_fairness(xs).value(), 36.0 / 42.0, 1e-12);
}

TEST(Stats, JainUndefinedWhenIdle) {
  // No allocations, or nothing actually flowing: the index is undefined
  // (an idle link must not report "perfectly fair").
  EXPECT_FALSE(jain_fairness({}).has_value());
  const double zeros[] = {0.0, 0.0};
  EXPECT_FALSE(jain_fairness(zeros).has_value());
}

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, RunningEmptyAndSingle) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Stats, RunningReset) {
  RunningStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, PercentileInterpolation) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(Stats, PercentileClampsQ) {
  std::vector<double> xs = {1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 2.0), 3.0);
}

TEST(Stats, PercentileDuplicatesAndUnsortedInput) {
  // Sorted: {1, 2, 5, 5, 5}.
  std::vector<double> xs = {5, 1, 5, 5, 2};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  // Interpolating between equal ranks stays exact.
  EXPECT_DOUBLE_EQ(percentile({4.0, 4.0}, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 4.0, 8.0}, 0.25), 4.0);
}

// ---------- CSV ----------

TEST(Csv, HeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.cell(std::uint64_t{1}).cell("x").end_row();
  csv.cell(2.5).cell(std::int64_t{-3}).end_row();
  EXPECT_EQ(out.str(), "a,b\n1,x\n2.5,-3\n");
}

TEST(Csv, QuotingSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.cell("has,comma").cell("has\"quote").cell("has\nnewline").end_row();
  EXPECT_EQ(out.str(), "\"has,comma\",\"has\"\"quote\",\"has\nnewline\"\n");
}

TEST(Csv, PlainStringsUnquoted) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.cell("plain").end_row();
  EXPECT_EQ(out.str(), "plain\n");
}

// ---------- Units ----------

TEST(Units, TimeConversions) {
  EXPECT_EQ(units::seconds(2), 2'000'000'000ULL);
  EXPECT_EQ(units::milliseconds(3), 3'000'000ULL);
  EXPECT_EQ(units::microseconds(5), 5'000ULL);
  EXPECT_DOUBLE_EQ(units::to_seconds(units::seconds(4)), 4.0);
  EXPECT_DOUBLE_EQ(units::to_milliseconds(units::milliseconds(7)), 7.0);
  EXPECT_EQ(units::seconds_f(0.5), units::milliseconds(500));
}

TEST(Units, Bandwidth) {
  EXPECT_EQ(units::gbps(10), 10'000'000'000ULL);
  EXPECT_EQ(units::mbps(100), 100'000'000ULL);
}

TEST(Units, TransmissionTime) {
  // 1500 bytes at 1 Gbps = 12 us.
  EXPECT_EQ(units::transmission_time(1500, units::gbps(1)),
            units::microseconds(12));
  // 1 byte at 8 bps = 1 s.
  EXPECT_EQ(units::transmission_time(1, 8), units::seconds(1));
}

TEST(Units, BdpMatchesPaperExample) {
  // §5.4.1: 10 Gbps x 100 ms = 125 MB.
  EXPECT_EQ(units::bdp_bytes(units::gbps(10), units::milliseconds(100)),
            125'000'000ULL);
}

TEST(Units, TransmissionTimeNoOverflowJumboOnSlowLink) {
  // 9000-byte jumbo on a 1 kbps link: 72 s; must not overflow.
  EXPECT_EQ(units::transmission_time(9000, units::kbps(1)),
            units::seconds(72));
}

}  // namespace
}  // namespace p4s::util

// JSON-decoding robustness: seeded bit flips, truncations and splices of
// the shipped JSON documents (the sample experiment config, the example
// measurement programs and the committed Report_v1 lines) go through
// util::Json::parse — the one decoder behind configs, Logstash lines,
// mpl programs, psconfig meshes and the store's WAL, segment and
// manifest files. Every input must either throw JsonError or parse, and
// the dump of what parsed must parse again. This suite runs under the
// ASan/UBSan CI job with several P4S_SEED values.
//
// It deliberately does not assert parse(dump(v)) == v: an integral
// double (100.0) dumps as "100" and re-parses as an int, and -0.0 dumps
// as "-0" and re-parses as the int 0.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "mutate.hpp"
#include "util/json.hpp"

using p4s::test::read_file;
using p4s::util::Json;
using p4s::util::JsonError;

namespace {

// Every shipped JSON document: whole files, and each Report_v1 line.
std::vector<std::string> corpus() {
  const std::filesystem::path examples = P4S_EXAMPLES_DIR;
  std::vector<std::string> docs = {
      read_file(examples / "experiment.sample.json")};
  for (const auto& entry :
       std::filesystem::directory_iterator(examples / "programs")) {
    if (entry.path().extension() == ".json") {
      docs.push_back(read_file(entry.path()));
    }
  }
  for (const char* name : {"fig9.reports.txt", "engines.reports.txt"}) {
    std::istringstream lines(
        read_file(std::filesystem::path(P4S_TRACE_DATA_DIR) / name));
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty()) docs.push_back(line);
    }
  }
  return docs;
}

// Typed reads of every number: as_int() must return or throw JsonError
// (never cast a double it cannot hold).
void read_numbers(const Json& v) {
  if (v.is_number()) {
    try {
      (void)v.as_int();
    } catch (const JsonError&) {
    }
    (void)v.as_double();
  } else if (v.is_array()) {
    for (const Json& el : v.as_array()) read_numbers(el);
  } else if (v.is_object()) {
    for (const auto& [key, el] : v.as_object()) read_numbers(el);
  }
}

// Returns whether `text` parsed. Anything but JsonError escapes and fails
// the test.
bool parse_checked(const std::string& text) {
  Json v;
  try {
    v = Json::parse(text);
  } catch (const JsonError&) {
    return false;
  }
  read_numbers(v);
  for (const int indent : {0, 2}) {
    const std::string dumped = v.dump(indent);
    EXPECT_NO_THROW(Json::parse(dumped)) << "dump does not parse: " << dumped;
  }
  return true;
}

TEST(JsonRobustness, ShippedDocumentsParse) {
  const auto docs = corpus();
  ASSERT_GT(docs.size(), 4u);  // whole files plus report lines
  for (const auto& doc : docs) EXPECT_TRUE(parse_checked(doc)) << doc;
}

TEST(JsonRobustness, SeededBitFlipsParseOrThrowJsonError) {
  const auto docs = corpus();
  p4s::test::Mutator m;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = docs[m.below(docs.size())];
    for (std::size_t f = 1 + m.below(4); f > 0; --f) m.flip_bit(text);
    parse_checked(text);
  }
}

TEST(JsonRobustness, TruncationsThrowUntilTheDocumentIsWhole) {
  // Every prefix of a few documents, then random cuts of the rest. Each
  // document is one object, so a prefix parses exactly when it holds the
  // whole object (trailing whitespace aside).
  const auto docs = corpus();
  p4s::test::Mutator m(1);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const std::string& doc = docs[d];
    const std::size_t end = doc.find_last_not_of(" \t\r\n") + 1;
    const auto check = [&doc, end](std::size_t len) {
      EXPECT_EQ(parse_checked(doc.substr(0, len)), len >= end)
          << "document cut at " << len << " of " << doc.size();
    };
    if (d < 4) {
      for (std::size_t len = 0; len <= doc.size(); ++len) check(len);
    } else {
      check(m.below(doc.size()));
    }
  }
}

TEST(JsonRobustness, SplicesParseOrThrowJsonError) {
  // A prefix of one document joined to a suffix of another: unbalanced
  // brackets, keys cut mid-string, values of the wrong kind.
  const auto docs = corpus();
  p4s::test::Mutator m(2);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string& a = docs[m.below(docs.size())];
    const std::string& b = docs[m.below(docs.size())];
    const std::string head = a.substr(0, m.below(a.size() + 1));
    const std::string tail = b.substr(m.below(b.size() + 1));
    parse_checked(head + tail);
    // The same head repeated nests it: brackets pile up past any
    // shipped depth.
    std::string nested;
    for (std::size_t r = 1 + m.below(64); r > 0; --r) {
      nested += head.substr(0, 32);
    }
    parse_checked(nested + tail);
  }
}

}  // namespace

// Deterministic mini-fuzz of the text parsers: arbitrary byte soup and
// structured-but-corrupted inputs must parse cleanly or return
// std::nullopt — never crash, hang, or produce an invalid Graph.

#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "graph/io.h"
#include "service/wire.h"
#include "util/rng.h"

namespace impreg {
namespace {

std::string RandomBytes(Rng& rng, int length) {
  std::string out;
  out.reserve(length);
  for (int i = 0; i < length; ++i) {
    out.push_back(static_cast<char>(rng.NextBounded(256)));
  }
  return out;
}

std::string RandomTokenSoup(Rng& rng, int tokens) {
  static const char* kTokens[] = {"0",  "1",    "-1", "2.5", "#",
                                  "%",  "nodes", "x",  "1e9", "999999",
                                  "\n", " ",     "\t", "-",   "3 4"};
  std::string out;
  for (int i = 0; i < tokens; ++i) {
    out += kTokens[rng.NextBounded(std::size(kTokens))];
    out += rng.NextBernoulli(0.3) ? "\n" : " ";
  }
  return out;
}

void CheckParsedGraphIsValid(const std::optional<Graph>& g) {
  if (!g.has_value()) return;
  // Whatever parsed must be internally consistent.
  double volume = 0.0;
  for (NodeId u = 0; u < g->NumNodes(); ++u) {
    const auto heads = g->Heads(u);
    const auto weights = g->Weights(u);
    for (std::size_t k = 0; k < heads.size(); ++k) {
      ASSERT_TRUE(g->IsValidNode(heads[k]));
      ASSERT_GT(weights[k], 0.0);
    }
    volume += g->Degree(u);
  }
  EXPECT_NEAR(volume, g->TotalVolume(), 1e-9 * (1.0 + volume));
}

TEST(IoFuzzTest, EdgeListSurvivesRandomBytes) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string junk = RandomBytes(rng, 1 + trial % 300);
    CheckParsedGraphIsValid(ParseEdgeList(junk));
  }
}

TEST(IoFuzzTest, EdgeListSurvivesTokenSoup) {
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    CheckParsedGraphIsValid(ParseEdgeList(RandomTokenSoup(rng, 1 + trial % 40)));
  }
}

TEST(IoFuzzTest, MetisSurvivesRandomBytes) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    CheckParsedGraphIsValid(ParseMetis(RandomBytes(rng, 1 + trial % 300)));
  }
}

TEST(IoFuzzTest, MetisSurvivesTokenSoup) {
  Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    CheckParsedGraphIsValid(ParseMetis(RandomTokenSoup(rng, 1 + trial % 40)));
  }
}

TEST(IoFuzzTest, NonFiniteWeightsAreRejected) {
  // `w <= 0` style filters are false for NaN — the parsers must test
  // the acceptance condition instead and reject every non-finite
  // spelling the number parser understands.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "Inf", "-inf",
                          "infinity", "1e999", "-1e999"}) {
    const std::string edge_list = std::string("0 1 ") + bad + "\n";
    EXPECT_FALSE(ParseEdgeList(edge_list).has_value()) << edge_list;
    const GraphParseResult parsed = ParseEdgeListOrError(edge_list);
    EXPECT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_line, 1);
    EXPECT_FALSE(parsed.error.empty());

    const std::string metis =
        std::string("2 1 001\n2 ") + bad + "\n1 " + bad + "\n";
    EXPECT_FALSE(ParseMetis(metis).has_value()) << metis;
    const GraphParseResult metis_parsed = ParseMetisOrError(metis);
    EXPECT_FALSE(metis_parsed.ok());
    EXPECT_EQ(metis_parsed.error_line, 2);
  }
}

TEST(IoFuzzTest, TruncatedMetisHeadersAndBodies) {
  const std::string valid = "4 4\n2 3\n1 3\n1 2 4\n3\n";
  ASSERT_TRUE(ParseMetis(valid).has_value());
  // Every proper prefix must be rejected (missing node lines or arcs),
  // never crash or mis-parse. (The prefix missing only the final
  // newline is excluded: getline treats EOF as end-of-line, so it is
  // the same document.)
  for (std::size_t len = 0; len + 1 < valid.size(); ++len) {
    const std::string prefix = valid.substr(0, len);
    const GraphParseResult parsed = ParseMetisOrError(prefix);
    EXPECT_FALSE(parsed.ok()) << "prefix of length " << len;
    EXPECT_FALSE(parsed.error.empty());
  }
  // A header promising more nodes/arcs than the body delivers.
  EXPECT_FALSE(ParseMetis("5 4\n2 3\n1 3\n1 2 4\n3\n").has_value());
  EXPECT_FALSE(ParseMetis("4 9\n2 3\n1 3\n1 2 4\n3\n").has_value());
}

TEST(IoFuzzTest, ParseErrorsNameTheFailingLine) {
  const GraphParseResult bad_id = ParseEdgeListOrError("0 1\n2 -3\n4 5\n");
  EXPECT_FALSE(bad_id.ok());
  EXPECT_EQ(bad_id.error_line, 2);

  const GraphParseResult huge_id =
      ParseEdgeListOrError("0 1\n1 99999999999\n");
  EXPECT_FALSE(huge_id.ok());
  EXPECT_EQ(huge_id.error_line, 2);

  const GraphParseResult undercount =
      ParseEdgeListOrError("# nodes 2\n0 1\n2 3\n");
  EXPECT_FALSE(undercount.ok());
  EXPECT_EQ(undercount.error_line, 0);  // File-level inconsistency.

  const GraphParseResult good = ParseEdgeListOrError("0 1\n1 2 0.5\n");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.error.empty());
  EXPECT_EQ(good.graph->NumNodes(), 3);
}

TEST(IoFuzzTest, CrlfVariantsParseIdenticallyAndErrorsKeepTheirLine) {
  // A document must parse to the same graph whether it arrives with
  // Unix or Windows line endings (and with trailing blanks sprinkled
  // on every line).
  const std::string unix_doc = "# nodes 6\n0 1\n1 2 2.5\n3 4\n4 5 0.25\n";
  std::string dos_doc, padded_doc;
  for (char c : unix_doc) {
    if (c == '\n') {
      dos_doc += "\r\n";
      padded_doc += " \t\n";
    } else {
      dos_doc += c;
      padded_doc += c;
    }
  }
  const auto base = ParseEdgeList(unix_doc);
  ASSERT_TRUE(base.has_value());
  for (const std::string* variant : {&dos_doc, &padded_doc}) {
    const auto g = ParseEdgeList(*variant);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->NumNodes(), base->NumNodes());
    EXPECT_EQ(g->NumEdges(), base->NumEdges());
    EXPECT_DOUBLE_EQ(g->EdgeWeight(1, 2), 2.5);
    EXPECT_DOUBLE_EQ(g->EdgeWeight(4, 5), 0.25);
  }

  // Error reporting still pins the failing line under CRLF: the '\r'
  // must neither shift the count nor mask the bad field.
  const GraphParseResult bad = ParseEdgeListOrError("0 1\r\n2 -3\r\n4 5\r\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error_line, 2);

  const GraphParseResult bad_metis =
      ParseMetisOrError("3 2\r\n2\r\n1 x 3\r\n2\r\n");
  EXPECT_FALSE(bad_metis.ok());
}

TEST(IoFuzzTest, WireRequestsSurviveRandomBytesAndTokenSoup) {
  // The JSONL request parser faces the same adversary as the graph
  // parsers: arbitrary bytes must parse-or-error, never crash, and a
  // false return must carry a non-empty error.
  Rng rng(6);
  for (int trial = 0; trial < 300; ++trial) {
    QueryRequest request;
    std::string error;
    const std::string junk = trial % 2 == 0
                                 ? RandomBytes(rng, 1 + trial % 200)
                                 : RandomTokenSoup(rng, 1 + trial % 30);
    if (!ParseQueryRequest(junk, &request, &error)) {
      EXPECT_FALSE(error.empty()) << junk;
    }
  }
}

TEST(IoFuzzTest, WireEditWeightsAndIdsAreValidatedNotTruncated) {
  QueryRequest request;
  std::string error;

  // Bad weights on both mutation ops: zero/negative on add, negative
  // or non-finite on either — all must be parse errors that could
  // never reach the engine's IMPREG_CHECK abort.
  for (const char* bad :
       {R"({"op": "add-edge", "u": 0, "v": 1, "weight": 0})",
        R"({"op": "add-edge", "u": 0, "v": 1, "weight": -2})",
        R"({"op": "add-edge", "u": 0, "v": 1, "weight": 1e999})",
        R"({"op": "remove-edge", "u": 0, "v": 1, "weight": -0.5})",
        R"({"op": "remove-edge", "u": 0, "v": 1, "weight": 1e999})"}) {
    EXPECT_FALSE(ParseQueryRequest(bad, &request, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }

  // Ids that do not fit NodeId (or are fractional) must error, never
  // silently truncate into a different node.
  for (const char* bad :
       {R"({"op": "add-edge", "u": 3000000000, "v": 1})",
        R"({"op": "add-edge", "u": 0.5, "v": 1})",
        R"({"op": "remove-edge", "u": 0, "v": -3000000000})",
        R"({"op": "remove-edge", "u": 1e999, "v": 1})",
        R"({"method": "ppr", "seeds": [98765432109876]})",
        R"({"method": "ppr", "seeds": [1.5]})"}) {
    EXPECT_FALSE(ParseQueryRequest(bad, &request, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }

  // Query fields held as int must be integers in int range: a value
  // that a narrowing cast would wrap (2^32 + 1 → 1) is a parse error
  // naming the field, never a silently different query.
  for (const auto& [bad, field] :
       {std::pair<const char*, const char*>{
            R"({"method":"nibble","seeds":[0],"steps":4294967297})",
            "\"steps\""},
        {R"({"method":"ppr-dense","seeds":[0],"max_iterations":4294967297})",
         "\"max_iterations\""},
        {R"({"method":"ppr","seeds":[0],"top":4294967298})", "\"top\""},
        {R"({"method":"nibble","seeds":[0],"steps":-2147483649})",
         "\"steps\""}}) {
    EXPECT_FALSE(ParseQueryRequest(bad, &request, &error)) << bad;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
  ASSERT_TRUE(ParseQueryRequest(
      R"({"method": "nibble", "seeds": [0], "steps": 2147483647, "top": -4})",
      &request, &error))
      << error;
  EXPECT_EQ(request.query.steps, 2147483647);
  EXPECT_EQ(request.top, 0);

  // A present field of the wrong JSON type (null included), and a
  // `max_work` that is not an integer in int64 range, is a parse error
  // naming the field — never read as "absent" and served with the
  // default (an unbudgeted solve, a 40-step Nibble).
  for (const auto& [bad, field] :
       {std::pair<const char*, const char*>{
            R"({"method":"ppr","seeds":[0],"epsilon":1e-9,"max_work":16.5})",
            "\"max_work\""},
        {R"({"method":"ppr","seeds":[0],"epsilon":1e-9,"max_work":"16"})",
         "\"max_work\""},
        {R"({"method":"nibble","seeds":[0],"steps":"3"})", "\"steps\""},
        {R"({"method":"ppr","seeds":[0],"max_work":1e19})", "\"max_work\""},
        {R"({"method":5,"seeds":[0]})", "\"method\""},
        {R"({"method":"ppr","seeds":[0],"gamma":"0.2"})", "\"gamma\""},
        {R"({"method":"ppr","seeds":[0],"epsilon":null})", "\"epsilon\""},
        {R"({"method":"ppr","seeds":[0],"tolerance":[1e-6]})",
         "\"tolerance\""},
        {R"({"method":"heat-kernel","seeds":[0],"t":true})", "\"t\""},
        {R"({"method":"heat-kernel","seeds":[0],"delta":{}})", "\"delta\""},
        {R"({"method":"ppr","seeds":[0],"tenant":7})", "\"tenant\""},
        {R"({"method":"ppr-dense","seeds":[0],"max_iterations":"9"})",
         "\"max_iterations\""},
        {R"({"method":"ppr","seeds":[0],"top":"5"})", "\"top\""},
        {R"({"id":12,"method":"ppr","seeds":[0]})", "\"id\""},
        {R"({"op":["query"],"seeds":[0]})", "\"op\""},
        {R"({"op":"add-edge","u":0,"v":1,"weight":"2"})", "\"weight\""}}) {
    EXPECT_FALSE(ParseQueryRequest(bad, &request, &error)) << bad;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
  ASSERT_TRUE(ParseQueryRequest(
      R"({"method":"ppr","seeds":[0],"max_work":9007199254740992})",
      &request, &error))
      << error;
  EXPECT_EQ(request.query.max_work, std::int64_t{9007199254740992});

  // The happy paths, including remove-edge's 0-weight default (the
  // "remove entirely" sentinel add-edge must keep rejecting).
  ASSERT_TRUE(ParseQueryRequest(R"({"op": "remove-edge", "u": 3, "v": 7})",
                                &request, &error));
  EXPECT_TRUE(request.is_remove_edge);
  EXPECT_FALSE(request.is_add_edge);
  EXPECT_EQ(request.u, 3);
  EXPECT_EQ(request.v, 7);
  EXPECT_EQ(request.weight, 0.0);
  ASSERT_TRUE(ParseQueryRequest(
      R"({"op": "remove-edge", "u": 3, "v": 7, "weight": 0.25})", &request,
      &error));
  EXPECT_EQ(request.weight, 0.25);
  ASSERT_TRUE(ParseQueryRequest(
      R"({"op": "add-edge", "u": 3, "v": 7, "weight": 0.5})", &request,
      &error));
  EXPECT_TRUE(request.is_add_edge);
  EXPECT_FALSE(request.is_remove_edge);
}

TEST(IoFuzzTest, CorruptedValidFilesRejectOrReparse) {
  // Take a valid edge list and flip one character at every position;
  // each variant must parse-or-reject, never crash.
  const std::string valid = "# nodes 6\n0 1\n1 2 2.5\n3 4\n4 5 0.25\n";
  Rng rng(5);
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    std::string corrupted = valid;
    corrupted[pos] = static_cast<char>('0' + rng.NextBounded(80));
    CheckParsedGraphIsValid(ParseEdgeList(corrupted));
  }
}

}  // namespace
}  // namespace impreg

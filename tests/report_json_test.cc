/**
 * @file
 * The report module's JSON writer and strict reader: the artifact
 * layout byte for byte, escape round-trips, and the reader failing
 * closed on truncated input, trailing bytes, duplicate keys, wrong
 * types and missing keys.  Every committed BENCH_*.json artifact
 * must pass the same strict reader and lead with the current schema
 * version.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "report/json.h"

namespace marionette::report
{
namespace
{

/** The message a JsonError carries, or "" when @p fn succeeds. */
template <typename Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const JsonError &e) {
        return e.what();
    }
    return {};
}

TEST(ReportJson, WriterLayoutGolden)
{
    Json cell = Json::object();
    cell.set("kernel", "GEMM").set("compiled", true).set("cycles", 196687);
    Json cell2 = Json::object();
    cell2.set("kernel", "SI").set("ratio", 0.999735).set("pass", "");
    Json aggregate = Json::object();
    aggregate.set("kernels", Json::Array{"NW", "LDPC"})
        .set("points", 6)
        .set("geomean", 5.603891234)
        .set("zero", 0.0);

    JsonWriter doc;
    doc.set("fabric", "10x10")
        .set("seed", std::uint64_t{7})
        .set("cells", Json::Array{cell, cell2})
        .set("empty", Json::Array{})
        .set("aggregate", aggregate)
        .set("ok", false);
    EXPECT_EQ(doc.str(),
              "{\n"
              "  \"schema_version\": 2,\n"
              "  \"fabric\": \"10x10\",\n"
              "  \"seed\": 7,\n"
              "  \"cells\": [\n"
              "    {\"kernel\": \"GEMM\", \"compiled\": true, "
              "\"cycles\": 196687},\n"
              "    {\"kernel\": \"SI\", \"ratio\": 0.999735, "
              "\"pass\": \"\"}\n"
              "  ],\n"
              "  \"empty\": [],\n"
              "  \"aggregate\": {\n"
              "    \"kernels\": [\"NW\", \"LDPC\"],\n"
              "    \"points\": 6,\n"
              "    \"geomean\": 5.60389,\n"
              "    \"zero\": 0\n"
              "  },\n"
              "  \"ok\": false\n"
              "}\n");
}

TEST(ReportJson, EscapesRoundTrip)
{
    const std::string nasty =
        "quote\" backslash\\ newline\n tab\t cr\r bell\x07 nul";
    std::string with_nul = nasty;
    with_nul += '\0';
    JsonWriter doc;
    doc.set("s", with_nul);
    const std::string text = doc.str();
    EXPECT_NE(text.find("\\\""), std::string::npos);
    EXPECT_NE(text.find("\\u0007"), std::string::npos);
    EXPECT_NE(text.find("\\u0000"), std::string::npos);
    EXPECT_EQ(parseJson(text).get<std::string>("s"), with_nul);

    // Reader-only escapes decode to UTF-8.
    EXPECT_EQ(parseJson(R"("\/\b\f\u0041\u00e9\u20ac")").as<std::string>(),
              "/\b\fA\xc3\xa9\xe2\x82\xac");
}

TEST(ReportJson, ParsesWhatItWrites)
{
    Json inner = Json::object();
    inner.set("n", -12).set("x", 1.5e-3).set("null", Json());
    JsonWriter doc;
    doc.set("inner", inner).set("list", Json::Array{1, 2.5, "a"});
    Json back = parseJson(doc.str());
    EXPECT_EQ(back.at("inner"), inner);
    EXPECT_EQ(back.get<std::int64_t>("schema_version"), kSchemaVersion);
    EXPECT_DOUBLE_EQ(back.at("list").as<Json::Array>()[1].asNumber(),
                     2.5);
    EXPECT_EQ(back.at("inner").at("null"), Json());
}

TEST(ReportJson, RejectsTruncatedInput)
{
    EXPECT_NE(errorOf([] { parseJson("{\"a\": [1, 2"); }), "");
    EXPECT_NE(errorOf([] { parseJson("{\"a\": \"open"); }), "");
    EXPECT_NE(errorOf([] { parseJson(""); }), "");
    // An expectation cut off by a merge-conflict marker.
    const std::string error = errorOf([] {
        parseJson("{\n  \"kernels\": [\n<<<<<<< HEAD\n");
    });
    EXPECT_NE(error.find("line 3, column 1"), std::string::npos)
        << error;
}

TEST(ReportJson, RejectsTrailingBytes)
{
    EXPECT_NE(errorOf([] { parseJson("{} {}"); })
                  .find("trailing bytes"),
              std::string::npos);
    EXPECT_NE(errorOf([] { parseJson("[1],"); }), "");
    EXPECT_EQ(errorOf([] { parseJson(" {} \n"); }), "");
}

TEST(ReportJson, RejectsMalformedTokens)
{
    for (const char *bad :
         {"01", "1.", "-", ".5", "1e", "tru", "nul", "'a'",
          "{\"a\" 1}", "{\"a\": 1,}", "[1,]", "{a: 1}",
          "\"raw\ttab\"", "\"\\x\"", "\"\\ud800\"", "1e999"})
        EXPECT_NE(errorOf([&] { parseJson(bad); }), "") << bad;
}

TEST(ReportJson, RejectsDuplicateKeys)
{
    const std::string error = errorOf([] {
        parseJson("{\"kernel\": \"SI\", \"compiled\": true, "
                  "\"compiled\": false}");
    });
    EXPECT_NE(error.find("duplicate key \"compiled\""),
              std::string::npos)
        << error;
    // The writer refuses them too.
    JsonWriter doc;
    EXPECT_NE(errorOf([&] { doc.set("schema_version", 3); }), "");
}

TEST(ReportJson, TypedLookupsNameTheKey)
{
    const Json doc = parseJson(
        R"({"kernel": "SI", "compiled": "yes", "cycles": 12})");
    EXPECT_EQ(doc.get<std::string>("kernel"), "SI");
    EXPECT_DOUBLE_EQ(doc.at("cycles").asNumber(), 12.0);
    EXPECT_EQ(errorOf([&] { doc.get<bool>("compiled"); }),
              "key \"compiled\": expected bool, got string");
    EXPECT_EQ(errorOf([&] { doc.at("kernel").asNumber(); }),
              "expected number, got string");
    EXPECT_EQ(errorOf([&] { doc.get<std::string>("failed_pass"); }),
              "missing key \"failed_pass\"");
    EXPECT_EQ(errorOf([&] { doc.at("kernel").at("x"); }),
              "expected object, got string");
    EXPECT_EQ(doc.find("failed_pass"), nullptr);
}

TEST(ReportJson, WriterRejectsNonFiniteNumbers)
{
    JsonWriter doc;
    doc.set("bad", std::numeric_limits<double>::infinity());
    EXPECT_EQ(errorOf([&] { doc.str(); }), "non-finite number");
}

/** The artifact path under the source tree. */
std::string
artifact(const char *name)
{
    return std::string(MARIONETTE_SOURCE_DIR) + "/" + name;
}

TEST(ReportJson, CommittedArtifactsParseStrictly)
{
    for (const char *name :
         {"BENCH_compile_coverage.json", "BENCH_hotpath.json",
          "BENCH_mapped_cycles.json", "BENCH_resilience.json",
          "BENCH_serving.json", "BENCH_unroll_ablation.json"}) {
        SCOPED_TRACE(name);
        EXPECT_EQ(parseJsonFile(artifact(name))
                      .get<std::int64_t>("schema_version"),
                  kSchemaVersion);
    }
}

/** bench_machine_hotpath's --report layout: one row per benchmark,
 *  real-kernel rows included, every rate positive. */
TEST(ReportJson, HotpathArtifactSchema)
{
    const Json doc = parseJsonFile(artifact("BENCH_hotpath.json"));
    EXPECT_EQ(doc.get<std::string>("artifact"), "hotpath");
    EXPECT_GE(doc.get<std::int64_t>("repetitions"), 1);
    std::set<std::string> names;
    for (const Json &row : doc.get<Json::Array>("rows")) {
        const std::string &name = row.get<std::string>("name");
        EXPECT_TRUE(names.insert(name).second) << name;
        EXPECT_FALSE(row.get<std::string>("label").empty()) << name;
        EXPECT_GT(row.get<std::int64_t>("sim_cycles"), 0) << name;
        EXPECT_GT(row.at("sim_mcycles_per_sec").asNumber(), 0.0)
            << name;
        EXPECT_GT(row.at("fires_per_cycle").asNumber(), 0.0) << name;
    }
    for (const char *required :
         {"BM_IdleHeavy/fast:0", "BM_IdleHeavy/fast:1",
          "BM_FullyActive/fast:0", "BM_FullyActive/fast:1",
          "BM_EvalKernel/GEMM", "BM_EvalKernel/CRC"})
        EXPECT_EQ(names.count(required), 1u) << required;
}

} // namespace
} // namespace marionette::report

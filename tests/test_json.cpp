// Tests for the one JSON codec (util/json) and for the inputs that read
// through it: scaldtvd job lines, netlist deltas and the write-ahead
// journal, plus the manifest and journal writers that escape through it.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "core/incremental.hpp"
#include "gen/regfile_example.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"
#include "serve/supervisor.hpp"

namespace tv {
namespace {

using Type = json::Value::Type;

std::string json_string(std::string_view s) {
  std::string out = "\"";
  json::escape_into(out, s);
  out += '"';
  return out;
}

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem + std::to_string(getpid());
}

// ------------------------------------------------------------------ codec

TEST(Json, ParsesOneValueIntoAnOrderedDom) {
  std::string error;
  auto v = json::parse(R"( {"b": [1, -2.5e3, true, null], "a": {"x": "y"}} )", &error);
  ASSERT_TRUE(v) << error;
  ASSERT_EQ(v->type, Type::Object);
  ASSERT_EQ(v->members.size(), 2u);
  EXPECT_EQ(v->members[0].first, "b");  // source order, not sorted
  const json::Value* b = v->get("b");
  ASSERT_TRUE(b && b->type == Type::Array && b->items.size() == 4);
  EXPECT_EQ(b->items[1].text, "-2.5e3");  // numbers keep their token
  EXPECT_EQ(b->items[2].type, Type::Bool);
  EXPECT_TRUE(b->items[2].boolean);
  EXPECT_EQ(b->items[3].type, Type::Null);
  EXPECT_EQ(v->get("a")->get("x")->text, "y");
  EXPECT_EQ(v->get("missing"), nullptr);
}

TEST(Json, EveryAsciiByteAndUtf8SurviveEscapeThenParse) {
  std::string all;
  for (int c = 0x01; c <= 0x7F; ++c) all += static_cast<char>(c);
  for (const std::string& s : {all, std::string("caf\xC3\xA9 \xE2\x9C\x93 \xF0\x9F\x98\x80")}) {
    std::string error;
    auto v = json::parse(json_string(s), &error);
    ASSERT_TRUE(v) << error;
    EXPECT_EQ(v->text, s);
  }
}

TEST(Json, EscaperWritesTheShortFormsAndU00XXForOtherControlBytes) {
  std::string out;
  json::escape_into(out, "a\"\\\n\t\r\x01\x1f\x7f\xC3\xA9");
  EXPECT_EQ(out, "a\\\"\\\\\\n\\t\\r\\u0001\\u001f\x7f\xC3\xA9");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  std::string error;
  auto v = json::parse(R"("caf\u00e9 \u2713 \ud83D\uDE00 \/")", &error);
  ASSERT_TRUE(v) << error;
  EXPECT_EQ(v->text, "caf\xC3\xA9 \xE2\x9C\x93 \xF0\x9F\x98\x80 /");
  for (const char* bad : {R"("\ud800")", R"("\ude00")", R"("\ud800A")", R"("\u12")",
                          R"("\x41")"}) {
    EXPECT_FALSE(json::parse(bad, &error)) << bad;
    EXPECT_NE(error.find("escape"), std::string::npos) << bad << ": " << error;
  }
}

TEST(Json, RawControlBytesInsideStringsStayAccepted) {
  // Older journal and manifest writers emitted these bytes unescaped.
  auto v = json::parse(std::string("\"a\x01\tb\"", 6), nullptr);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->text, "a\x01\tb");
}

TEST(Json, SyntaxErrorsNameTheirByteOffset) {
  std::string error;
  EXPECT_FALSE(json::parse(R"({"a": 1,})", &error));
  EXPECT_EQ(error, "expected a string key at offset 8");
  EXPECT_FALSE(json::parse("[1] x", &error));
  EXPECT_EQ(error, "trailing characters after the value at offset 4");
  EXPECT_FALSE(json::parse("", &error));
  EXPECT_EQ(error, "unexpected end of input at offset 0");
  EXPECT_FALSE(json::parse(R"("open)", &error));
  EXPECT_EQ(error, "unterminated string at offset 5");
}

TEST(Json, DuplicateKeysAreRejectedInSmallAndLargeObjects) {
  std::string error;
  EXPECT_FALSE(json::parse(R"({"a": 1, "b": 2, "a": 3})", &error));
  EXPECT_EQ(error, "duplicate key \"a\" at offset 17");
  std::string big = "{";
  for (int k = 0; k < 40; ++k) big += "\"k" + std::to_string(k) + "\": 0, ";
  EXPECT_TRUE(json::parse(big + "\"last\": 0}", &error)) << error;
  EXPECT_FALSE(json::parse(big + "\"k3\": 0}", &error));
  EXPECT_NE(error.find("duplicate key \"k3\""), std::string::npos) << error;
}

TEST(Json, NumbersFollowTheRfcTokenGrammar) {
  for (const char* bad : {"1-2", "+1", "nan", "inf", "-inf", "01", "1.", ".5", "1e", "-",
                          "NaN", "0x10"}) {
    EXPECT_FALSE(json::parse(bad, nullptr)) << bad;
  }
  for (const char* good : {"0", "-0", "12", "0.5", "-1.25e-3", "1E+2"}) {
    EXPECT_TRUE(json::parse(good, nullptr)) << good;
  }
}

TEST(Json, NumberAccessorsConvertTheWholeTokenOrRefuse) {
  auto num = [](const char* token) { return *json::parse(token, nullptr); };
  EXPECT_EQ(num("42").as_int64(), 42);
  EXPECT_EQ(num("-7").as_int64(), -7);
  EXPECT_EQ(num("2.0").as_int64(), 2);
  EXPECT_EQ(num("1e3").as_int64(), 1000);
  EXPECT_EQ(num("9223372036854775807").as_int64(), INT64_MAX);
  EXPECT_FALSE(num("9223372036854775808").as_int64());
  EXPECT_FALSE(num("1e19").as_int64());
  EXPECT_FALSE(num("0.5").as_int64());
  EXPECT_FALSE(num("0.9").as_int64());
  EXPECT_FALSE(num("\"1\"").as_int64());
  EXPECT_DOUBLE_EQ(*num("-1.25e-3").as_double(), -1.25e-3);
  EXPECT_FALSE(num("1e999").as_double());
  EXPECT_FALSE(num("true").as_double());
}

TEST(Json, DeepNestingIsAnErrorNotACrash) {
  std::string deep(100000, '[');
  std::string error;
  EXPECT_FALSE(json::parse(deep, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

// ------------------------------------------- inputs that read through it

class JsonInputs : public ::testing::Test {
 protected:
  void SetUp() override { gen::build_regfile_example(nl); }

  bool delta(const std::string& text, std::string* error, NetlistDelta* out = nullptr) {
    NetlistDelta d;
    return parse_delta_json(text, nl, out ? out : &d, error);
  }

  Netlist nl;
};

// Duplicate keys: the delta reader kept the first, a job line the last, and
// the journal rejected them. Every input now rejects them.
TEST_F(JsonInputs, DuplicateKeysAreRejectedByEveryInput) {
  std::string error;
  EXPECT_FALSE(delta(R"({"prims": [{"prim": "WE GATE", "dmin": 1, "dmax": 2, "dmin": 5}]})",
                     &error));
  EXPECT_NE(error.find("delta JSON: duplicate key \"dmin\""), std::string::npos) << error;

  EXPECT_FALSE(serve::parse_job_line(R"({"id": "a", "design": "d", "id": "b"})", &error));
  EXPECT_NE(error.find("duplicate key \"id\""), std::string::npos) << error;

  std::string path = temp_path("dup_journal_");
  {
    std::vector<serve::JobSpec> jobs(1);
    jobs[0].id = "a";
    jobs[0].design = "d";
    auto j = serve::Journal::create(path, jobs, 0, 3, serve::BatchPolicy{}, &error);
    ASSERT_TRUE(j) << error;
  }
  std::ofstream(path, std::ios::app) << R"({"job": "a", "job": "b", "event": "launch"})" << "\n";
  EXPECT_FALSE(serve::replay_journal(path, &error));
  EXPECT_NE(error.find("line 2: duplicate key \"job\""), std::string::npos) << error;
  std::remove(path.c_str());
}

// `\u` escapes, as Python's json.dumps writes any non-ASCII text by default.
TEST_F(JsonInputs, UnicodeEscapedJobLineYieldsTheUtf8Path) {
  std::string error;
  auto job = serve::parse_job_line(R"({"id": "caf\u00e9", "design": "caf\u00e9.shdl"})",
                                   &error);
  ASSERT_TRUE(job) << error;
  EXPECT_EQ(job->design, "caf\xC3\xA9.shdl");
  EXPECT_EQ(job->id, "caf\xC3\xA9");
}

// A delta "dmin": 1-2 used to load as 1 ns.
TEST_F(JsonInputs, DeltaRejectsNonJsonNumberTokens) {
  std::string error;
  for (const char* value : {"1-2", "+1", "nan", "inf"}) {
    std::string text = std::string(R"({"prims": [{"prim": "WE GATE", "dmin": )") + value +
                       R"(, "dmax": 3}]})";
    EXPECT_FALSE(delta(text, &error)) << value;
    EXPECT_EQ(error.rfind("delta JSON: ", 0), 0u) << error;
  }
  // Finite but beyond the picosecond range: refused instead of overflowing.
  EXPECT_FALSE(delta(R"({"prims": [{"prim": "WE GATE", "dmin": 1, "dmax": 1e300}]})", &error));
  EXPECT_EQ(error, "delta JSON: \"dmin\"/\"dmax\" out of range");
}

// A case pin 0.5 used to load as 0.
TEST_F(JsonInputs, DeltaCasePinsMustBeTheIntegersZeroOrOne) {
  std::string error;
  for (const char* value : {"0.5", "0.9", "2", "-1"}) {
    std::string text = std::string(R"({"cases": [{"name": "c", "pins": [["WE", )") + value +
                       "]]}]}";
    EXPECT_FALSE(delta(text, &error)) << value;
    EXPECT_EQ(error, "delta JSON: case pin values must be 0 or 1") << value;
  }
  NetlistDelta d;
  ASSERT_TRUE(delta(R"({"cases": [{"name": "c", "pins": [["WE", 1.0]], "at": 0}]})", &error, &d))
      << error;
  ASSERT_EQ(d.cases.size(), 1u);
  EXPECT_EQ(d.cases[0].spec->pins[0].second, Value::One);
}

// "input": 0.9 used to load as input 0, and a negative or huge "input"/"at"
// reached an undefined float-to-size_t cast.
TEST_F(JsonInputs, DeltaIndicesAreExactNonNegativeIntegers) {
  std::string error;
  auto pin = [&](const char* input) {
    return std::string(R"({"pins": [{"prim": "READ OR 10102", "input": )") + input +
           R"(, "signal": "READ EN .S0-8"}]})";
  };
  for (const char* input : {"0.9", "-1", "1e300", "\"1\""}) {
    EXPECT_FALSE(delta(pin(input), &error)) << input;
    EXPECT_EQ(error, "delta JSON: pin edit needs an \"input\" index") << input;
  }
  for (const char* at : {"0.5", "-1", "1e300"}) {
    std::string text =
        std::string(R"({"cases": [{"name": "c", "pins": [["WE", 0]], "at": )") + at + "}]}";
    EXPECT_FALSE(delta(text, &error)) << at;
    EXPECT_EQ(error, "delta JSON: \"at\" must be a position") << at;
  }
  // A huge but exact index parses, and apply_delta refuses it by range.
  NetlistDelta d;
  ASSERT_TRUE(delta(pin("4000000000"), &error, &d)) << error;
  std::vector<CaseSpec> cases;
  EXPECT_THROW(apply_delta(nl, cases, d), std::invalid_argument);
}

// "time_limit": nan and inf used to be accepted in job lines.
TEST_F(JsonInputs, JobLinesRejectNonJsonNumbers) {
  std::string error;
  for (const char* value : {"nan", "inf", "-inf", "+1", "1-2", "1e999"}) {
    std::string line = std::string(R"({"id": "j", "design": "d", "time_limit": )") + value + "}";
    EXPECT_FALSE(serve::parse_job_line(line, &error)) << value;
    EXPECT_FALSE(error.empty());
  }
  EXPECT_FALSE(serve::parse_job_line(R"({"id": "j", "design": "d", "jobs": 1.5})", &error));
  EXPECT_EQ(error, "\"jobs\" must be a non-negative integer");
  EXPECT_FALSE(serve::parse_job_line(R"({"id": "j", "design": "d", "stdlib": "true"})", &error));
  EXPECT_EQ(error, "\"stdlib\" must be a boolean");
  EXPECT_FALSE(serve::parse_job_line(R"({"id": 5, "design": "d"})", &error));
  EXPECT_EQ(error, "\"id\" must be a string");
}

// The journal and manifest escapers wrote control bytes other than \n\t\r
// raw, which is not JSON.
TEST_F(JsonInputs, ControlBytesInIdsGiveValidManifestsAndJournals) {
  const std::string id = "ctl\x01id";
  serve::Manifest m;
  m.jobs.push_back({id, "d\x1f.shdl", serve::JobState::Done, 1, {"exit:0"}});
  std::string text = m.to_json();
  EXPECT_NE(text.find("ctl\\u0001id"), std::string::npos);
  std::string error;
  auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_EQ(doc->get("jobs")->items[0].get("id")->text, id);
  EXPECT_EQ(doc->get("jobs")->items[0].get("design")->text, "d\x1f.shdl");

  std::string path = temp_path("ctl_journal_");
  std::vector<serve::JobSpec> jobs(1);
  jobs[0].id = id;
  jobs[0].design = "d";
  {
    auto j = serve::Journal::create(path, jobs, 0, 3, serve::BatchPolicy{}, &error);
    ASSERT_TRUE(j) << error;
    j->record_launch(id, 1);
    j->record_outcome(id, 1, "exit:0");
    j->record_settle(id, serve::JobState::Done);
  }
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.find('\x01'), std::string::npos) << "raw control byte in " << line;
    EXPECT_TRUE(json::parse(line, &error)) << error;
  }
  auto replay = serve::replay_journal(path, &error);
  ASSERT_TRUE(replay) << error;
  ASSERT_EQ(replay->jobs.count(id), 1u);
  EXPECT_EQ(replay->jobs.at(id).state, serve::JobState::Done);
  std::remove(path.c_str());
}

#ifdef TV_SCALDTV_PATH

// A job whose id carries a control byte runs journaled; --resume replays
// that journal to the same settlement without relaunching anything.
TEST_F(JsonInputs, ResumeReplaysAControlByteIdToTheSameSettlement) {
  std::vector<serve::JobSpec> jobs(1);
  jobs[0].id = "ctl\x01id";
  jobs[0].design = std::string(TV_REPO_ROOT) + "/designs/regfile_example.shdl";
  serve::SupervisorOptions opts;
  opts.scaldtv_path = TV_SCALDTV_PATH;
  opts.default_timeout = 30;

  std::string path = temp_path("resume_journal_");
  std::string error;
  serve::Manifest first;
  {
    auto journal =
        serve::Journal::create(path, jobs, opts.jitter_seed, opts.max_attempts,
                               serve::BatchPolicy{}, &error);
    ASSERT_TRUE(journal) << error;
    opts.journal = journal.get();
    first = serve::run_jobs(jobs, opts);
  }
  ASSERT_EQ(first.jobs.size(), 1u);
  EXPECT_EQ(first.jobs[0].state, serve::JobState::Violations);
  ASSERT_TRUE(json::parse(first.to_json(), &error)) << error;

  auto replay = serve::replay_journal(path, &error);
  ASSERT_TRUE(replay) << error;
  EXPECT_EQ(replay->digest, serve::jobs_digest(jobs));
  opts.journal = nullptr;
  opts.resume = &*replay;
  opts.scaldtv_path = "/nonexistent/scaldtv";  // a relaunch would fail
  serve::Manifest resumed = serve::run_jobs(jobs, opts);
  EXPECT_EQ(resumed.to_json(), first.to_json());
  std::remove(path.c_str());
}

#endif  // TV_SCALDTV_PATH

}  // namespace
}  // namespace tv

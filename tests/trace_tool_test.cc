// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The offline trace path end to end: JSON round-trips through
// ToJson/ParseTraceLine (including adversarial detail strings), the
// trace-file reader's error reporting, and the twbg-trace CLI — which
// must reconstruct Example 4.1's T8/T9 wait chain and the TDR-2
// repositioning rationale from a streamed JSONL trace.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/script.h"
#include "obs/event.h"
#include "obs/span.h"
#include "obs/span_sinks.h"
#include "obs/trace_reader.h"
#include "tools/twbg_trace.h"

namespace twbg {
namespace {

using obs::Event;
using obs::EventKind;

// -- JSON round-trip -------------------------------------------------------

Event SampleEvent() {
  Event event;
  event.seq = 42;
  event.time = 17;
  event.kind = EventKind::kCyclePostMortem;
  event.tid = 8;
  event.rid = 2;
  event.mode = lock::LockMode::kSIX;
  event.a = 4;
  event.b = 1;
  event.span = 99;
  event.value = 12.5;
  return event;
}

void ExpectRoundTrips(const Event& original) {
  Result<Event> parsed = obs::ParseTraceLine(obs::ToJson(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->seq, original.seq);
  EXPECT_EQ(parsed->time, original.time);
  EXPECT_EQ(parsed->kind, original.kind);
  EXPECT_EQ(parsed->tid, original.tid);
  EXPECT_EQ(parsed->rid, original.rid);
  EXPECT_EQ(parsed->mode, original.mode);
  EXPECT_EQ(parsed->a, original.a);
  EXPECT_EQ(parsed->b, original.b);
  EXPECT_EQ(parsed->span, original.span);
  EXPECT_DOUBLE_EQ(parsed->value, original.value);
  EXPECT_EQ(parsed->detail, original.detail);
}

TEST(TraceRoundTripTest, PlainEventSurvives) { ExpectRoundTrips(SampleEvent()); }

TEST(TraceRoundTripTest, AdversarialDetailStringsSurvive) {
  const std::string cases[] = {
      "quotes \" inside \"\" and 'single'",
      "back\\slash \\\\ and \\n literal",
      "real newline\nand\ttab\rand carriage",
      std::string("embedded \x01 control \x1f chars"),
      "trailing backslash \\",
      "unicode caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x94\x92",  // é, →, UTF-8
      "json-looking {\"kind\":\"fake\",\"detail\":\"nested\"}",
      std::string("nul is escaped too: \\u0000 (literal text)"),
  };
  for (const std::string& detail : cases) {
    Event event = SampleEvent();
    event.detail = detail;
    ExpectRoundTrips(event);
  }
}

TEST(TraceRoundTripTest, EscapedLineIsSingleLineJson) {
  Event event = SampleEvent();
  event.detail = "line1\nline2\"quoted\"\\end";
  const std::string json = obs::ToJson(event);
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);
}

TEST(TraceRoundTripTest, UnicodeEscapesParse) {
  Result<Event> parsed = obs::ParseTraceLine(
      "{\"schema_version\":2,\"kind\":\"txn_begin\","
      "\"detail\":\"caf\\u00e9 \\u0041\\t\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->detail, "caf\xc3\xa9 A\t");
}

TEST(TraceRoundTripTest, SchemaVersionIsEnforced) {
  // Missing version: the pre-forensics v1 schema must be called out.
  Result<Event> missing =
      obs::ParseTraceLine("{\"seq\":1,\"kind\":\"txn_begin\"}");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("schema_version"),
            std::string::npos);
  // Mismatched version.
  Result<Event> wrong = obs::ParseTraceLine(
      "{\"schema_version\":1,\"kind\":\"txn_begin\"}");
  EXPECT_FALSE(wrong.ok());
}

TEST(TraceRoundTripTest, MalformedLinesAreRejected) {
  const char* bad[] = {
      "",                                          // empty
      "not json",                                  // no object
      "{\"schema_version\":2,\"kind\":\"nope\"}",  // unknown kind
      "{\"schema_version\":2,\"kind\":\"txn_begin\"} trailing",
      "{\"schema_version\":2,\"kind\":\"txn_begin\",\"mode\":\"ZZ\"}",
      "{\"schema_version\":2,\"kind\":\"txn_begin\"",  // unterminated
      "{\"schema_version\":2,\"detail\":\"unterminated",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(obs::ParseTraceLine(line).ok()) << line;
  }
}

// -- trace file reader -----------------------------------------------------

std::string TempPath(const char* name) { return ::testing::TempDir() + name; }

TEST(TraceFileTest, BlankLinesSkippedAndBadLinesNumbered) {
  const std::string path = TempPath("twbg_trace_reader.jsonl");
  {
    std::ofstream file(path);
    file << obs::ToJson(SampleEvent()) << "\n";
    file << "\n";  // blank: skipped
    file << obs::ToJson(SampleEvent()) << "\n";
  }
  Result<std::vector<Event>> events = obs::ReadTraceFile(path);
  ASSERT_TRUE(events.ok()) << events.status().message();
  EXPECT_EQ(events->size(), 2u);

  {
    std::ofstream file(path);
    file << obs::ToJson(SampleEvent()) << "\n";
    file << "garbage line\n";
  }
  Result<std::vector<Event>> broken = obs::ReadTraceFile(path);
  ASSERT_FALSE(broken.ok());
  EXPECT_NE(broken.status().message().find(":2"), std::string::npos)
      << broken.status().message();
  std::remove(path.c_str());
}

TEST(TraceFileTest, MissingFileIsNotFound) {
  Result<std::vector<Event>> events =
      obs::ReadTraceFile("/nonexistent-dir/trace.jsonl");
  EXPECT_FALSE(events.ok());
}

// -- twbg-trace CLI --------------------------------------------------------

// Streams the Example 4.1 scenario through a ScriptRunner into a JSONL
// trace and returns the path (written once, reused by every CLI test).
const std::string& Example41Trace() {
  static const std::string* path = [] {
    auto* p = new std::string(TempPath("twbg_example41.jsonl"));
    std::ifstream scenario(std::string(TWBG_SCENARIO_DIR) +
                           "/example41.twbg");
    std::stringstream script;
    script << scenario.rdbuf();
    core::LockManagerBackend backend;
    core::ScriptRunner runner(&backend);
    Status stream = backend.StreamEventsTo(*p);
    if (!stream.ok()) ADD_FAILURE() << stream.message();
    std::string out;
    Status run = runner.ExecuteScript(script.str(), &out);
    if (!run.ok()) ADD_FAILURE() << run.message() << "\n" << out;
    std::string flush_out;
    (void)runner.ExecuteLine("obs", &flush_out);  // flushes the sink
    return p;
  }();
  return *path;
}

TEST(TraceToolTest, ChainsReconstructsExample41WaitChainAndTdr2Rationale) {
  std::string out, err;
  const int rc =
      tools::RunTraceTool({"chains", Example41Trace()}, &out, &err);
  EXPECT_EQ(rc, 0) << err;
  // The R2 queue of Example 4.1: T8 blocked in X, T9 blocked in IX.
  EXPECT_NE(out.find("T8 blocked X on R2"), std::string::npos) << out;
  EXPECT_NE(out.find("T9 blocked IX on R2"), std::string::npos) << out;
  // Every cycle was resolved by TDR-2; the post-mortem replay carries the
  // repositioning rationale and the wait chain with span ids.
  EXPECT_NE(out.find("cycle 1 resolved"), std::string::npos) << out;
  EXPECT_NE(out.find("repositioned R2"), std::string::npos) << out;
  EXPECT_NE(out.find("TDR-2"), std::string::npos) << out;
  EXPECT_NE(out.find("reposition {T8} on R2"), std::string::npos) << out;
  EXPECT_NE(out.find("chain"), std::string::npos) << out;
  EXPECT_EQ(out.find("no resolved cycles"), std::string::npos) << out;
}

TEST(TraceToolTest, SummaryCountsSpansAndResolutions) {
  std::string out, err;
  const int rc =
      tools::RunTraceTool({"summary", Example41Trace()}, &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("wait spans:"), std::string::npos) << out;
  EXPECT_NE(out.find("by TDR-2 repositioning, 0 by TDR-1 abort"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("cycle_post_mortem"), std::string::npos) << out;
}

TEST(TraceToolTest, HotRanksR1AndR2) {
  std::string out, err;
  const int rc = tools::RunTraceTool({"hot", Example41Trace(), "--top=2"},
                                     &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("top 2 resource(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("R1"), std::string::npos) << out;
  EXPECT_NE(out.find("R2"), std::string::npos) << out;
  EXPECT_NE(out.find("tdr2="), std::string::npos) << out;
}

// Regression: the hot and chains reports accumulate per-rid rows in a
// hash table whose iteration order tracks insertion, so the ascending-rid
// output contract has to come from an explicit sort at the output
// boundary — feed rids in descending order and require ascending output.
TEST(TraceToolTest, HotAndChainsSortRidsAtOutputBoundary) {
  const std::string path = TempPath("twbg_rid_order.jsonl");
  {
    std::ofstream file(path);
    uint64_t span = 0;
    for (lock::ResourceId rid : {30u, 7u, 19u}) {
      Event block;
      block.kind = EventKind::kLockBlock;
      block.time = ++span;  // distinct, monotone
      block.tid = 100 + rid;
      block.rid = rid;
      block.mode = lock::LockMode::kX;
      block.span = span;
      file << obs::ToJson(block) << "\n";  // never closed: stays open
    }
  }
  // Equal blocked-span counts everywhere, so `hot` ranks purely by rid.
  std::string out, err;
  ASSERT_EQ(tools::RunTraceTool({"hot", path}, &out, &err), 0) << err;
  const size_t hot7 = out.find("R7 ");
  const size_t hot19 = out.find("R19 ");
  const size_t hot30 = out.find("R30 ");
  ASSERT_NE(hot7, std::string::npos) << out;
  ASSERT_NE(hot19, std::string::npos) << out;
  ASSERT_NE(hot30, std::string::npos) << out;
  EXPECT_LT(hot7, hot19) << out;
  EXPECT_LT(hot19, hot30) << out;

  out.clear();
  ASSERT_EQ(tools::RunTraceTool({"chains", path}, &out, &err), 0) << err;
  const size_t open_section = out.find("open waits by resource:");
  ASSERT_NE(open_section, std::string::npos) << out;
  const size_t chain7 = out.find("R7 <-", open_section);
  const size_t chain19 = out.find("R19 <-", open_section);
  const size_t chain30 = out.find("R30 <-", open_section);
  ASSERT_NE(chain7, std::string::npos) << out;
  ASSERT_NE(chain19, std::string::npos) << out;
  ASSERT_NE(chain30, std::string::npos) << out;
  EXPECT_LT(chain7, chain19) << out;
  EXPECT_LT(chain19, chain30) << out;
  std::remove(path.c_str());
}

TEST(TraceToolTest, LatencyPrintsPercentileRows) {
  std::string out, err;
  const int rc =
      tools::RunTraceTool({"latency", Example41Trace()}, &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("pass_duration"), std::string::npos) << out;
  EXPECT_NE(out.find("p99="), std::string::npos) << out;
}

TEST(TraceToolTest, DiffComparesTwoTraces) {
  std::string out, err;
  const int rc = tools::RunTraceTool(
      {"diff", Example41Trace(), Example41Trace()}, &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("delta"), std::string::npos) << out;
  EXPECT_NE(out.find("wait p50:"), std::string::npos) << out;
  // Identical traces: every delta is zero.
  EXPECT_EQ(out.find("+1"), std::string::npos) << out;
}

// Writes a small span JSONL file (the --spans-out stream) once for the
// span-subcommand tests: one labelled txn, one granted + one aborted
// wait, one pass.
const std::string& SpanFixture() {
  static const std::string* path = [] {
    auto* p = new std::string(TempPath("twbg_span_fixture.jsonl"));
    Result<std::unique_ptr<obs::SpanJsonlSink>> sink =
        obs::SpanJsonlSink::Open(*p);
    if (!sink.ok()) ADD_FAILURE() << sink.status().ToString();
    obs::SpanTracer tracer;
    tracer.Subscribe(sink->get());
    tracer.set_time(0);
    tracer.OpenTxn(1, "fixture");
    tracer.OpenWait(1, 1, 10, lock::LockMode::kX);
    tracer.OpenWait(2, 2, 10, lock::LockMode::kS);
    const uint64_t pass = tracer.Open(obs::SpanKind::kPass);
    tracer.set_time(500);
    tracer.Close(pass, 1, 400);
    tracer.CloseWait(1, obs::WaitOutcome::kGranted);
    tracer.CloseWait(2, obs::WaitOutcome::kAborted);
    tracer.CloseTxn(1);
    (*sink)->Flush();
    return p;
  }();
  return *path;
}

TEST(TraceToolTest, ExportPerfettoRendersSpanFile) {
  std::string out, err;
  const int rc =
      tools::RunTraceTool({"export-perfetto", SpanFixture()}, &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos) << out;
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\":\"detector\""), std::string::npos) << out;
  EXPECT_NE(out.find("wait R10/X"), std::string::npos) << out;
}

TEST(TraceToolTest, ProfileRendersTableAndFoldedStacks) {
  std::string out, err;
  int rc = tools::RunTraceTool({"profile", SpanFixture()}, &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("resource"), std::string::npos) << out;
  EXPECT_NE(out.find("fixture"), std::string::npos) << out;
  EXPECT_NE(out.find("unclassified"), std::string::npos) << out;

  out.clear();
  rc = tools::RunTraceTool({"profile", SpanFixture(), "--folded"}, &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("R10;X;fixture 500\n"), std::string::npos) << out;
  EXPECT_NE(out.find("R10;S;unclassified 500\n"), std::string::npos) << out;
}

TEST(TraceToolTest, ExitCodesArePinnedForEverySubcommand) {
  // Exit-code contract (also in tools/twbg_trace.h): 0 success, 1 bad
  // usage, 2 unreadable input.  Pinned per subcommand so a regression in
  // any dispatch branch is caught here, not by a CI script.
  struct Case {
    const char* cmd;
    bool span_input;  // reads the span fixture instead of an event trace
  };
  const Case cases[] = {
      {"summary", false},        {"chains", false},
      {"hot", false},            {"latency", false},
      {"export-perfetto", true}, {"profile", true},
  };
  for (const Case& c : cases) {
    std::string out, err;
    EXPECT_EQ(tools::RunTraceTool(
                  {c.cmd, c.span_input ? SpanFixture() : Example41Trace()},
                  &out, &err),
              0)
        << c.cmd << ": " << err;
    // Missing the input argument is usage (1), not a read error.
    out.clear();
    err.clear();
    EXPECT_EQ(tools::RunTraceTool({c.cmd}, &out, &err), 1) << c.cmd;
    EXPECT_NE(err.find("usage:"), std::string::npos) << c.cmd;
    // An unreadable input is 2.
    out.clear();
    err.clear();
    EXPECT_EQ(tools::RunTraceTool({c.cmd, "/nonexistent/in.jsonl"}, &out,
                                  &err),
              2)
        << c.cmd;
  }
  // diff: 0 on two readable traces, 1 on wrong arity, 2 on a bad file.
  std::string out, err;
  EXPECT_EQ(tools::RunTraceTool({"diff", Example41Trace(), Example41Trace()},
                                &out, &err),
            0)
      << err;
  EXPECT_EQ(tools::RunTraceTool({"diff", Example41Trace()}, &out, &err), 1);
  EXPECT_EQ(tools::RunTraceTool(
                {"diff", Example41Trace(), "/nonexistent/in.jsonl"}, &out,
                &err),
            2);
}

TEST(TraceToolTest, SpanSubcommandErrorsAreConsistent) {
  // Feeding an event trace to a span subcommand is a read error (2) with
  // the schema named — the two streams are deliberately incompatible.
  std::string out, err;
  EXPECT_EQ(tools::RunTraceTool({"profile", Example41Trace()}, &out, &err),
            2);
  EXPECT_NE(err.find("schema_version"), std::string::npos) << err;
  // Unknown option: usage error naming the option.
  out.clear();
  err.clear();
  EXPECT_EQ(tools::RunTraceTool({"profile", SpanFixture(), "--bogus"}, &out,
                                &err),
            1);
  EXPECT_NE(err.find("--bogus"), std::string::npos) << err;
  // --folded belongs to profile alone.
  out.clear();
  err.clear();
  EXPECT_EQ(tools::RunTraceTool({"export-perfetto", SpanFixture(), "--folded"},
                                &out, &err),
            1);
}

TEST(TraceToolTest, UnknownSubcommandNamesItself) {
  for (const char* bogus : {"frobnicate", "exportperfetto", "Profile"}) {
    std::string out, err;
    EXPECT_EQ(tools::RunTraceTool({bogus, Example41Trace()}, &out, &err), 1);
    EXPECT_NE(err.find(std::string("unknown command '") + bogus + "'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("usage:"), std::string::npos);
  }
}

TEST(TraceToolTest, UsageAndErrorExitCodes) {
  std::string out, err;
  EXPECT_EQ(tools::RunTraceTool({}, &out, &err), 1);
  EXPECT_NE(err.find("usage:"), std::string::npos);

  err.clear();
  EXPECT_EQ(tools::RunTraceTool({"frobnicate", "x.jsonl"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown command"), std::string::npos);

  err.clear();
  EXPECT_EQ(tools::RunTraceTool({"summary"}, &out, &err), 1);

  err.clear();
  EXPECT_EQ(tools::RunTraceTool({"hot", Example41Trace(), "--bogus"}, &out,
                                &err),
            1);

  err.clear();
  EXPECT_EQ(
      tools::RunTraceTool({"summary", "/nonexistent/trace.jsonl"}, &out, &err),
      2);
  EXPECT_FALSE(err.empty());

  // A v1 (pre-forensics) trace is a parse failure, not a silent zero.
  const std::string path = TempPath("twbg_v1_trace.jsonl");
  {
    std::ofstream file(path);
    file << "{\"seq\":1,\"kind\":\"txn_begin\"}\n";
  }
  err.clear();
  EXPECT_EQ(tools::RunTraceTool({"summary", path}, &out, &err), 2);
  EXPECT_NE(err.find("schema_version"), std::string::npos) << err;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace twbg

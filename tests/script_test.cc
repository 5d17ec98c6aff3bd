// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/script.h"

#include <gtest/gtest.h>

namespace twbg::core {
namespace {

TEST(ScriptTest, AcquireAndExpect) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  EXPECT_TRUE(runner.ExecuteLine("acquire 1 1 X", &out).ok());
  EXPECT_TRUE(runner.ExecuteLine("expect granted", &out).ok());
  EXPECT_TRUE(runner.ExecuteLine("acquire 2 1 S", &out).ok());
  EXPECT_TRUE(runner.ExecuteLine("expect blocked", &out).ok());
  EXPECT_FALSE(runner.ExecuteLine("expect granted", &out).ok());
  EXPECT_NE(out.find("T1 <- X on R1: granted"), std::string::npos);
}

TEST(ScriptTest, IdsAcceptLetterPrefixes) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  EXPECT_TRUE(runner.ExecuteLine("acquire T1 R10 SIX", &out).ok());
  EXPECT_NE(backend.manager().table().Find(10), nullptr);
}

TEST(ScriptTest, CommentsAndBlanksAreIgnored) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  EXPECT_TRUE(runner.ExecuteLine("", &out).ok());
  EXPECT_TRUE(runner.ExecuteLine("   # just a comment", &out).ok());
  EXPECT_TRUE(runner.ExecuteLine("acquire 1 1 S # trailing", &out).ok());
  EXPECT_TRUE(out.find("granted") != std::string::npos);
}

TEST(ScriptTest, UnknownCommandAndBadArgs) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  EXPECT_TRUE(runner.ExecuteLine("frobnicate", &out).IsInvalidArgument());
  EXPECT_TRUE(runner.ExecuteLine("acquire 1 1", &out).IsInvalidArgument());
  EXPECT_TRUE(runner.ExecuteLine("acquire x y Z", &out).IsInvalidArgument());
  EXPECT_TRUE(runner.ExecuteLine("expect granted", &out)
                  .IsFailedPrecondition());
}

TEST(ScriptTest, CostRejectsBadValues) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  ASSERT_TRUE(runner.ExecuteLine("acquire 1 1 X", &out).ok());
  for (const char* line : {"cost 1 abc", "cost 1 2x", "cost 1 nan",
                           "cost 1 -1", "cost 1 inf"}) {
    EXPECT_TRUE(runner.ExecuteLine(line, &out).IsInvalidArgument()) << line;
  }
  EXPECT_EQ(backend.costs().size(), 0u);
  ASSERT_TRUE(runner.ExecuteLine("cost 1 2.5", &out).ok());
  EXPECT_EQ(backend.costs().Get(1), 2.5);
}

TEST(ScriptTest, ZeroOperandCommandsRejectOperands) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  Status status = runner.ExecuteLine("detect now", &out);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "usage: detect");
  EXPECT_FALSE(backend.last_report().has_value());
}

TEST(ScriptTest, HelpListsEveryCommand) {
  const std::string help = ScriptRunner::Help();
  for (const char* usage :
       {"acquire <txn> <resource> <mode>", "release <txn>",
        "cost <txn> <value>", "detect",
        "table | graph | tst | dot | cycles | oracle | costs",
        "expect granted|blocked|alreadyheld", "expect-deadlock yes|no",
        "expect-aborted <txn> ...", "obs", "postmortem", "reset"}) {
    EXPECT_NE(help.find(std::string("  ") + usage), std::string::npos)
        << usage;
  }
}

TEST(ScriptTest, FullExample51Script) {
  // The paper's Example 5.1, end to end, as a script with assertions.
  constexpr const char* kScript = R"(
# Example 5.1 of the paper
acquire 1 1 S
expect granted
acquire 2 2 S
acquire 3 2 S
acquire 2 1 X
expect blocked
acquire 3 1 S
expect blocked
acquire 1 2 X
expect blocked
expect-deadlock yes
cost 1 6
cost 2 4
cost 3 1
detect
expect-aborted 2
expect-deadlock no
)";
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  Status status = runner.ExecuteScript(kScript, &out);
  EXPECT_TRUE(status.ok()) << status.ToString() << "\n" << out;
  EXPECT_NE(out.find("abortion-list: {T2}"), std::string::npos);
}

TEST(ScriptTest, ScriptErrorsCarryLineNumbers) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  Status status = runner.ExecuteScript("acquire 1 1 X\nbogus\n", &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string_view::npos);
}

TEST(ScriptTest, ViewsProduceOutput) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  ASSERT_TRUE(runner.ExecuteScript("acquire 1 1 X\nacquire 2 1 S\n", &out)
                  .ok());
  out.clear();
  EXPECT_TRUE(runner.ExecuteLine("table", &out).ok());
  EXPECT_NE(out.find("R1(X)"), std::string::npos);
  out.clear();
  EXPECT_TRUE(runner.ExecuteLine("graph", &out).ok());
  EXPECT_NE(out.find("T1 -H(R1)-> T2"), std::string::npos);
  out.clear();
  EXPECT_TRUE(runner.ExecuteLine("tst", &out).ok());
  EXPECT_NE(out.find("T2: pr=R1"), std::string::npos);
  out.clear();
  EXPECT_TRUE(runner.ExecuteLine("dot", &out).ok());
  EXPECT_NE(out.find("digraph"), std::string::npos);
  out.clear();
  EXPECT_TRUE(runner.ExecuteLine("oracle", &out).ok());
  EXPECT_NE(out.find("deadlocked=no"), std::string::npos);
  out.clear();
  EXPECT_TRUE(runner.ExecuteLine("costs", &out).ok());
  EXPECT_NE(out.find("T1: 1.00"), std::string::npos);
}

TEST(ScriptTest, CyclesView) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  ASSERT_TRUE(runner
                  .ExecuteScript(
                      "acquire 1 1 X\nacquire 2 2 X\nacquire 1 2 X\n"
                      "acquire 2 1 X\n",
                      &out)
                  .ok());
  out.clear();
  EXPECT_TRUE(runner.ExecuteLine("cycles", &out).ok());
  EXPECT_NE(out.find("cycle {T1, T2}"), std::string::npos);
}

TEST(ScriptTest, ResetClearsState) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  ASSERT_TRUE(runner.ExecuteLine("acquire 1 1 X", &out).ok());
  ASSERT_TRUE(runner.ExecuteLine("reset", &out).ok());
  EXPECT_TRUE(backend.manager().table().empty());
  EXPECT_FALSE(backend.last_report().has_value());
}

TEST(ScriptTest, EchoMode) {
  ScriptOptions options;
  options.echo = true;
  LockManagerBackend backend;
  ScriptRunner runner(&backend, options);
  std::string out;
  ASSERT_TRUE(runner.ExecuteLine("acquire 1 1 X", &out).ok());
  EXPECT_NE(out.find("> acquire 1 1 X"), std::string::npos);
}

TEST(ScriptTest, ReleaseGrantsWaiters) {
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  ASSERT_TRUE(runner.ExecuteScript(
                      "acquire 1 1 X\nacquire 2 1 S\nacquire 3 1 S\n", &out)
                  .ok());
  out.clear();
  ASSERT_TRUE(runner.ExecuteLine("release 1", &out).ok());
  EXPECT_NE(out.find("granted 2 waiter(s)"), std::string::npos);
}

}  // namespace
}  // namespace twbg::core

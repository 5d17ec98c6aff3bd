// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The differential test of the LockClient stack: every checked-in
// scenario script (scenarios/*.twbg) runs once through InProcessClient
// and once through a live net::Server + net::TcpClient, and the two
// outputs must match byte for byte — the wire adds transport, never
// semantics.  Each run gets a fresh single-shard periodic service with
// no background detector so `detect` is entirely script-driven.

#include "txn/client_script.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "net/server.h"
#include "net/tcp_client.h"
#include "txn/concurrent_service.h"

#ifndef TWBG_SCENARIO_DIR
#error "TWBG_SCENARIO_DIR must be defined by the build"
#endif

namespace twbg::txn {
namespace {

std::vector<std::filesystem::path> ScenarioFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TWBG_SCENARIO_DIR)) {
    if (entry.path().extension() == ".twbg") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::unique_ptr<ConcurrentLockService> FreshService() {
  ConcurrentServiceOptions options;
  options.num_shards = 1;
  auto service = ConcurrentLockService::Create(options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

struct RunResult {
  Status status = Status::OK();
  std::string output;
};

RunResult RunInProcess(const std::string& script) {
  RunResult result;
  auto service = FreshService();
  auto client = InProcessClient::Create(service.get());
  EXPECT_TRUE(client.ok());
  LockClientBackend backend(client->get());
  core::ScriptRunner runner(&backend);
  result.status = runner.ExecuteScript(script, &result.output);
  return result;
}

RunResult RunOverTcp(const std::string& script) {
  RunResult result;
  auto service = FreshService();
  auto server = net::Server::Create({}, service.get());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  Status started = (*server)->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();

  net::ClientOptions client_options;
  client_options.port = (*server)->port();
  auto client = net::TcpClient::Create(client_options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  LockClientBackend backend(client->get());
  core::ScriptRunner runner(&backend);
  result.status = runner.ExecuteScript(script, &result.output);
  return result;
}

class ClientScriptDifferentialTest
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(ClientScriptDifferentialTest, TcpMatchesInProcessByteForByte) {
  const std::string script = ReadFile(GetParam());
  const RunResult in_process = RunInProcess(script);
  const RunResult over_tcp = RunOverTcp(script);

  // The scripts carry their own expect* assertions: both back ends must
  // pass them...
  EXPECT_TRUE(in_process.status.ok())
      << GetParam() << ": " << in_process.status.ToString()
      << "\n--- output ---\n"
      << in_process.output;
  EXPECT_TRUE(over_tcp.status.ok())
      << GetParam() << ": " << over_tcp.status.ToString()
      << "\n--- output ---\n"
      << over_tcp.output;
  // ...and produce identical resolution reports, tables and views.
  EXPECT_EQ(in_process.output, over_tcp.output) << GetParam();
}

std::string NameOf(const ::testing::TestParamInfo<std::filesystem::path>& p) {
  std::string stem = p.param.stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ClientScriptDifferentialTest,
                         ::testing::ValuesIn(ScenarioFiles()), NameOf);

// Back-end semantics that no scenario file exercises.

TEST(LockClientBackendTest, EchoAndComments) {
  auto service = FreshService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());
  LockClientBackend backend(client->get());
  core::ScriptRunner runner(&backend, {.echo = true});
  std::string out;
  ASSERT_TRUE(runner.ExecuteLine("  # a full-line comment", &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(runner.ExecuteLine("acquire 1 1 X  # trailing", &out).ok());
  EXPECT_EQ(out, "> acquire 1 1 X\nT1 <- X on R1: granted\n");
}

TEST(LockClientBackendTest, UnknownCommandReportsLineNumber) {
  auto service = FreshService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());
  LockClientBackend backend(client->get());
  core::ScriptRunner runner(&backend);
  std::string out;
  Status status = runner.ExecuteScript("acquire 1 1 X\nfrobnicate\n", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("line 2"), std::string::npos);
  EXPECT_NE(status.ToString().find("unknown command 'frobnicate'"),
            std::string::npos);
}

TEST(LockClientBackendTest, ReleaseAndReuseOfScriptIds) {
  auto service = FreshService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());
  LockClientBackend backend(client->get());
  core::ScriptRunner runner(&backend);
  std::string out;
  ASSERT_TRUE(runner.ExecuteLine("acquire 1 1 X", &out).ok());
  ASSERT_TRUE(runner.ExecuteLine("release 1", &out).ok());
  EXPECT_NE(out.find("released T1\n"), std::string::npos);
  // The script id maps onto a fresh service transaction afterwards.
  out.clear();
  ASSERT_TRUE(runner.ExecuteLine("acquire 1 1 X", &out).ok());
  EXPECT_EQ(out, "T1 <- X on R1: granted\n");
}

TEST(LockClientBackendTest, ObsIsUnavailableThroughClients) {
  auto service = FreshService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());
  LockClientBackend backend(client->get());
  core::ScriptRunner runner(&backend);
  std::string out;
  EXPECT_TRUE(runner.ExecuteLine("obs", &out).IsInvalidArgument());
}

TEST(LockClientBackendTest, CostRejectsBadValuesInProcessAndOverTcp) {
  auto service = FreshService();
  auto in_process = InProcessClient::Create(service.get());
  ASSERT_TRUE(in_process.ok());
  auto server = net::Server::Create({}, service.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());
  net::ClientOptions client_options;
  client_options.port = (*server)->port();
  auto over_tcp = net::TcpClient::Create(client_options);
  ASSERT_TRUE(over_tcp.ok()) << over_tcp.status().ToString();

  for (LockClient* client : {static_cast<LockClient*>(in_process->get()),
                             static_cast<LockClient*>(over_tcp->get())}) {
    LockClientBackend backend(client);
    core::ScriptRunner runner(&backend);
    std::string out;
    // "abc" never reaches the service; nan and -1 are refused by it.
    for (const char* line : {"cost 1 abc", "cost 1 nan", "cost 1 -1"}) {
      Status status = runner.ExecuteLine(line, &out);
      EXPECT_TRUE(status.IsInvalidArgument()) << line << ": "
                                              << status.ToString();
    }
    EXPECT_TRUE(runner.ExecuteLine("cost 1 4", &out).ok());
  }
}

TEST(LockClientBackendTest, ResetAbortsLiveTransactions) {
  auto service = FreshService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());
  LockClientBackend backend(client->get());
  core::ScriptRunner runner(&backend);
  std::string out;
  ASSERT_TRUE(runner.ExecuteLine("acquire 1 1 X", &out).ok());
  ASSERT_TRUE(runner.ExecuteLine("acquire 2 2 S", &out).ok());
  ASSERT_TRUE(runner.ExecuteLine("reset", &out).ok());
  EXPECT_EQ(service->live_transactions(), 0u);
}

}  // namespace
}  // namespace twbg::txn

// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Pins the exact text every checked-in scenario (scenarios/*.twbg)
// prints, with echo on as deadlock_repl prints it, through both script
// back ends:
//
//   tests/golden/<name>.raw.txt      the raw back end (a LockManager and
//                                    the periodic detector);
//   tests/golden/<name>.service.txt  InProcessClient over a fresh
//                                    single-shard periodic service.
//
// The two files of a scenario differ where the back ends differ: the
// service's default cost policy prices a transaction by its locks held,
// and its detect reports and views print service tids, numbered in Begin
// order rather than by script id.  Each back end keeps its own text.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/script.h"
#include "txn/client_script.h"
#include "txn/concurrent_service.h"
#include "txn/lock_client.h"

#if !defined(TWBG_SCENARIO_DIR) || !defined(TWBG_GOLDEN_DIR)
#error "TWBG_SCENARIO_DIR and TWBG_GOLDEN_DIR must be defined by the build"
#endif

namespace twbg {
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

std::string Golden(const std::filesystem::path& scenario,
                   const char* back_end) {
  return ReadFile(std::filesystem::path(TWBG_GOLDEN_DIR) /
                  (scenario.stem().string() + "." + back_end + ".txt"));
}

class ScenarioGoldenTest
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(ScenarioGoldenTest, RawBackEndMatchesGolden) {
  core::ScriptOptions options;
  options.echo = true;
  core::LockManagerBackend backend;
  core::ScriptRunner runner(&backend, options);
  std::string out;
  Status status = runner.ExecuteScript(ReadFile(GetParam()), &out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, Golden(GetParam(), "raw"));
}

TEST_P(ScenarioGoldenTest, ServiceBackEndMatchesGolden) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 1;
  auto service = txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto client = txn::InProcessClient::Create(service->get());
  ASSERT_TRUE(client.ok());
  txn::LockClientBackend backend(client->get());
  core::ScriptRunner runner(&backend, {.echo = true});
  std::string out;
  Status status = runner.ExecuteScript(ReadFile(GetParam()), &out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, Golden(GetParam(), "service"));
}

std::string NameOf(const ::testing::TestParamInfo<std::filesystem::path>& p) {
  std::string stem = p.param.stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioGoldenTest,
                         ::testing::ValuesIn(ScenarioFiles()), NameOf);

}  // namespace
}  // namespace twbg

// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Executes every checked-in scenario script (scenarios/*.twbg) through the
// ScriptRunner over the raw back end; the scripts carry their own
// `expect*` assertions, so this doubles as a behaviour test of the whole
// stack.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/script.h"

#ifndef TWBG_SCENARIO_DIR
#error "TWBG_SCENARIO_DIR must be defined by the build"
#endif

namespace twbg::core {
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

class ScenarioFileTest
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(ScenarioFileTest, RunsCleanly) {
  std::ifstream file(GetParam());
  ASSERT_TRUE(file.good()) << GetParam();
  std::stringstream buffer;
  buffer << file.rdbuf();
  LockManagerBackend backend;
  ScriptRunner runner(&backend);
  std::string out;
  Status status = runner.ExecuteScript(buffer.str(), &out);
  EXPECT_TRUE(status.ok()) << GetParam() << ": " << status.ToString()
                           << "\n--- output ---\n"
                           << out;
}

std::string NameOf(const ::testing::TestParamInfo<std::filesystem::path>& p) {
  std::string stem = p.param.stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioFileTest,
                         ::testing::ValuesIn(ScenarioFiles()), NameOf);

TEST(ScenarioDirTest, HasScenarios) {
  EXPECT_GE(ScenarioFiles().size(), 4u);
}

}  // namespace
}  // namespace twbg::core

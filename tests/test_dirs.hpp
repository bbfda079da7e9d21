#pragma once

// Scratch locations for tests that write files. Every path carries the
// process id, so two test runs from different build trees (or a ctest -j
// run, which starts each discovered TEST as its own process) never share
// or delete each other's files.

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace tgc::test {

/// `<tmp>/tgc_<name>_<pid>`: a scratch file path, or a directory name.
inline std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("tgc_" + name + "_" + std::to_string(::getpid()));
}

/// Creates and returns `<tmp>/tgc_<suite>_<test>_<pid>` for the running
/// test; fixtures remove it in TearDown.
inline std::filesystem::path make_test_dir(const std::string& suite) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir = temp_path(suite + "_" + info->name());
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace tgc::test

#ifndef NBRAFT_TESTS_COMMON_TEMP_PATH_H_
#define NBRAFT_TESTS_COMMON_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace nbraft::test_util {

/// A path in the temp directory unique to the running test and process:
/// `<tmp>/<prefix>_<Suite>.<Test>_<pid><suffix>`. `ctest -j` runs every
/// case in its own process, and concurrent processes can hand a fixture
/// the same heap address, so neither `this` nor the test name alone keeps
/// parallel runs from clobbering each other's files.
inline std::filesystem::path TestTempPath(const std::string& prefix,
                                          const std::string& suffix = "") {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = prefix + "_" + info->test_suite_name() + "." +
                     info->name() + "_" + std::to_string(::getpid()) + suffix;
  // Parameterized names carry '/' (Instance/Suite.Test/N).
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace nbraft::test_util

#endif  // NBRAFT_TESTS_COMMON_TEMP_PATH_H_

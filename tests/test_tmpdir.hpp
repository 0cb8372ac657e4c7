// Per-test scratch directories. ctest runs every test case as its own
// process, several at once under `ctest -j`, so a directory shared by name
// lets one case delete another's files; these are named after the running
// test (suite + test name) and the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace slj::testutil {

/// An empty directory owned by the running test, removed with its contents
/// on destruction. Construct it while a test runs (fixture member, local).
class TestTmpDir {
 public:
  TestTmpDir() {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "slj";
    if (info != nullptr) name += std::string("_") + info->test_suite_name() + "_" + info->name();
    name += "_" + std::to_string(::getpid());
    for (char& c : name) c = c == '/' ? '_' : c;  // parameterized names carry slashes
    dir_ = std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TestTmpDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  TestTmpDir(const TestTmpDir&) = delete;
  TestTmpDir& operator=(const TestTmpDir&) = delete;

  const std::filesystem::path& path() const { return dir_; }
  std::string file(const std::string& name) const { return (dir_ / name).string(); }

 private:
  std::filesystem::path dir_;
};

/// `name` inside a directory owned by this test process, made on first use
/// and removed at exit — for tests whose file names are unique in the binary.
inline std::string temp_path(const std::string& name) {
  static const TestTmpDir dir;
  return dir.file(name);
}

}  // namespace slj::testutil

// A temporary directory that lives as long as the test object holding it.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace fgad::test {

/// A new, empty directory under the test temp dir, removed with all it
/// holds when the object goes away. Unlike a pid-based name, mkdtemp never
/// hands back one that an earlier process with a recycled pid left behind.
/// Declare it before anything that writes into it (a DurableServer, a
/// checkpoint thread), so that is gone before the directory.
class ScopedDir {
 public:
  explicit ScopedDir(const std::string& name)
      : path_(::testing::TempDir() + "/" + name + ".XXXXXX") {
    EXPECT_NE(::mkdtemp(path_.data()), nullptr) << path_;
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;

  const std::string& path() const { return path_; }
  /// The path of `name` inside the directory.
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace fgad::test

// Cuts a write(2) short at a chosen file offset, the way a full disk or a
// file-size quota does, for tests of a failed WAL append.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>

namespace fgad::test {

/// Caps this process's file size at `limit` bytes with SIGXFSZ ignored, so
/// a write that crosses the offset is cut short and the next one fails
/// with EFBIG. The destructor restores the limit and the signal handler.
class FileSizeCap {
 public:
  explicit FileSizeCap(std::uint64_t limit) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved_;
    capped.rlim_cur = static_cast<rlim_t>(limit);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  }
  ~FileSizeCap() {
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_), 0);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

}  // namespace fgad::test

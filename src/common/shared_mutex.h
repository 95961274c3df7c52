// A reader-writer lock that lets a waiting writer in ahead of new readers.
//
// std::shared_mutex on glibc is a pthread rwlock of the default kind, which
// prefers readers: while readers keep overlapping, a writer waits for an
// instant with none. CloudServer's file map is read by every file request
// and written only by outsource and drop_file, so under a steady stream of
// reads those two could wait without bound. This is the same pthread rwlock
// set to prefer writers. It meets the Lockable and SharedLockable
// requirements, so std::unique_lock and std::shared_lock hold it.
//
// A thread must not take it shared twice: with a writer queued between the
// two acquisitions, the second waits for the writer, which waits for the
// first.
#pragma once

#include <pthread.h>

#include <system_error>

namespace fgad {

class WriterPreferringMutex {
 public:
  WriterPreferringMutex() {
    pthread_rwlockattr_t attr;
    check(pthread_rwlockattr_init(&attr));
    pthread_rwlockattr_setkind_np(&attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
    const int rc = pthread_rwlock_init(&rw_, &attr);
    pthread_rwlockattr_destroy(&attr);
    check(rc);
  }
  ~WriterPreferringMutex() { pthread_rwlock_destroy(&rw_); }

  WriterPreferringMutex(const WriterPreferringMutex&) = delete;
  WriterPreferringMutex& operator=(const WriterPreferringMutex&) = delete;

  void lock() { check(pthread_rwlock_wrlock(&rw_)); }
  void unlock() { pthread_rwlock_unlock(&rw_); }
  void lock_shared() { check(pthread_rwlock_rdlock(&rw_)); }
  void unlock_shared() { pthread_rwlock_unlock(&rw_); }

 private:
  static void check(int rc) {
    if (rc != 0) {
      throw std::system_error(rc, std::generic_category(), "pthread rwlock");
    }
  }

  pthread_rwlock_t rw_;
};

}  // namespace fgad

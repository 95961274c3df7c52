// Crash-safe filesystem primitives shared by the durability layer
// (cloud/wal, cloud/recovery) and every on-disk writer that claims to be
// atomic (server images, the client keystore).
//
// "Atomic" here means the POSIX temp-file dance done *completely*: write
// to `<path>.tmp`, fsync the file, rename over `path`, fsync the parent
// directory. Skipping either fsync leaves a window where a power cut
// produces an empty or missing file even though rename(2) itself is atomic
// (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"

namespace fgad::fsio {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// seeded with `seed` so multi-span checksums can be chained. Slicing-by-8:
/// eight bytes per step, the same values as the byte-at-a-time form.
std::uint32_t crc32(BytesView data, std::uint32_t seed = 0);

/// write(2) until all of `data` is written: short writes are resumed and
/// EINTR retried. kIoError on any other failure.
Status write_all(int fd, BytesView data);

/// Writes `data` to `path` atomically and durably: temp file in the same
/// directory, fsync, rename, fsync parent dir. On any failure the original
/// file (if one existed) is untouched.
Status atomic_write_file(const std::string& path, BytesView data);

/// fsyncs the directory containing `path` so a just-created or
/// just-renamed entry survives a crash.
Status fsync_parent_dir(const std::string& path);

/// Reads the whole file; kIoError when it cannot be opened.
Result<Bytes> read_file(const std::string& path);

/// True iff `path` exists (any file type).
bool exists(const std::string& path);

}  // namespace fgad::fsio

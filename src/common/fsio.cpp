#include "common/fsio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace fgad::fsio {

namespace {

// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table; t[k][b]
// is the CRC of byte b followed by k zero bytes, so eight table lookups
// fold eight input bytes into the register at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

/// Little-endian load; compiles to one unaligned load on LE hosts.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  return slash == 0 ? "/" : path.substr(0, slash);
}

Status errno_status(const std::string& what) {
  return Status(Errc::kIoError, what + ": " + std::strerror(errno));
}

}  // namespace

Status write_all(int fd, BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return errno_status("write");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::ok();
}

std::uint32_t crc32(BytesView data, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Status fsync_parent_dir(const std::string& path) {
  const std::string dir = dir_of(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return errno_status("open dir " + dir);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return errno_status("fsync dir " + dir);
  }
  return Status::ok();
}

Status atomic_write_file(const std::string& path, BytesView data) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return errno_status("open " + tmp);
  }
  Status st = write_all(fd, data);
  if (st && ::fsync(fd) != 0) {
    st = errno_status("fsync " + tmp);
  }
  if (::close(fd) != 0 && st) {
    st = errno_status("close " + tmp);
  }
  if (!st) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    st = errno_status("rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return st;
  }
  return fsync_parent_dir(path);
}

Result<Bytes> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error(Errc::kIoError, "cannot open " + path);
  }
  Bytes data;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + got);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) {
    return Error(Errc::kIoError, "read failed: " + path);
  }
  return data;
}

bool exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace fgad::fsio

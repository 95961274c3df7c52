// Shared helpers for the operator-side monitoring tools (fgad_mon and
// fgad's --stitch): a one-shot HTTP GET against a metrics
// endpoint and a purpose-built scanner for the flat /vars.json shape
// (DESIGN.md §17). This is deliberately not a general JSON library —
// names are taken verbatim from the document, numeric fields via strtod.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace fgad::montool {

/// One-shot HTTP GET; returns the response body or "" on error.
inline std::string http_get(const std::string& host, std::uint16_t port,
                            const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return "";
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t w = ::send(fd, req.data() + off, req.size() - off, 0);
    if (w <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<std::size_t>(w);
  }
  std::string resp;
  char buf[4096];
  ssize_t r;
  while ((r = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  const std::size_t body = resp.find("\r\n\r\n");
  return body == std::string::npos ? "" : resp.substr(body + 4);
}

/// Substring covering the {...} that follows `"key":` (empty if absent).
inline std::string object_after(const std::string& body,
                                const std::string& key) {
  const std::string needle = "\"" + key + "\":{";
  const std::size_t start = body.find(needle);
  if (start == std::string::npos) {
    return "";
  }
  std::size_t pos = start + needle.size() - 1;
  int depth = 0;
  for (std::size_t i = pos; i < body.size(); ++i) {
    if (body[i] == '{') {
      ++depth;
    } else if (body[i] == '}') {
      if (--depth == 0) {
        return body.substr(pos, i - pos + 1);
      }
    }
  }
  return "";
}

/// Value of `"field":<number>` inside one instrument's object.
inline double number_field(const std::string& obj, const char* field) {
  const std::string needle = std::string("\"") + field + "\":";
  const std::size_t pos = obj.find(needle);
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtod(obj.c_str() + pos + needle.size(), nullptr);
}

struct Entry {
  std::string name;
  std::string obj;  // the instrument's own {...}
};

/// Splits a {"name":{...},"name":{...}} object into entries.
inline std::vector<Entry> entries_of(const std::string& obj) {
  std::vector<Entry> out;
  std::size_t pos = 1;  // skip outer '{'
  while (pos < obj.size()) {
    const std::size_t q1 = obj.find('"', pos);
    if (q1 == std::string::npos) {
      break;
    }
    const std::size_t q2 = obj.find('"', q1 + 1);
    if (q2 == std::string::npos || q2 + 1 >= obj.size() ||
        obj[q2 + 1] != ':') {
      break;
    }
    if (obj[q2 + 2] != '{') {
      break;
    }
    int depth = 0;
    std::size_t end = q2 + 2;
    for (std::size_t i = q2 + 2; i < obj.size(); ++i) {
      if (obj[i] == '{') {
        ++depth;
      } else if (obj[i] == '}') {
        if (--depth == 0) {
          end = i;
          break;
        }
      }
    }
    out.push_back(Entry{obj.substr(q1 + 1, q2 - q1 - 1),
                        obj.substr(q2 + 2, end - q2 - 1)});
    pos = end + 1;
  }
  return out;
}

/// "host:port" -> pair; port 0 on parse failure.
inline std::pair<std::string, std::uint16_t> split_host_port(
    const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    return {"", 0};
  }
  return {spec.substr(0, colon),
          static_cast<std::uint16_t>(std::atoi(spec.c_str() + colon + 1))};
}

}  // namespace fgad::montool

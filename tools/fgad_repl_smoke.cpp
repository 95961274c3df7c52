// fgad_repl_smoke — two-process primary–backup failover smoke test.
//
//   fgad_repl_smoke [--server PATH] [--dir DIR] [--items N]
//
// Orchestrates the full DESIGN.md §18 failure drill against two real
// fgad_server processes on loopback:
//
//   1. start a backup, then a primary replicating to it (no client ACK
//      until the backup's WAL holds the mutation);
//   2. outsource a file and assuredly delete items one at a time through
//      a net::FailoverChannel pointed at both endpoints;
//   3. kill -9 the primary mid-load and SIGHUP the backup to promote it;
//      the deletion loop must ride through on the failover channel;
//   4. verify ZERO ACKED LOSS: every deletion acknowledged before or
//      after the kill is observed on the survivor, and every surviving
//      item still decrypts to its original bytes (the replicated state
//      passed recovery + fsck on the backup's open path);
//   5. restart the dead primary from its state dir, still configured as
//      a primary of the old term: its first replication message must be
//      fenced with STALE_TERM, after which it demotes itself and answers
//      clients with NOT_PRIMARY (verified via a direct channel).
//
// Exit code 0 = all checks passed. Used by the CI failover smoke job.
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "net/failover.h"
#include "net/tcp.h"
#include "proto/messages.h"

namespace {

using namespace fgad;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

Bytes payload(std::size_t i) {
  std::string s = "replicated item payload #" + std::to_string(i);
  return Bytes(s.begin(), s.end());
}

/// Asks the kernel for a currently free loopback port. Racy in principle,
/// fine for a smoke test that owns the machine's test namespace.
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

struct Proc {
  pid_t pid = -1;
  int stdin_w = -1;  // held open: fgad_server parks until stdin EOF
};

Proc spawn(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return {};
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[0], STDIN_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[0]);
  return {pid, fds[1]};
}

void reap(Proc& p, int sig) {
  if (p.pid <= 0) {
    return;
  }
  ::kill(p.pid, sig);
  if (p.stdin_w >= 0) {
    ::close(p.stdin_w);
    p.stdin_w = -1;
  }
  int status = 0;
  ::waitpid(p.pid, &status, 0);
  p.pid = -1;
}

bool wait_for_listen(std::uint16_t port, int deadline_ms) {
  net::TcpChannel::Options copts;
  copts.connect_timeout_ms = 250;
  for (int waited = 0; waited < deadline_ms; waited += 100) {
    // fgad_server binds its RPC port only after recovery completes, so a
    // successful connect doubles as a readiness probe.
    if (net::TcpChannel::connect("127.0.0.1", port, copts)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

/// Assured-deletes one item, riding out a failover: a mid-protocol
/// transport loss can poison the handle (indeterminate key-rotating
/// commit); resync() resolves which epoch the survivor is in, after
/// which the item is either already gone (the commit had landed and the
/// resend hit the replicated dedup) or still present (retry).
bool erase_with_failover(client::Client& c, client::Client::FileHandle& fh,
                         std::uint64_t item_id) {
  for (int attempt = 0; attempt < 40; ++attempt) {
    if (fh.poisoned) {
      if (!c.resync(fh)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        continue;
      }
    }
    auto st = c.erase_item(fh, proto::ItemRef::id(item_id));
    if (st) {
      return true;
    }
    if (st.code() == Errc::kNotFound) {
      return true;  // earlier (resent) attempt already deleted it
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string server = "./build/tools/fgad_server";
  std::string dir = "/tmp/fgad_repl_smoke." + std::to_string(::getpid());
  std::size_t n_items = 48;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--server" && i + 1 < argc) {
      server = argv[++i];
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--items" && i + 1 < argc) {
      n_items = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: fgad_repl_smoke [--server PATH] [--dir DIR] "
                   "[--items N]\n");
      return 2;
    }
  }
  const std::string dir_a = dir + "/primary";
  const std::string dir_b = dir + "/backup";
  ::mkdir(dir.c_str(), 0755);
  ::mkdir(dir_a.c_str(), 0755);
  ::mkdir(dir_b.c_str(), 0755);

  const std::uint16_t port_a = free_port();
  const std::uint16_t port_b = free_port();
  std::printf("primary 127.0.0.1:%u (%s)  backup 127.0.0.1:%u (%s)\n", port_a,
              dir_a.c_str(), port_b, dir_b.c_str());

  // 1. Backup first (the primary's replicator redials until it appears,
  // but starting in order keeps the log readable), then the primary: no
  // client ACK until the backup's WAL has the record.
  Proc backup = spawn({server, "--state-dir", dir_b, "--role", "backup",
                       "--port", std::to_string(port_b), "--log-level",
                       "warn"});
  Proc primary = spawn({server, "--state-dir", dir_a, "--role", "primary",
                        "--port", std::to_string(port_a), "--replicate-to",
                        "127.0.0.1:" + std::to_string(port_b),
                        "--repl-heartbeat-ms", "100", "--log-level", "warn"});
  check(wait_for_listen(port_b, 10000), "backup accepting connections");
  check(wait_for_listen(port_a, 10000), "primary accepting connections");
  if (g_failures != 0) {
    reap(primary, SIGKILL);
    reap(backup, SIGKILL);
    return 1;
  }

  // 2. Client over a failover channel spanning both endpoints. Tagged
  // mutations make every resend exactly-once against the (replicated)
  // rid dedup table.
  net::FailoverChannel::Options fopts;
  fopts.max_attempts = 10;
  fopts.base_backoff_ms = 50;
  fopts.max_backoff_ms = 500;
  fopts.retryable = [](BytesView req) { return proto::retryable_request(req); };
  net::FailoverChannel channel(
      net::static_endpoints(
          {{"127.0.0.1", port_a}, {"127.0.0.1", port_b}}),
      net::tcp_endpoint_dial(), fopts);
  crypto::SystemRandom rnd;
  client::Client::Options copts;
  copts.tag_mutations = true;
  client::Client client(channel, rnd, copts);

  auto fh = client.outsource(1, n_items,
                             [](std::size_t i) { return payload(i); });
  check(fh.is_ok(), "outsource through failover channel");
  if (!fh) {
    reap(primary, SIGKILL);
    reap(backup, SIGKILL);
    return 1;
  }

  // 3. Deletion load with a kill -9 + promotion in the middle. Every id
  // that erase_with_failover() reports deleted goes into `acked` — the
  // zero-acked-loss ledger the survivor is audited against.
  const std::size_t n_delete = n_items / 2;
  const std::size_t kill_at = n_delete / 2;
  std::set<std::uint64_t> acked;
  bool deletes_ok = true;
  for (std::size_t i = 0; i < n_delete; ++i) {
    if (i == kill_at) {
      std::printf("kill -9 primary (pid %d), SIGHUP backup (pid %d)\n",
                  primary.pid, backup.pid);
      ::kill(primary.pid, SIGKILL);
      ::kill(backup.pid, SIGHUP);  // promote: term 1 -> 2
    }
    if (!erase_with_failover(client, fh.value(), i)) {
      deletes_ok = false;
      std::fprintf(stderr, "delete of item %zu did not converge\n", i);
      break;
    }
    acked.insert(i);
  }
  check(deletes_ok, "pipelined deletion load survived the failover");
  check(channel.failovers() > 0, "failover channel re-routed at least once");

  // 4. Zero acked loss + surviving items intact, audited on the promoted
  // backup. A deleted item must be unrecoverable (the paper's assured-
  // deletion contract), an untouched one byte-identical.
  bool deleted_gone = true;
  bool survivors_intact = true;
  for (std::size_t i = 0; i < n_items; ++i) {
    auto got = client.access(fh.value(), proto::ItemRef::id(i));
    if (acked.count(i) != 0) {
      deleted_gone = deleted_gone && !got.is_ok();
    } else {
      survivors_intact =
          survivors_intact && got.is_ok() && got.value() == payload(i);
    }
  }
  check(deleted_gone, "every acked deletion present on the survivor");
  check(survivors_intact, "surviving items decrypt to original bytes");

  // 5. Resurrect the old primary unchanged: same state dir, still told
  // it is a primary replicating to the (now-promoted) backup. Its term-1
  // stream must bounce off the term-2 survivor with STALE_TERM, after
  // which it demotes and refuses clients with NOT_PRIMARY.
  Proc zombie = spawn({server, "--state-dir", dir_a, "--role", "primary",
                       "--port", std::to_string(port_a), "--replicate-to",
                       "127.0.0.1:" + std::to_string(port_b),
                       "--repl-heartbeat-ms", "100", "--log-level", "warn"});
  check(wait_for_listen(port_a, 10000), "old primary restarted");
  bool fenced = false;
  for (int waited = 0; waited < 10000 && !fenced; waited += 200) {
    auto direct = net::TcpChannel::connect("127.0.0.1", port_a);
    if (direct) {
      client::Client probe(*direct.value(), rnd, copts);
      auto got = probe.access(fh.value(), proto::ItemRef::id(n_items - 1));
      fenced = !got.is_ok() && got.code() == Errc::kNotPrimary;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  check(fenced, "stale-term primary demoted itself (NOT_PRIMARY to clients)");

  // The promoted node must be unaffected by the zombie's fencing bounce.
  auto still = client.access(fh.value(), proto::ItemRef::id(n_items - 1));
  check(still.is_ok(), "promoted primary still serving after fencing");

  reap(zombie, SIGTERM);
  reap(backup, SIGTERM);
  reap(primary, SIGKILL);  // already dead; reap the zombie entry

  if (g_failures == 0) {
    std::printf("fgad_repl_smoke: all checks passed\n");
    return 0;
  }
  std::fprintf(stderr, "fgad_repl_smoke: %d check(s) FAILED\n", g_failures);
  return 1;
}

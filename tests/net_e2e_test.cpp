// End-to-end determinism across the process boundary: spawn the real
// `busytime_cli serve` binary as a child process, drive it with the
// in-process net::Client, and require the SolveResult that comes back over
// TCP to be bit-identical to Service::solve() in this process — for every
// registered solver that applies, on three instance families.  Wall time
// is the one legitimately nondeterministic field, so both sides are
// compared through their wire encoding with wall_ms zeroed.
//
// The suite needs the CLI binary.  Its location is resolved at runtime:
// the BUSYTIME_CLI_PATH environment variable wins (CI exports it so the
// suite can never silently skip there), falling back to the
// BUSYTIME_CLI_PATH compile definition CMake injects when examples are
// built.  Only configs with neither (the examples-off TSan job) skip.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/registry.hpp"
#include "net/binstream.hpp"
#include "net/client.hpp"
#include "service/service.hpp"
#include "workload/generators.hpp"

namespace busytime {
namespace {

/// The serve binary to spawn: $BUSYTIME_CLI_PATH if set (how CI pins it),
/// else the path compiled in when examples are built, else empty (skip).
std::string cli_path() {
  if (const char* env = std::getenv("BUSYTIME_CLI_PATH");
      env != nullptr && *env != '\0')
    return env;
#ifdef BUSYTIME_CLI_PATH
  return BUSYTIME_CLI_PATH;
#else
  return "";
#endif
}

/// `busytime_cli serve --listen=0` as a child process.  The parent reads
/// the child's "listening on HOST:PORT" line to learn the ephemeral port.
/// A nonzero `max_fds` lowers the child's descriptor limit before exec.
struct ChildServer {
  pid_t pid = -1;
  std::uint16_t port = 0;

  explicit ChildServer(const std::string& cli, rlim_t max_fds = 0) {
    int out[2];
    if (::pipe(out) != 0) return;
    pid = ::fork();
    if (pid == -1) return;
    if (pid == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      if (max_fds > 0) {
        const rlimit limit{max_fds, max_fds};
        ::setrlimit(RLIMIT_NOFILE, &limit);
      }
      ::execl(cli.c_str(), cli.c_str(), "serve", "--listen=0",
              "--workers=2", static_cast<char*>(nullptr));
      std::perror("execl busytime_cli");
      ::_exit(127);
    }
    ::close(out[1]);
    // Read a line: "listening on 127.0.0.1:PORT".
    std::string line;
    char ch;
    while (::read(out[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    stdout_fd = out[0];
    const auto colon = line.rfind(':');
    if (colon == std::string::npos) {
      ADD_FAILURE() << "unexpected server banner: " << line;
      return;
    }
    port = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
  }

  /// Asks the server to drain and reaps the child; EXPECTs a clean exit.
  void shutdown_and_reap() {
    if (pid == -1) return;
    try {
      net::Client client("127.0.0.1", port);
      client.shutdown_server();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "shutdown frame failed: " << e.what();
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "server exit status " << status;
    pid = -1;
  }

  ~ChildServer() {
    if (pid != -1) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (stdout_fd >= 0) ::close(stdout_fd);
  }

  int stdout_fd = -1;
};

/// User plus system CPU time process `pid` has used, in seconds, from
/// /proc/<pid>/stat; negative when it cannot be read.
double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  const std::string stat{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  // The command name (field 2) may hold spaces; fields 3.. follow its ')'.
  const auto paren = stat.rfind(')');
  if (paren == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(paren + 1));
  std::string skipped;
  for (int field = 3; field < 14; ++field) fields >> skipped;
  long long utime = -1;
  long long stime = -1;
  fields >> utime >> stime;
  if (!fields) return -1.0;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Wire encoding with wall_ms zeroed: equal strings == bit-identical
/// results in every field the protocol carries.
std::string fingerprint(SolveResult result) {
  result.wall_ms = 0.0;
  return net::to_payload(result);
}

TEST(NetE2E, RemoteResultsMatchInProcessBitForBit) {
  const std::string cli = cli_path();
  if (cli.empty())
    GTEST_SKIP() << "busytime_cli not built in this configuration and "
                    "BUSYTIME_CLI_PATH is not set";
  ChildServer child(cli);
  ASSERT_GT(child.port, 0) << "failed to spawn or handshake with the server";

  struct Family {
    const char* name;
    Instance instance;
  };
  std::vector<Family> families;
  {
    GenParams p;
    p.n = 60;
    p.g = 4;
    p.seed = 21;
    families.push_back({"general", gen_general(p)});
    p.n = 40;
    p.g = 3;
    p.seed = 22;
    families.push_back({"clique", gen_clique(p)});
    p.n = 50;
    p.seed = 23;
    families.push_back({"proper", gen_proper(p)});
  }

  net::Client client("127.0.0.1", child.port);
  Service local;

  int compared = 0;
  for (const Family& family : families) {
    const net::RemoteHandle remote = client.load(family.instance);
    const InstanceHandle handle = local.load(family.instance);

    for (const SolverInfo* solver : SolverRegistry::instance().all()) {
      SolverSpec spec;
      spec.name = solver->name;
      SolveResult in_process;
      try {
        in_process = local.solve(handle, spec);
      } catch (const std::exception&) {
        // Not applicable to this family / needs options: the remote side
        // must refuse identically, which solve() below verifies by throwing.
        EXPECT_THROW(client.solve(remote, spec), net::RemoteError)
            << solver->name << " on " << family.name
            << " failed locally but succeeded remotely";
        continue;
      }
      SolveResult over_wire;
      try {
        over_wire = client.solve(remote, spec);
      } catch (const std::exception& e) {
        ADD_FAILURE() << solver->name << " on " << family.name
                      << " succeeded locally but failed remotely: "
                      << e.what();
        continue;
      }
      EXPECT_EQ(fingerprint(over_wire), fingerprint(in_process))
          << solver->name << " diverged over the wire on " << family.name;
      ++compared;
    }
    client.release(remote);
  }
  // Belt and braces: the loop really did exercise a broad solver set.
  EXPECT_GE(compared, 3 * 6);

  child.shutdown_and_reap();
}

// A server out of descriptors leaves its backlog queued without spinning:
// accept() fails with EMFILE while the listener stays readable, so the
// reactor must stop polling it until a connection closes.  Once the
// clients go, the server accepts again and answers.
TEST(NetE2E, OutOfDescriptorsDoesNotSpinTheReactor) {
  const std::string cli = cli_path();
  if (cli.empty())
    GTEST_SKIP() << "busytime_cli not built in this configuration and "
                    "BUSYTIME_CLI_PATH is not set";
  ChildServer child(cli, /*max_fds=*/24);
  ASSERT_GT(child.port, 0) << "failed to spawn or handshake with the server";

  // 40 connections against a 24-descriptor table: the server accepts what
  // fits and the rest wait in the listen backlog.
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int i = 0; i < 40; ++i)
    clients.push_back(std::make_unique<net::Client>("127.0.0.1", child.port));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const double before = cpu_seconds(child.pid);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double after = cpu_seconds(child.pid);
  ASSERT_GE(before, 0.0) << "cannot read /proc/" << child.pid << "/stat";
  EXPECT_LT(after - before, 0.2) << "the reactor spins on a full fd table";

  clients.clear();
  {
    net::Client probe("127.0.0.1", child.port);
    EXPECT_NO_THROW(probe.ping());
  }
  child.shutdown_and_reap();
}

}  // namespace
}  // namespace busytime

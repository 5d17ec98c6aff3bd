// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Interactive / scripted deadlock explorer.  Reads the scenario language
// of core/script.h from a file or stdin:
//
//   $ ./deadlock_repl                        # interactive REPL
//   $ ./deadlock_repl scenario.twbg          # run a script file
//   $ echo "acquire 1 1 X" | ./deadlock_repl -
//   $ ./deadlock_repl --trace-out=events.jsonl scenario.twbg
//   $ ./deadlock_repl --remote=127.0.0.1:7762 scenario.twbg
//   $ ./deadlock_repl --service scenario.twbg
//
// Back ends:
//   (default)          the classic in-process ScriptRunner over a raw
//                      lock manager + periodic detector;
//   --service          a periodic-engine ConcurrentLockService driven
//                      through InProcessClient (same surface as remote);
//   --remote=HOST:PORT a live twbg-serverd daemon via net::TcpClient.
//
// --trace-out=<file> streams every structured event (lock grants/blocks,
// detection passes, resolutions) as JSON lines; the `obs` command prints
// the aggregated report at any point.  Both are classic-back-end only:
// through a LockClient the event stream lives in the service process.
//
// With no arguments and a TTY, type `help` for the command list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/script.h"
#include "net/tcp_client.h"
#include "txn/client_script.h"
#include "txn/concurrent_service.h"

namespace {

constexpr const char* kHelp = R"(commands:
  acquire <txn> <resource> <mode>   mode: IS IX S SIX X
  release <txn>
  cost <txn> <value>
  detect
  table | graph | tst | dot | cycles | oracle | costs
  expect granted|blocked|alreadyheld
  expect-deadlock yes|no
  expect-aborted <txn> ...
  obs                               event counts + latency histograms
  postmortem                        forensics of the last detect's cycles
  reset
  help | quit
)";

// The two runner kinds behind one line-at-a-time interface.
class LineRunner {
 public:
  virtual ~LineRunner() = default;
  virtual twbg::Status ExecuteLine(const std::string& line,
                                   std::string* out) = 0;
};

class ClassicRunner final : public LineRunner {
 public:
  explicit ClassicRunner(twbg::core::ScriptOptions options)
      : runner_(options) {}
  twbg::Status StreamEventsTo(const std::string& path) {
    return runner_.StreamEventsTo(path);
  }
  twbg::Status ExecuteLine(const std::string& line,
                           std::string* out) override {
    return runner_.ExecuteLine(line, out);
  }

 private:
  twbg::core::ScriptRunner runner_;
};

class ClientRunner final : public LineRunner {
 public:
  ClientRunner(std::unique_ptr<twbg::LockClient> client,
               std::unique_ptr<twbg::txn::ConcurrentLockService> service,
               twbg::txn::ClientScriptOptions options)
      : service_(std::move(service)),
        client_(std::move(client)),
        runner_(client_.get(), options) {}
  twbg::Status ExecuteLine(const std::string& line,
                           std::string* out) override {
    return runner_.ExecuteLine(line, out);
  }

 private:
  // Declaration order is the lifetime order: the service (non-null only
  // for --service) must outlive the client that drives it, which must
  // outlive the runner.
  std::unique_ptr<twbg::txn::ConcurrentLockService> service_;
  std::unique_ptr<twbg::LockClient> client_;
  twbg::txn::ClientScriptRunner runner_;
};

int RunStream(std::istream& in, bool interactive, LineRunner* runner) {
  std::string line;
  if (interactive) {
    std::printf("twbg deadlock explorer — type 'help'\n");
  }
  while (true) {
    if (interactive) {
      std::printf("twbg> ");
      std::fflush(stdout);
    }
    if (!std::getline(in, line)) break;
    if (line == "quit" || line == "exit") break;
    if (line == "help") {
      std::printf("%s", kHelp);
      continue;
    }
    std::string out;
    twbg::Status status = runner->ExecuteLine(line, &out);
    std::printf("%s", out.c_str());
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      if (!interactive) return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string remote;
  bool service_mode = false;
  const char* script = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--remote=", 9) == 0) {
      remote = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--service") == 0) {
      service_mode = true;
    } else {
      script = argv[i];
    }
  }
  const bool interactive = script == nullptr;
  const bool echo = !interactive;

  std::unique_ptr<LineRunner> runner;
  if (!remote.empty()) {
    const size_t colon = remote.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--remote wants HOST:PORT, got '%s'\n",
                   remote.c_str());
      return 1;
    }
    twbg::net::ClientOptions options;
    options.host = remote.substr(0, colon);
    options.port =
        static_cast<uint16_t>(std::strtoul(remote.c_str() + colon + 1,
                                           nullptr, 10));
    auto client = twbg::net::TcpClient::Create(options);
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    runner = std::make_unique<ClientRunner>(
        std::move(*client), nullptr,
        twbg::txn::ClientScriptOptions{.echo = echo});
  } else if (service_mode) {
    twbg::txn::ConcurrentServiceOptions options;
    auto service = twbg::txn::ConcurrentLockService::Create(options);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    auto client = twbg::txn::InProcessClient::Create(service->get());
    if (!client.ok()) {
      std::fprintf(stderr, "client: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    runner = std::make_unique<ClientRunner>(
        std::move(*client), std::move(*service),
        twbg::txn::ClientScriptOptions{.echo = echo});
  } else {
    auto classic = std::make_unique<ClassicRunner>(
        twbg::core::ScriptOptions{.echo = echo});
    if (!trace_out.empty()) {
      twbg::Status status = classic->StreamEventsTo(trace_out);
      if (!status.ok()) {
        std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    runner = std::move(classic);
  }
  if (!trace_out.empty() && (!remote.empty() || service_mode)) {
    std::fprintf(stderr,
                 "--trace-out is only available with the classic back end\n");
    return 1;
  }

  if (script != nullptr && std::strcmp(script, "-") != 0) {
    std::ifstream file(script);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script);
      return 1;
    }
    return RunStream(file, /*interactive=*/false, runner.get());
  }
  return RunStream(std::cin, interactive, runner.get());
}

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
// Back ends of the one script interpreter (core::ScriptRunner):
//   (default)          core::LockManagerBackend, a raw lock manager +
//                      periodic detector;
//   --service          txn::LockClientBackend over InProcessClient and a
//                      periodic-engine ConcurrentLockService (same surface
//                      as remote);
//   --remote=HOST:PORT txn::LockClientBackend over net::TcpClient and a
//                      live twbg-serverd daemon.
//
// --trace-out=<file> streams every structured event (lock grants/blocks,
// detection passes, resolutions) as JSON lines; the `obs` command prints
// the aggregated report at any point.  Both are raw-back-end only:
// through a LockClient the event stream lives in the service process.
//
// With no arguments and a TTY, type `help` for the command list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/script.h"
#include "net/tcp_client.h"
#include "txn/client_script.h"
#include "txn/concurrent_service.h"

namespace {

// Reports a start-up failure; returns the process exit code.
int Fail(const char* what, const twbg::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

int RunStream(std::istream& in, bool interactive,
              twbg::core::ScriptRunner* runner) {
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
      std::printf("%s  help | quit\n",
                  twbg::core::ScriptRunner::Help().c_str());
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

  if (!trace_out.empty() && (!remote.empty() || service_mode)) {
    std::fprintf(stderr,
                 "--trace-out is only available with the raw back end\n");
    return 1;
  }

  // Declaration order is the lifetime order: the service (--service only)
  // outlives the client that drives it, which outlives the back end.
  std::unique_ptr<twbg::txn::ConcurrentLockService> service;
  std::unique_ptr<twbg::LockClient> client;
  std::unique_ptr<twbg::core::ScriptBackend> backend;
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
    auto tcp = twbg::net::TcpClient::Create(options);
    if (!tcp.ok()) return Fail("connect", tcp.status());
    client = std::move(*tcp);
  } else if (service_mode) {
    auto created = twbg::txn::ConcurrentLockService::Create({});
    if (!created.ok()) return Fail("service", created.status());
    service = std::move(*created);
    auto in_process = twbg::txn::InProcessClient::Create(service.get());
    if (!in_process.ok()) return Fail("client", in_process.status());
    client = std::move(*in_process);
  }
  if (client != nullptr) {
    backend = std::make_unique<twbg::txn::LockClientBackend>(client.get());
  } else {
    auto raw = std::make_unique<twbg::core::LockManagerBackend>();
    if (!trace_out.empty()) {
      twbg::Status status = raw->StreamEventsTo(trace_out);
      if (!status.ok()) return Fail("error", status);
    }
    backend = std::move(raw);
  }
  twbg::core::ScriptRunner runner(backend.get(), {.echo = !interactive});

  if (script != nullptr && std::strcmp(script, "-") != 0) {
    std::ifstream file(script);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script);
      return 1;
    }
    return RunStream(file, /*interactive=*/false, &runner);
  }
  return RunStream(std::cin, interactive, &runner);
}

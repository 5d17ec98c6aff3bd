// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/script.h"

#include <charconv>
#include <cstdlib>
#include <iterator>

#include "common/string_util.h"
#include "core/twbg.h"

namespace twbg::core {

namespace {

enum class Op {
  kAcquire,
  kRelease,
  kCost,
  kDetect,
  kView,
  kExpect,
  kExpectDeadlock,
  kExpectAborted,
  kObs,
  kPostmortem,
  kReset,
};

// One row of the grammar: what the interpreter parses, what usage errors
// print and what Help() lists.
struct Command {
  std::string_view name;
  std::string_view operands;
  int arity;  // number of operands; -1 = any
  Op op;
  View view;  // kView only
  std::string_view note;
};

constexpr Command kCommands[] = {
    {"acquire", "<txn> <resource> <mode>", 3, Op::kAcquire, {},
     "mode: IS IX S SIX X"},
    {"release", "<txn>", 1, Op::kRelease, {}, ""},
    {"cost", "<txn> <value>", 2, Op::kCost, {}, ""},
    {"detect", "", 0, Op::kDetect, {}, ""},
    {"table", "", 0, Op::kView, View::kTable, ""},
    {"graph", "", 0, Op::kView, View::kGraph, ""},
    {"tst", "", 0, Op::kView, View::kTst, ""},
    {"dot", "", 0, Op::kView, View::kDot, ""},
    {"cycles", "", 0, Op::kView, View::kCycles, ""},
    {"oracle", "", 0, Op::kView, View::kOracle, ""},
    {"costs", "", 0, Op::kView, View::kCosts, ""},
    {"expect", "granted|blocked|alreadyheld", 1, Op::kExpect, {}, ""},
    {"expect-deadlock", "yes|no", 1, Op::kExpectDeadlock, {}, ""},
    {"expect-aborted", "<txn> ...", -1, Op::kExpectAborted, {}, ""},
    {"obs", "", 0, Op::kObs, {}, "event counts + latency histograms"},
    {"postmortem", "", 0, Op::kPostmortem, {},
     "forensics of the last detect's cycles"},
    {"reset", "", 0, Op::kReset, {}, ""},
};

std::string Usage(const Command& command) {
  std::string usage(command.name);
  if (!command.operands.empty()) {
    usage += " ";
    usage += command.operands;
  }
  return usage;
}

Status UsageError(const Command& command) {
  return Status::InvalidArgument("usage: " + Usage(command));
}

std::optional<uint32_t> ParseId(std::string_view text) {
  uint32_t value = 0;
  // Allow a leading 'T' or 'R' for readability ("acquire T1 R10 X").
  if (!text.empty() && (text[0] == 'T' || text[0] == 'R')) {
    text.remove_prefix(1);
  }
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

Result<lock::TransactionId> ParseTxn(const std::string& text) {
  std::optional<uint32_t> tid = ParseId(text);
  if (!tid) {
    return Status::InvalidArgument(
        common::Format("bad transaction id '%s'", text.c_str()));
  }
  return *tid;
}

std::string OutcomeName(lock::RequestOutcome outcome) {
  switch (outcome) {
    case lock::RequestOutcome::kGranted:
      return "granted";
    case lock::RequestOutcome::kAlreadyHeld:
      return "alreadyheld";
    case lock::RequestOutcome::kBlocked:
      return "blocked";
  }
  return "?";
}

// The detector publishes on the back end's bus unless the caller set one.
// Post-mortems are always collected: the `postmortem` command must work
// even when no sink is subscribed, and scripts are small enough that the
// assembly cost never matters.
DetectorOptions WithBus(DetectorOptions options, obs::EventBus* bus) {
  if (options.event_bus == nullptr) options.event_bus = bus;
  options.collect_post_mortems = true;
  return options;
}

}  // namespace

ScriptRunner::ScriptRunner(ScriptBackend* backend, ScriptOptions options)
    : backend_(backend), options_(options) {}

std::string ScriptRunner::Help() {
  std::string out = "commands:\n";
  for (size_t i = 0; i < std::size(kCommands); ++i) {
    std::string usage = Usage(kCommands[i]);
    // The views share one line.
    while (kCommands[i].op == Op::kView && i + 1 < std::size(kCommands) &&
           kCommands[i + 1].op == Op::kView) {
      usage += " | ";
      usage += kCommands[++i].name;
    }
    const std::string note(kCommands[i].note);
    out += note.empty()
               ? common::Format("  %s\n", usage.c_str())
               : common::Format("  %-34s%s\n", usage.c_str(), note.c_str());
  }
  return out;
}

Status ScriptRunner::ExecuteLine(std::string_view line, std::string* out) {
  // Strip comments and whitespace.
  size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  std::vector<std::string> args =
      common::Split(line, ' ', /*skip_empty=*/true);
  if (args.empty()) return Status::OK();
  if (options_.echo) {
    *out += "> ";
    *out += common::Join(args, " ");
    *out += "\n";
  }

  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (candidate.name == args[0]) command = &candidate;
  }
  if (command == nullptr) {
    return Status::InvalidArgument(
        common::Format("unknown command '%s'", args[0].c_str()));
  }
  const std::vector<std::string> operands(args.begin() + 1, args.end());
  if (command->arity >= 0 &&
      operands.size() != static_cast<size_t>(command->arity)) {
    return UsageError(*command);
  }

  switch (command->op) {
    case Op::kAcquire: {
      std::optional<uint32_t> tid = ParseId(operands[0]);
      std::optional<uint32_t> rid = ParseId(operands[1]);
      std::optional<lock::LockMode> mode =
          lock::LockModeFromString(operands[2]);
      if (!tid || !rid || !mode) {
        return Status::InvalidArgument(common::Format(
            "cannot parse acquire arguments '%s %s %s'",
            operands[0].c_str(), operands[1].c_str(), operands[2].c_str()));
      }
      Result<lock::RequestOutcome> outcome =
          backend_->Acquire(*tid, *rid, *mode);
      if (!outcome.ok()) return outcome.status();
      last_outcome_ = *outcome;
      *out += common::Format("T%u <- %s on R%u: %s\n", *tid,
                             operands[2].c_str(), *rid,
                             OutcomeName(*outcome).c_str());
      return Status::OK();
    }
    case Op::kRelease: {
      Result<lock::TransactionId> txn = ParseTxn(operands[0]);
      if (!txn.ok()) return txn.status();
      Result<std::optional<size_t>> granted = backend_->Release(*txn);
      if (!granted.ok()) return granted.status();
      *out += common::Format("released T%u", *txn);
      if (granted->has_value()) {
        *out += common::Format("; granted %zu waiter(s)", **granted);
      }
      *out += "\n";
      return Status::OK();
    }
    case Op::kCost: {
      Result<lock::TransactionId> txn = ParseTxn(operands[0]);
      if (!txn.ok()) return txn.status();
      const char* text = operands[1].c_str();
      char* end = nullptr;
      const double cost = std::strtod(text, &end);
      if (end == text || *end != '\0') {
        return Status::InvalidArgument(
            common::Format("bad cost '%s'", text));
      }
      return backend_->SetCost(*txn, cost);
    }
    case Op::kDetect: {
      Result<DetectResult> detect = backend_->Detect();
      if (!detect.ok()) return detect.status();
      last_detect_ = std::move(*detect);
      *out += last_detect_->report;
      return Status::OK();
    }
    case Op::kView: {
      Result<std::string> text = backend_->Render(command->view);
      if (!text.ok()) return text.status();
      *out += *text;
      return Status::OK();
    }
    case Op::kExpect: {
      if (!last_outcome_.has_value()) {
        return Status::FailedPrecondition("no acquire to check");
      }
      const std::string actual = OutcomeName(*last_outcome_);
      if (actual != operands[0]) {
        return Status::Internal(
            common::Format("expectation failed: wanted %s, got %s",
                           operands[0].c_str(), actual.c_str()));
      }
      return Status::OK();
    }
    case Op::kExpectDeadlock: {
      if (operands[0] != "yes" && operands[0] != "no") {
        return UsageError(*command);
      }
      Result<bool> actual = backend_->HasDeadlock();
      if (!actual.ok()) return actual.status();
      if (*actual != (operands[0] == "yes")) {
        return Status::Internal(common::Format(
            "expectation failed: deadlock = %s", *actual ? "yes" : "no"));
      }
      return Status::OK();
    }
    case Op::kExpectAborted: {
      if (!last_detect_.has_value()) {
        return Status::FailedPrecondition("no detect to check");
      }
      std::vector<lock::TransactionId> wanted;
      for (const std::string& operand : operands) {
        Result<lock::TransactionId> txn = ParseTxn(operand);
        if (!txn.ok()) return txn.status();
        Result<lock::TransactionId> id = backend_->TxnId(*txn);
        if (!id.ok()) return id.status();
        wanted.push_back(*id);
      }
      if (wanted != last_detect_->aborted) {
        return Status::Internal(
            common::Format("expectation failed: aborted = {%s}",
                           TxnList(last_detect_->aborted).c_str()));
      }
      return Status::OK();
    }
    case Op::kObs: {
      Result<std::string> report = backend_->Obs();
      if (!report.ok()) return report.status();
      *out += *report;
      return Status::OK();
    }
    case Op::kPostmortem:
      if (!last_detect_.has_value()) {
        return Status::FailedPrecondition("no detect to report on");
      }
      *out += last_detect_->post_mortems.empty()
                  ? "no cycles resolved by the last detect\n"
                  : last_detect_->post_mortems;
      return Status::OK();
    case Op::kReset:
      TWBG_RETURN_IF_ERROR(backend_->Reset());
      last_outcome_.reset();
      last_detect_.reset();
      return Status::OK();
  }
  return Status::Internal("unhandled command");
}

Status ScriptRunner::ExecuteScript(std::string_view text, std::string* out) {
  size_t line_number = 0;
  for (const std::string& line : common::Split(text, '\n')) {
    ++line_number;
    Status status = ExecuteLine(line, out);
    if (!status.ok()) {
      return Status::Internal(common::Format(
          "line %zu: %s", line_number, std::string(status.message()).c_str()));
    }
  }
  return Status::OK();
}

LockManagerBackend::LockManagerBackend(DetectorOptions detector)
    : detector_(WithBus(std::move(detector), &bus_)) {
  manager_.set_event_bus(&bus_);
  bus_.Subscribe(&observer_);
}

Status LockManagerBackend::StreamEventsTo(const std::string& path) {
  Result<std::unique_ptr<obs::JsonlSink>> sink = obs::JsonlSink::Open(path);
  if (!sink.ok()) return sink.status();
  if (jsonl_ != nullptr) bus_.Unsubscribe(jsonl_.get());
  jsonl_ = std::move(*sink);
  bus_.Subscribe(jsonl_.get());
  return Status::OK();
}

Result<std::optional<size_t>> LockManagerBackend::Release(
    lock::TransactionId txn) {
  const size_t granted = manager_.ReleaseAll(txn).size();
  costs_.Erase(txn);
  return std::optional<size_t>(granted);
}

Status LockManagerBackend::SetCost(lock::TransactionId txn, double cost) {
  TWBG_RETURN_IF_ERROR(CheckAbortCost(cost));
  costs_.Set(txn, cost);
  return Status::OK();
}

Result<DetectResult> LockManagerBackend::Detect() {
  last_report_ = detector_.RunPass(manager_, costs_);
  return ProjectReport(*last_report_);
}

Result<bool> LockManagerBackend::HasDeadlock() {
  return HwTwbg::Build(manager_.table()).HasCycle();
}

Result<std::string> LockManagerBackend::Obs() {
  std::string out = observer_.Report();
  if (jsonl_ != nullptr) {
    jsonl_->Flush();
    out += common::Format(
        "jsonl: %llu line(s) -> %s\n",
        static_cast<unsigned long long>(jsonl_->lines_written()),
        jsonl_->path().c_str());
  }
  return out;
}

Status LockManagerBackend::Reset() {
  manager_ = lock::LockManager();
  // Assignment wiped the bus attachment; restore it.
  manager_.set_event_bus(&bus_);
  costs_ = CostTable();
  last_report_.reset();
  return Status::OK();
}

}  // namespace twbg::core

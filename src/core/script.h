// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// A tiny textual command language for driving a lock layer and its
// deadlock detector — reproducible deadlock scenarios as plain text files,
// used by the interactive example (examples/deadlock_repl) and by tests.
//
// Commands, one per line ('#' starts a comment):
//
//   acquire <txn> <resource> <mode>   issue a lock request (mode: IS, IX,
//                                     S, SIX, X)
//   release <txn>                     commit/abort: release everything
//   cost <txn> <value>                set the abort cost
//   detect                            one periodic detection-resolution
//                                     pass
//   table | graph | tst | dot | cycles | oracle | costs
//                                     print the respective view
//   expect granted|blocked|alreadyheld
//                                     assert the outcome of the last
//                                     acquire
//   expect-deadlock yes|no            assert cycle existence
//   expect-aborted <txn> [...]        assert the last detect's abortees
//   obs                               print the observability report
//                                     (event counts + latency histograms)
//   postmortem                        print the forensic post-mortem of
//                                     every cycle the last detect resolved
//   reset                             fresh lock manager and cost table
//
// One interpreter, ScriptRunner, owns this grammar; a ScriptBackend runs
// the commands.  Two back ends ship:
//
//   * LockManagerBackend (this header): a raw LockManager, CostTable and
//     PeriodicDetector in this process;
//   * txn::LockClientBackend (txn/client_script.h): any LockClient — an
//     in-process service or a twbg-serverd daemon.

#ifndef TWBG_CORE_SCRIPT_H_
#define TWBG_CORE_SCRIPT_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_table.h"
#include "core/detector.h"
#include "core/periodic_detector.h"
#include "core/view.h"
#include "lock/lock_manager.h"
#include "obs/observer.h"
#include "obs/sinks.h"

namespace twbg::core {

/// The operations a script runs on.  `txn` arguments are script ids; a
/// back end maps them onto its own transactions (TxnId).
class ScriptBackend {
 public:
  virtual ~ScriptBackend() = default;

  virtual Result<lock::RequestOutcome> Acquire(lock::TransactionId txn,
                                               lock::ResourceId rid,
                                               lock::LockMode mode) = 0;
  /// Releases everything `txn` holds; returns how many waiters that
  /// granted, when the back end can tell.
  virtual Result<std::optional<size_t>> Release(lock::TransactionId txn) = 0;
  virtual Status SetCost(lock::TransactionId txn, double cost) = 0;
  /// One detection pass; `aborted` holds back-end ids.
  virtual Result<DetectResult> Detect() = 0;
  virtual Result<std::string> Render(View view) = 0;
  virtual Result<bool> HasDeadlock() = 0;
  /// The observability report (`obs`).
  virtual Result<std::string> Obs() = 0;
  /// Forgets every transaction and all lock state.
  virtual Status Reset() = 0;
  /// The id `txn` goes by in DetectResult::aborted.
  virtual Result<lock::TransactionId> TxnId(lock::TransactionId txn) = 0;
};

/// Options for a script run.
struct ScriptOptions {
  /// Echo each command before its output.
  bool echo = false;
};

/// Stateful interpreter over a ScriptBackend.  Not thread-safe.
class ScriptRunner {
 public:
  /// Runs on `backend` (not owned; must outlive the runner).
  explicit ScriptRunner(ScriptBackend* backend, ScriptOptions options = {});

  /// Executes one line, appending any output to `*out`.  Unknown commands
  /// and failed expectations return errors; the state is left as-is.
  Status ExecuteLine(std::string_view line, std::string* out);

  /// Executes a whole script, stopping at the first error (reported with
  /// its 1-based line number).
  Status ExecuteScript(std::string_view text, std::string* out);

  /// Every command with its operands, one per line, from the table the
  /// interpreter parses with.
  static std::string Help();

 private:
  ScriptBackend* backend_;
  ScriptOptions options_;
  std::optional<lock::RequestOutcome> last_outcome_;
  std::optional<DetectResult> last_detect_;
};

/// The raw back end: a LockManager, a CostTable and a PeriodicDetector,
/// with every event on one bus.  Script ids are the manager's tids.
class LockManagerBackend final : public ScriptBackend {
 public:
  explicit LockManagerBackend(DetectorOptions detector = {});

  // The bus and its subscribed sinks are wired by address; moving or
  // copying the back end would leave them pointing into the old object.
  LockManagerBackend(const LockManagerBackend&) = delete;
  LockManagerBackend& operator=(const LockManagerBackend&) = delete;

  Result<lock::RequestOutcome> Acquire(lock::TransactionId txn,
                                       lock::ResourceId rid,
                                       lock::LockMode mode) override {
    return manager_.Acquire(txn, rid, mode);
  }
  Result<std::optional<size_t>> Release(lock::TransactionId txn) override;
  Status SetCost(lock::TransactionId txn, double cost) override;
  Result<DetectResult> Detect() override;
  Result<std::string> Render(View view) override {
    return RenderView(view, manager_, costs_);
  }
  Result<bool> HasDeadlock() override;
  Result<std::string> Obs() override;
  Status Reset() override;
  Result<lock::TransactionId> TxnId(lock::TransactionId txn) override {
    return txn;
  }

  lock::LockManager& manager() { return manager_; }
  CostTable& costs() { return costs_; }

  /// Report of the most recent `detect`, if any.
  const std::optional<ResolutionReport>& last_report() const {
    return last_report_;
  }

  /// The back end's event bus — every lock-manager and detector event of
  /// every executed command flows through it.  Subscribe additional sinks
  /// before running commands; the built-in LatencyObserver is always
  /// subscribed.
  obs::EventBus& event_bus() { return bus_; }

  /// Aggregates over everything executed so far (the `obs` command prints
  /// this; `reset` does not clear it).
  const obs::LatencyObserver& observer() const { return observer_; }

  /// Streams every subsequent event as one JSON line to `path`
  /// (truncates; replaces any previous stream target).
  Status StreamEventsTo(const std::string& path);

 private:
  // bus_ must precede detector_: the constructor points the detector's
  // options at it.
  obs::EventBus bus_;
  obs::LatencyObserver observer_;
  std::unique_ptr<obs::JsonlSink> jsonl_;
  lock::LockManager manager_;
  CostTable costs_;
  PeriodicDetector detector_;
  std::optional<ResolutionReport> last_report_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_SCRIPT_H_

// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The benchmark's own span recorder.  The driver wraps every call it
// makes into a layer (LockClient calls, detector passes) in a span, and
// records its own time inside a transaction (lag, waits, think time) as
// spans of their own.  Spans are kept in memory, one lane per recording
// thread, and written out as Chrome/Perfetto trace JSON when the run
// ends.  Spans of one transaction carry its transaction id, so a viewer
// (or Reconcile below) can group them.

#ifndef LOCKBENCH_RECORDER_H_
#define LOCKBENCH_RECORDER_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace lockbench {

/// What a span wraps.  kTxn is the client-observed transaction (from the
/// time it was due to its commit acknowledgement).  kBegin..kPing are
/// calls into a layer and kPass a detector pass.  kLag, kWait and kThink
/// are the driver's own time inside a transaction, each recorded from
/// timestamps the driver takes itself: kLag how late the driver started a
/// call that was due (open loop), kWait a blocked acquire from its return
/// to the observed outcome, kThink the open loop's planned pause between
/// steps.
enum class SpanName : uint8_t {
  kTxn,
  kBegin,
  kAcquire,
  kState,
  kAwait,
  kCommit,
  kAbort,
  kPing,
  kPass,
  kLag,
  kWait,
  kThink,
};

inline const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kTxn: return "txn";
    case SpanName::kBegin: return "begin";
    case SpanName::kAcquire: return "acquire";
    case SpanName::kState: return "state";
    case SpanName::kAwait: return "await";
    case SpanName::kCommit: return "commit";
    case SpanName::kAbort: return "abort";
    case SpanName::kPing: return "ping";
    case SpanName::kPass: return "pass";
    case SpanName::kLag: return "lag";
    case SpanName::kWait: return "wait";
    case SpanName::kThink: return "think";
  }
  return "?";
}

inline bool IsDriverSpan(SpanName name) {
  return name == SpanName::kLag || name == SpanName::kWait || name == SpanName::kThink;
}

struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  // The transaction the span belongs to (0 for passes): unique within a
  // recorder, across the services it outlives.
  uint64_t txn = 0;
  SpanName name = SpanName::kTxn;
};

/// Per-lane span buffers.  Each lane is written by exactly one thread
/// and sits on its own cache lines, so lanes never share a line between
/// writers; Write and Reconcile run after every writer has been joined.
/// The buffers are allocated and touched up front, so recording a span
/// costs no allocation or page fault; spans beyond a lane's capacity are
/// counted as dropped.
class SpanRecorder {
 public:
  SpanRecorder(size_t lanes, size_t capacity_per_lane) : lanes_(lanes) {
    for (Lane& lane : lanes_) lane.spans.resize(capacity_per_lane);
  }

  void Add(size_t lane, SpanName name, uint64_t txn, uint64_t start_ns,
           uint64_t end_ns) {
    Lane& l = lanes_[lane];
    if (l.used == l.spans.size()) {
      ++l.dropped;
      return;
    }
    l.spans[l.used++] = {start_ns, end_ns, txn, name};
  }

  size_t recorded() const {
    size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.used;
    return n;
  }
  uint64_t dropped() const {
    uint64_t n = 0;
    for (const Lane& lane : lanes_) n += lane.dropped;
    return n;
  }

  /// Writes every span as Chrome trace JSON.  Calls land on their lane's
  /// thread track as complete ("X") events under `call_layer`; txn spans
  /// become async ("b"/"e") events keyed by transaction id, because an
  /// open-loop driver keeps many transactions in flight on one thread.
  bool WriteChromeJson(const std::string& path, const char* call_layer) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    bool first = true;
    auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1000.0; };
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
      for (size_t i = 0; i < lanes_[lane].used; ++i) {
        const SpanRecord& s = lanes_[lane].spans[i];
        const char* name = SpanNameString(s.name);
        if (s.name == SpanName::kTxn) {
          std::fprintf(f,
                       "%s{\"name\":\"txn\",\"cat\":\"driver\",\"ph\":\"b\","
                       "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%zu},\n"
                       "{\"name\":\"txn\",\"cat\":\"driver\",\"ph\":\"e\","
                       "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%zu}",
                       first ? "" : ",\n", static_cast<unsigned long long>(s.txn),
                       us(s.start_ns), lane, static_cast<unsigned long long>(s.txn),
                       us(s.end_ns), lane);
        } else {
          const char* layer = s.name == SpanName::kPass ? "core"
                              : IsDriverSpan(s.name) ? "driver"
                                                     : call_layer;
          std::fprintf(f,
                       "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                       "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                       "\"args\":{\"txn\":%llu}}",
                       first ? "" : ",\n", name, layer, us(s.start_ns),
                       static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                       lane, static_cast<unsigned long long>(s.txn));
        }
        first = false;
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

  /// Rebuilds each recorded transaction's latency from its spans.  Only
  /// transactions whose txn span was recorded (it is recorded last) take
  /// part.  Inside each txn span:
  ///   - `covered` is the time under at least one call or driver span;
  ///   - `think` is the time under kThink spans (planned, not work);
  ///   - a hole is time under no span at all: the driver's bookkeeping
  ///     between two timestamps, or a call or wait whose span is missing.
  /// The rebuilt latency is covered + holes, which is what the client
  /// measured for that transaction.  `median_ns` is its median over the
  /// rebuilt transactions, so comparing it with the client's median over
  /// all transactions checks that the traced sample is representative.
  /// `gap_share` is holes / (latency - think) summed over them: it shows
  /// whether the recorded spans explain the time the transaction was
  /// working or waiting.
  struct Reconciliation {
    size_t txns = 0;
    double median_ns = 0;
    double gap_share = 0;
  };
  Reconciliation Reconcile() const {
    struct Parts {
      const SpanRecord* txn = nullptr;
      std::vector<const SpanRecord*> inner;
    };
    std::map<uint64_t, Parts> by_txn;
    for (const Lane& lane : lanes_) {
      for (size_t i = 0; i < lane.used; ++i) {
        const SpanRecord& s = lane.spans[i];
        if (s.name == SpanName::kPass || s.txn == 0) continue;
        Parts& p = by_txn[s.txn];
        if (s.name == SpanName::kTxn) {
          p.txn = &s;
        } else {
          p.inner.push_back(&s);
        }
      }
    }
    Reconciliation r;
    std::vector<double> rebuilt;
    double holes = 0, total = 0;
    for (auto& [tid, p] : by_txn) {
      if (p.txn == nullptr) continue;
      std::sort(p.inner.begin(), p.inner.end(),
                [](const SpanRecord* a, const SpanRecord* b) {
                  return a->start_ns < b->start_ns;
                });
      const uint64_t t0 = p.txn->start_ns, t1 = p.txn->end_ns;
      // Sweep the spans, clipped to the txn span, in start order: a span
      // that starts past the cursor leaves a hole.
      double covered = 0, think = 0;
      uint64_t cursor = t0;
      for (const SpanRecord* c : p.inner) {
        const uint64_t a = std::clamp(c->start_ns, t0, t1);
        const uint64_t b = std::clamp(c->end_ns, t0, t1);
        if (c->name == SpanName::kThink) think += static_cast<double>(b - a);
        if (b > cursor) {
          covered += static_cast<double>(b - std::max(a, cursor));
          cursor = b;
        }
      }
      const double hole = static_cast<double>(t1 - t0) - covered;
      rebuilt.push_back(covered + hole);
      holes += hole;
      total += covered + hole - think;
    }
    r.txns = rebuilt.size();
    if (!rebuilt.empty()) {
      auto mid = rebuilt.begin() + static_cast<std::ptrdiff_t>(rebuilt.size() / 2);
      std::nth_element(rebuilt.begin(), mid, rebuilt.end());
      r.median_ns = *mid;
      r.gap_share = total > 0 ? holes / total : 0;
    }
    return r;
  }

 private:
  struct alignas(64) Lane {
    std::vector<SpanRecord> spans;
    size_t used = 0;
    uint64_t dropped = 0;
  };
  std::vector<Lane> lanes_;
};

}  // namespace lockbench

#endif  // LOCKBENCH_RECORDER_H_

// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// twbg-trace: offline analyzer for the JSONL event traces written by
// `--trace-out` (obs::JsonlSink).  The CLI logic lives in this small
// library so the integration tests can drive it in-process and assert on
// its output; tools/twbg_trace_main.cc is the thin binary wrapper.
//
// Subcommands:
//   summary <trace>           event counts, span totals, resolution totals
//   chains <trace>            wait-chain reconstruction: every wait span
//                             (block -> wakeup/abort) and, per resolved
//                             cycle, the post-mortem replay (chain + rule
//                             + rationale)
//   hot <trace> [--top=K]     per-resource contention: blocked spans,
//                             total/max queue time, top-K by blocked spans
//   latency <trace>           percentile tables (p50/p90/p99/max) for
//                             wait times and pass/step durations
//   diff <a> <b>              side-by-side comparison of two traces
//                             (event counts, wait latency, resolutions)
//   check <trace>             replays a linearized lock history (e.g. a
//                             service bus stream): safety — every
//                             resource's holders pairwise compatible
//                             under Table 1 at every step; liveness —
//                             every kLockBlock ends in a wakeup, an abort
//                             or a deadline cancel, and no transaction
//                             ends holding a lock.  Prints the first
//                             event that breaks a check.
//
// Span subcommands (causal span JSONL from obs::SpanJsonlSink, e.g. the
// quickstart's --spans-out flag — a separate stream from the event
// trace):
//   export-perfetto <spans>   Chrome/Perfetto trace-event JSON on stdout
//                             (load in ui.perfetto.dev or chrome://tracing)
//   profile <spans> [--folded]
//                             blocked-time profile folded from closed wait
//                             spans; --folded emits collapsed-stack lines
//                             for flamegraph.pl / speedscope instead of
//                             the aggregate table
//
// Exit codes (pinned by tests/trace_tool_test.cc): 0 success, 1 bad usage
// (unknown subcommand — named in the diagnostic — or bad arguments), 2 a
// trace/span file that cannot be read or parsed, 3 a history that fails
// `check`.

#ifndef TWBG_TOOLS_TWBG_TRACE_H_
#define TWBG_TOOLS_TWBG_TRACE_H_

#include <string>
#include <vector>

namespace twbg::tools {

/// Runs the twbg-trace CLI on `args` (argv[1..] — subcommand first),
/// appending normal output to `*out` and diagnostics to `*err`.  Returns
/// the process exit code: 0 on success, 1 on bad usage, 2 on a trace that
/// cannot be read or parsed, 3 on a history that fails `check`.
int RunTraceTool(const std::vector<std::string>& args, std::string* out,
                 std::string* err);

}  // namespace twbg::tools

#endif  // TWBG_TOOLS_TWBG_TRACE_H_

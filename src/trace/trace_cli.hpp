// p4s-trace — command-line front end for the trace subsystem.
//
//   p4s-trace info   <file.pcap>...
//   p4s-trace stats  <ingress.pcap> [<egress.pcap>]
//   p4s-trace replay <ingress.pcap> [<egress.pcap>] [flags]
//
// `info` prints each file's global header and record summary, `stats`
// analyzes the merged trace by the categories of the P4 parser that
// `replay` runs (the frames `stats` counts as undecodable are the ones
// `replay` counts as parse errors), `replay` pushes the trace through a
// fresh P4 switch + control plane at the recorded timestamps. The entry
// point is separated from main() so tests can drive it in-process.
#pragma once

#include <ostream>

namespace p4s::trace {

/// Runs the tool; returns the process exit code (0 ok, 2 usage or bad
/// input). Malformed or truncated capture files produce a one-line error
/// on `err`, never a crash.
int trace_cli(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace p4s::trace

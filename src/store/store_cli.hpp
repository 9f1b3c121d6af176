// p4s-store — command-line front end for the durable archive store.
//
//   p4s-store info    <dir>
//   p4s-store verify  <dir>
//   p4s-store compact <dir> [<index>]
//   p4s-store dump    <dir> <index> [--limit N] [--newest]
//
// `info` prints the manifest view (indices, segments, doc counts, WAL
// state), `verify` structurally checks every segment and the
// WAL (exit 0 clean / 2 corrupt — the golden-trace CI job gates on it),
// `compact` merges an index's sealed segments, `dump` prints documents
// as JSON lines. The entry point is separated from main() so tests can
// drive it in-process.
#pragma once

#include <ostream>

namespace p4s::store {

/// Runs the tool; returns the process exit code (0 ok, 2 usage, bad
/// input, or failed verification). Store corruption produces a one-line
/// error on `err`, never a crash.
int store_cli(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace p4s::store

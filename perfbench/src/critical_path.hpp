#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/trace.hpp"

/// \file critical_path.hpp
/// Splits the modeled time of each benchmark root span among the layers of
/// the spans beneath it. Every instant of a root's interval is charged to
/// exactly one span: the deepest span covering it, and among overlapping
/// siblings the one that started last (the innermost piece of work, e.g. a
/// DAFS request issued inside an MPI-IO phase). A span's self time is the
/// part of its interval no child claims, so the per-layer self times of a
/// root add up to its duration. Child time that falls outside its parent's
/// window (server spans run on the filer's clock) cannot be on the root's
/// critical path; it is counted as `clipped_ns`, not charged to any layer.
namespace perfbench {

struct LayerTimes {
  std::map<std::string, std::uint64_t> self_ns;  // layer -> self time
  /// The same self time split by span, keyed "<layer>:<name>".
  std::map<std::string, std::uint64_t> self_by_span;
  std::uint64_t root_ns = 0;     // sum of root span durations
  std::uint64_t roots = 0;       // root spans attributed
  std::uint64_t clipped_ns = 0;  // child time outside its parent's window
  std::uint64_t orphans = 0;     // spans whose parent was never recorded
  /// Duration of every span in a rooted trace, keyed "<layer>:<name>".
  std::map<std::string, std::vector<std::uint64_t>> span_ns;

  std::uint64_t attributed_ns() const {
    std::uint64_t t = 0;
    for (const auto& [layer, ns] : self_ns) t += ns;
    return t;
  }
  void merge(const LayerTimes& o);
};

/// Attribute every trace rooted at a span of `root_layer` with no parent.
/// Spans of such a trace whose parent is missing (evicted or never closed)
/// hang off the root and are counted in `orphans`.
LayerTimes attribute(const std::vector<sim::Span>& spans,
                     const std::string& root_layer);

}  // namespace perfbench

#include "critical_path.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace perfbench {

namespace {

using Seg = std::pair<sim::Time, sim::Time>;  // [first, second)

struct Tree {
  const std::vector<sim::Span>& spans;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
};

std::uint64_t duration(const sim::Span& s) {
  return s.t_end > s.t_start ? s.t_end - s.t_start : 0;
}

std::uint64_t overlap(const sim::Span& s, sim::Time lo, sim::Time hi) {
  const sim::Time a = std::max(s.t_start, lo);
  const sim::Time b = std::min(s.t_end, hi);
  return b > a ? b - a : 0;
}

/// Charge the instants in `owned` (disjoint, sorted) of span `idx` to it
/// or to the children that claim them, recursively.
void charge(const Tree& tree, std::size_t idx, const std::vector<Seg>& owned,
            LayerTimes& out) {
  const sim::Span& span = tree.spans[idx];
  std::uint64_t self = 0;
  const auto it = tree.children.find(span.span_id);
  if (it == tree.children.end()) {
    for (const auto& [a, b] : owned) self += b - a;
    out.self_ns[span.layer] += self;
    out.self_by_span[std::string(span.layer) + ":" + span.name] += self;
    return;
  }
  const std::vector<std::size_t>& kids = it->second;
  for (std::size_t k : kids) {
    const sim::Span& c = tree.spans[k];
    out.clipped_ns += duration(c) - overlap(c, span.t_start, span.t_end);
  }
  std::vector<std::vector<Seg>> claimed(kids.size());
  for (const auto& [lo, hi] : owned) {
    std::vector<sim::Time> cuts = {lo, hi};
    for (std::size_t k : kids) {
      const sim::Span& c = tree.spans[k];
      if (c.t_start > lo && c.t_start < hi) cuts.push_back(c.t_start);
      if (c.t_end > lo && c.t_end < hi) cuts.push_back(c.t_end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const sim::Time a = cuts[i];
      const sim::Time b = cuts[i + 1];
      std::size_t best = kids.size();
      for (std::size_t j = 0; j < kids.size(); ++j) {
        const sim::Span& c = tree.spans[kids[j]];
        if (c.t_start > a || c.t_end < b) continue;
        if (best == kids.size()) {
          best = j;
          continue;
        }
        const sim::Span& cur = tree.spans[kids[best]];
        if (c.t_start > cur.t_start ||
            (c.t_start == cur.t_start && c.t_end < cur.t_end)) {
          best = j;
        }
      }
      if (best == kids.size()) {
        self += b - a;
        continue;
      }
      auto& segs = claimed[best];
      if (!segs.empty() && segs.back().second == a) {
        segs.back().second = b;
      } else {
        segs.emplace_back(a, b);
      }
    }
  }
  out.self_ns[span.layer] += self;
  out.self_by_span[std::string(span.layer) + ":" + span.name] += self;
  for (std::size_t j = 0; j < kids.size(); ++j) {
    if (!claimed[j].empty()) charge(tree, kids[j], claimed[j], out);
  }
}

}  // namespace

void LayerTimes::merge(const LayerTimes& o) {
  for (const auto& [layer, ns] : o.self_ns) self_ns[layer] += ns;
  for (const auto& [key, ns] : o.self_by_span) self_by_span[key] += ns;
  root_ns += o.root_ns;
  roots += o.roots;
  clipped_ns += o.clipped_ns;
  orphans += o.orphans;
  for (const auto& [key, v] : o.span_ns) {
    auto& dst = span_ns[key];
    dst.insert(dst.end(), v.begin(), v.end());
  }
}

LayerTimes attribute(const std::vector<sim::Span>& spans,
                     const std::string& root_layer) {
  LayerTimes out;
  std::unordered_map<std::uint64_t, std::size_t> root_of_trace;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const sim::Span& s = spans[i];
    if (s.parent_span_id == 0 && root_layer == s.layer) {
      root_of_trace.emplace(s.trace_id, i);
    }
  }
  std::unordered_set<std::uint64_t> known;  // span ids of rooted traces
  for (const sim::Span& s : spans) {
    if (root_of_trace.count(s.trace_id) != 0) known.insert(s.span_id);
  }
  Tree tree{spans, {}};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const sim::Span& s = spans[i];
    const auto r = root_of_trace.find(s.trace_id);
    if (r == root_of_trace.end()) continue;
    out.span_ns[std::string(s.layer) + ":" + s.name].push_back(duration(s));
    if (r->second == i) continue;
    std::uint64_t parent = s.parent_span_id;
    if (known.count(parent) == 0) {
      ++out.orphans;
      parent = spans[r->second].span_id;
    }
    tree.children[parent].push_back(i);
  }
  for (const auto& [trace, idx] : root_of_trace) {
    const sim::Span& root = spans[idx];
    ++out.roots;
    if (duration(root) == 0) continue;
    out.root_ns += duration(root);
    charge(tree, idx, {{root.t_start, root.t_end}}, out);
  }
  return out;
}

}  // namespace perfbench

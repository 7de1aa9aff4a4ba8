// perfbench: drives the MPI-IO -> DAFS -> VIA stack through its public APIs
// and prints one JSON object of named metrics for one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//   perfbench --self-test
//
// Rounds (a fresh cluster each, see harness.hpp) repeat until --seconds of
// wall time are used. Modeled figures come from the cost engine's virtual
// clocks; host figures are wall and process CPU time of this process. With
// DAFS_TRACE set, every round is traced and the per-layer self times of the
// timed calls are reported as well. perfbench/run.py wraps this binary.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "critical_path.hpp"
#include "harness.hpp"
#include "stats_math.hpp"

namespace perfbench {

namespace {

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

std::uint64_t delta(const Round& r, const char* key) {
  const auto a = r.after.counters.find(key);
  const auto b = r.before.counters.find(key);
  const std::uint64_t va = a == r.after.counters.end() ? 0 : a->second;
  const std::uint64_t vb = b == r.before.counters.end() ? 0 : b->second;
  return va - vb;
}

/// Run every thread of the process on one CPU: the last this process may
/// use (device interrupts tend to land on the first). Modeled queueing at a
/// filer depends on the order in which host threads reach it (each actor
/// keeps its own virtual clock), so with the threads spread over several
/// CPUs the modeled figures follow the host's load from run to run. On one
/// CPU that order repeats. Threads inherit the mask, so this must run
/// before any is started.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// Restart the kernel's peak-RSS counter (VmHWM) so each round reports its
/// own peak. Where that is refused, the peak stays cumulative over the run.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

double percentile_or_zero(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile(v, q).value_or(0.0);
}

/// Totals of one round that several metrics share.
struct RoundSums {
  std::uint64_t calls = 0;  // calls that ran (succeeded or failed)
  std::uint64_t write_bytes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t slowest_ns = 0;  // slowest rank's modeled time in calls
  double wall_ns = 0;
  double cpu_ns = 0;
};

RoundSums sums_of(const Round& r) {
  RoundSums s;
  for (const RankLog& l : r.ranks) {
    s.calls += l.attempted - l.unfinished;
    s.write_bytes += l.write_bytes;
    s.read_bytes += l.read_bytes;
    std::uint64_t t = 0;
    for (std::uint64_t p : l.phase_ns) t += p;
    s.slowest_ns = std::max(s.slowest_ns, t);  // all phases of this rank
  }
  s.wall_ns = std::chrono::duration<double, std::nano>(r.after.wall -
                                                       r.before.wall)
                  .count();
  s.cpu_ns = (r.after.cpu_s - r.before.cpu_s) * 1e9;
  return s;
}

std::vector<std::uint64_t> phase_of(const Round& r, Phase p) {
  std::vector<std::uint64_t> out;
  for (const RankLog& l : r.ranks) {
    out.push_back(l.phase_ns[static_cast<int>(p)]);
  }
  return out;
}

/// Calls attempted, and calls that failed or read back wrong bytes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
};

/// End-to-end metrics plus the per-layer metrics that counters, busy
/// totals and the benchmark's own timing give (untraced or traced runs).
Tally report_rounds(const std::vector<Round>& rounds, Metrics& m) {
  Tally tally;
  std::vector<double> host_ns, cpu_ns, setup, rss, link_util, server_util;
  // Modeled rates pool every round: total work over total slowest-rank time.
  std::uint64_t read_bytes = 0, write_slowest_ns = 0, read_slowest_ns = 0,
                slowest_ns = 0;
  std::vector<double> lat, sync, skew;
  std::uint64_t calls = 0;
  std::uint64_t write_bytes = 0, user_bytes = 0, moved_bytes = 0;
  double wall_total = 0, cpu_total = 0;
  std::map<std::string, double> per_call;  // summed deltas, divided below
  sim::BusyBreakdown client_busy;
  double phase_host_ns[static_cast<int>(Phase::kCount)] = {};
  std::uint64_t phase_calls[static_cast<int>(Phase::kCount)] = {};
  std::uint64_t journal = 0;
  for (const Round& r : rounds) {
    const RoundSums s = sums_of(r);
    calls += s.calls;
    write_bytes += s.write_bytes;
    user_bytes += s.write_bytes + s.read_bytes;
    wall_total += s.wall_ns;
    cpu_total += s.cpu_ns;
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_bytes);
    read_bytes += s.read_bytes;
    write_slowest_ns += slowest(phase_of(r, Phase::kWrite));
    read_slowest_ns += slowest(phase_of(r, Phase::kRead));
    slowest_ns += s.slowest_ns;
    if (s.calls > 0) {
      host_ns.push_back(s.wall_ns / static_cast<double>(s.calls));
      cpu_ns.push_back(s.cpu_ns / static_cast<double>(s.calls));
    }
    for (const RankLog& l : r.ranks) {
      tally.attempted += l.attempted;
      tally.failed += l.failed;
      tally.mismatches += l.mismatches;
      lat.insert(lat.end(), l.lat_ns.begin(), l.lat_ns.end());
      sync.insert(sync.end(), l.sync_ns.begin(), l.sync_ns.end());
      for (std::size_t k = 0; k < client_busy.by_kind.size(); ++k) {
        client_busy.by_kind[k] += l.busy.by_kind[k];
      }
      for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
        phase_host_ns[p] += l.host_ns[p];
        phase_calls[p] += l.calls[p];
      }
    }
    // Collective rank skew: spread of the ranks' entry times per call.
    const std::size_t colls =
        r.ranks.empty() ? 0 : r.ranks[0].coll_entry.size();
    for (std::size_t c = 0; c < colls; ++c) {
      sim::Time lo = ~sim::Time{0}, hi = 0;
      for (const RankLog& l : r.ranks) {
        if (c >= l.coll_entry.size()) continue;
        lo = std::min(lo, l.coll_entry[c]);
        hi = std::max(hi, l.coll_entry[c]);
      }
      skew.push_back(static_cast<double>(hi - lo));
    }
    for (const char* key :
         {"dafs.requests", "mpi.eager_msgs", "mpi.rndv_msgs", "mpi.eager_bytes",
          "mpi.rndv_bytes", "dafs.retransmits", "dafs.busy_retries",
          "via.sends", "via.registrations", "dafs.quorum_shipped_bytes",
          "dafs.quorum_barrier_timeouts", "dafs.elections_started"}) {
      per_call[key] += static_cast<double>(delta(r, key));
    }
    for (const char* key :
         {"dafs.direct_read_bytes", "dafs.direct_write_bytes",
          "dafs.inline_read_bytes", "dafs.inline_write_bytes"}) {
      moved_bytes += delta(r, key);
    }
    if (r.before.stats_ok && r.after.stats_ok) {
      per_call["queue_wait_ns"] += static_cast<double>(
          r.after.queue_wait_ns - r.before.queue_wait_ns);
      per_call["service_ns"] +=
          static_cast<double>(r.after.service_ns - r.before.service_ns);
      per_call["sheds"] += static_cast<double>(r.after.sheds - r.before.sheds);
    }
    // The filer serving the data path: the single filer, or the leader (the
    // member whose worker did the most work in the phase).
    auto worked = [&](std::size_t i) {
      return r.after.filers[i].worker.total() -
             r.before.filers[i].worker.total();
    };
    std::size_t f = 0;
    for (std::size_t i = 1; i < r.after.filers.size(); ++i) {
      if (worked(i) > worked(f)) f = i;
    }
    const FilerSample& fa = r.after.filers[f];
    const FilerSample& fb = r.before.filers[f];
    journal += fa.journal - fb.journal;
    per_call["worker_busy_ns"] += static_cast<double>(worked(f));
    if (s.slowest_ns > 0) {
      const auto span = static_cast<double>(s.slowest_ns);
      const sim::Time link =
          (fa.egress - fb.egress) + (fa.ingress - fb.ingress);
      link_util.push_back(static_cast<double>(link) / (2.0 * span));
      server_util.push_back(static_cast<double>(fa.cpu - fb.cpu) / span);
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(calls));
  const bool quorum = !rounds.empty() && rounds[0].after.filers.size() > 1;

  // ---- end to end ----
  m["write_MBps"] = {mbps(write_bytes, write_slowest_ns), "MB/s"};
  m["read_MBps"] = {mbps(read_bytes, read_slowest_ns), "MB/s"};
  m["meta_ops_per_s"] = {
      slowest_ns == 0 ? 0.0
                      : static_cast<double>(calls) * 1e9 /
                            static_cast<double>(slowest_ns),
      "1/s"};
  std::sort(lat.begin(), lat.end());
  if (auto p50 = percentile(lat, 0.50)) m["op_p50_us"] = {*p50 / 1e3, "us"};
  if (auto p99 = percentile(lat, 0.99)) m["op_p99_us"] = {*p99 / 1e3, "us"};
  m["host_ns_per_op"] = {median(host_ns), "ns"};
  m["host_cpu_ns_per_op"] = {median(cpu_ns), "ns"};
  m["setup_s"] = {median(setup), "s"};
  m["peak_rss_MB"] = {median(rss) / 1e6, "MB"};

  // ---- run accounting ----
  m["failed_ops_frac"] = {
      failed_frac(tally.failed, tally.mismatches, tally.attempted), "frac"};
  m["op_samples"] = {static_cast<double>(lat.size()), "count"};
  m["rounds"] = {static_cast<double>(rounds.size()), "count"};

  // ---- per layer ----
  m["mpiio.dafs_reqs_per_call"] = {per_call["dafs.requests"] / n, "count"};
  m["mpiio.useful_byte_ratio"] = {
      moved_bytes == 0 ? 0.0
                       : static_cast<double>(user_bytes) /
                             static_cast<double>(moved_bytes),
      "ratio"};
  m["mpi.msgs_per_call"] = {
      (per_call["mpi.eager_msgs"] + per_call["mpi.rndv_msgs"]) / n, "count"};
  m["mpi.bytes_per_call"] = {
      (per_call["mpi.eager_bytes"] + per_call["mpi.rndv_bytes"]) / n, "bytes"};
  m["mpi.rank_skew_us"] = {median(skew) / 1e3, "us"};
  for (std::size_t k = 0; k < client_busy.by_kind.size(); ++k) {
    m[std::string("dafs.client.cpu_us_per_op.") +
      sim::to_string(static_cast<sim::CostKind>(k))] = {
        static_cast<double>(client_busy.by_kind[k]) / 1e3 / n, "us"};
  }
  m["dafs.client.retransmits"] = {per_call["dafs.retransmits"], "count"};
  m["dafs.client.busy_retries"] = {per_call["dafs.busy_retries"], "count"};
  m["via.sends_per_op"] = {per_call["via.sends"] / n, "count"};
  m["via.registrations_per_op"] = {per_call["via.registrations"] / n, "count"};
  m["via.filer_link_util"] = {median(link_util), "frac"};
  m["dafs.server.queue_wait_us_per_op"] = {per_call["queue_wait_ns"] / 1e3 / n,
                                           "us"};
  m["dafs.server.service_us_per_op"] = {per_call["service_ns"] / 1e3 / n,
                                       "us"};
  m["dafs.server.worker_busy_us_per_op"] = {
      per_call["worker_busy_ns"] / 1e3 / n, "us"};
  m["dafs.server.cpu_util"] = {median(server_util), "frac"};
  m["dafs.server.sheds"] = {per_call["sheds"], "count"};
  const double wb = std::max<double>(1.0, static_cast<double>(write_bytes));
  m["fstore.journal_bytes_per_user_byte"] = {static_cast<double>(journal) / wb,
                                             "ratio"};
  m["fstore.sync_us"] = {quorum ? 0.0 : percentile_or_zero(sync, 0.5) / 1e3,
                         "us"};
  m["repl.sync_us_p50"] = {quorum ? percentile_or_zero(sync, 0.5) / 1e3 : 0.0,
                           "us"};
  m["repl.sync_us_p99"] = {quorum ? percentile_or_zero(sync, 0.99) / 1e3 : 0.0,
                           "us"};
  m["repl.shipped_bytes_per_user_byte"] = {
      per_call["dafs.quorum_shipped_bytes"] / wb, "ratio"};
  m["repl.barrier_timeouts"] = {per_call["dafs.quorum_barrier_timeouts"],
                                "count"};
  m["repl.elections"] = {per_call["dafs.elections_started"], "count"};
  double sync_total = 0;
  for (double v : sync) sync_total += v;
  m["wait.sync_us_per_op"] = {sync_total / 1e3 / n, "us"};
  m["sim.host_idle_frac"] = {
      wall_total > 0 ? 1.0 - cpu_total / wall_total : 0.0, "frac"};
  m["sim.host_cpu_ns_per_op"] = {cpu_total / n, "ns"};
  // Wall time a rank spends inside a call, by phase: what one write, read
  // or metadata call costs the host (the rank waits for the filer thread).
  const char* phase_names[] = {"write", "read", "meta"};
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    m[std::string("sim.host_us_per_call.") + phase_names[p]] = {
        phase_calls[p] == 0
            ? 0.0
            : phase_host_ns[p] / 1e3 / static_cast<double>(phase_calls[p]),
        "us"};
  }
  return tally;
}

/// Per-layer self times and span latency percentiles of a traced run.
/// Returns whether the layer self times add up to the calls' modeled time.
bool report_trace(const std::vector<Round>& rounds, Metrics& m) {
  LayerTimes lt;
  double measured_ns = 0;
  for (const Round& r : rounds) {
    lt.merge(r.layers);
    for (const RankLog& l : r.ranks) {
      for (std::uint64_t p : l.phase_ns) measured_ns += static_cast<double>(p);
    }
  }
  const double roots = std::max<double>(1.0, static_cast<double>(lt.roots));
  auto us_per_root = [&](const std::map<std::string, std::uint64_t>& by,
                         const std::string& key) {
    const auto it = by.find(key);
    return it == by.end() ? 0.0
                          : static_cast<double>(it->second) / 1e3 / roots;
  };
  for (const char* layer : {"mpiio", "dafs.client", "via", "dafs.server",
                            "fstore"}) {
    m[std::string("layer.") + layer + ".self_us_per_op"] = {
        us_per_root(lt.self_ns, layer), "us"};
  }
  // Time on a call's critical path that no program span covers: the
  // benchmark root's own self time. Reported by name, never folded into a
  // layer.
  m["layer.residual.self_us_per_op"] = {us_per_root(lt.self_ns, "bench"),
                                        "us"};
  // Typed wait inside dafs.server's share: NIC completion of a request to
  // the worker picking it up.
  m["wait.admission_us_per_op"] = {
      us_per_root(lt.self_by_span, "dafs.server:admission_wait"), "us"};
  m["trace.clipped_us_per_op"] = {
      static_cast<double>(lt.clipped_ns) / 1e3 / roots, "us"};
  m["trace.orphan_spans"] = {static_cast<double>(lt.orphans), "count"};
  const double attributed = static_cast<double>(lt.attributed_ns());
  const double err =
      measured_ns > 0 ? std::fabs(attributed - measured_ns) / measured_ns : 1.0;
  m["trace.sum_error_frac"] = {err, "frac"};

  auto p = [&](const std::string& key, double q) {
    std::vector<double> v;
    for (const auto& [k, ds] : lt.span_ns) {
      if (k == key) v.insert(v.end(), ds.begin(), ds.end());
    }
    return percentile_or_zero(v, q) / 1e3;
  };
  for (const char* phase : {"meta", "exchange", "disk"}) {
    m[std::string("mpiio.twophase_") + phase + "_us"] = {
        p(std::string("mpiio:mpiio.twophase_") + phase + "_ns", 0.5), "us"};
  }
  for (const char* proc : {"open", "getattr", "remove", "write_inline",
                           "read_inline", "write_direct", "read_direct",
                           "sync"}) {
    m[std::string("dafs.client.rtt_us.") + proc] = {
        p(std::string("dafs.client:request.") + proc, 0.5), "us"};
  }
  std::vector<double> via, service;
  for (const auto& [k, ds] : lt.span_ns) {
    std::vector<double>* dst = nullptr;
    if (k.rfind("via:", 0) == 0 && k != "via:register_memory") dst = &via;
    if (k.rfind("dafs.server:", 0) == 0 && k != "dafs.server:admission_wait" &&
        k != "dafs.server:reply_send") {
      dst = &service;
    }
    if (dst != nullptr) dst->insert(dst->end(), ds.begin(), ds.end());
  }
  m["via.doorbell_to_reap_us"] = {percentile_or_zero(via, 0.5) / 1e3, "us"};
  m["dafs.server.service_us_p50"] = {percentile_or_zero(service, 0.5) / 1e3,
                                     "us"};
  m["dafs.server.service_us_p99"] = {percentile_or_zero(service, 0.99) / 1e3,
                                     "us"};
  constexpr double kTolerance = 1e-3;
  return err <= kTolerance;
}

void print_json(const std::string& workload, bool correct,
                std::uint64_t attempted, std::uint64_t failed,
                const Metrics& m) {
  std::printf("{\"workload\":\"%s\",\"correct\":%s,"
              "\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              workload.c_str(), correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit);
    first = false;
  }
  std::printf("}}\n");
}

// ---- self-test of the benchmark's own arithmetic ---------------------------

int self_test() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++bad;
    }
  };
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  expect(!percentile(v, 0.99).has_value(), "p99 of 999 samples is refused");
  v.push_back(1000);
  expect(percentile(v, 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(percentile(v, 0.50) == 500.0, "p50 of 1..1000 is 500");
  expect(!percentile(std::vector<double>(19, 1.0), 0.5).has_value(),
         "p50 of 19 samples is refused");
  expect(percentile(std::vector<double>(20, 1.0), 0.5) == 1.0,
         "p50 of 20 samples is reported");
  expect(mbps(1'000'000, slowest({1'000'000, 2'000'000})) == 500.0,
         "MB/s uses the slowest rank");
  expect(mbps(10, slowest({0, 0})) == 0.0, "MB/s with no time is 0");
  expect(failed_frac(3, 1, 100) == 0.04, "failed_ops_frac counts mismatches");
  expect(failed_frac(0, 0, 0) == 1.0, "nothing attempted is all failed");
  expect(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5, "median");

  // Critical path: root 0..100 with an MPI-IO phase 10..60 and a DAFS
  // request 40..90 issued inside it; the request owns the overlap. A server
  // span 80..120 on another clock is clipped at the request's end.
  auto span = [](std::uint64_t id, std::uint64_t parent, sim::Time a,
                 sim::Time b, const char* layer) {
    sim::Span s;
    s.trace_id = 1;
    s.span_id = id;
    s.parent_span_id = parent;
    s.t_start = a;
    s.t_end = b;
    s.layer = layer;
    return s;
  };
  const LayerTimes lt = attribute(
      {span(1, 0, 0, 100, "bench"), span(2, 1, 10, 60, "mpiio"),
       span(3, 1, 40, 90, "dafs.client"), span(4, 3, 80, 120, "dafs.server"),
       span(5, 99, 0, 5, "via")},
      "bench");
  expect(lt.root_ns == 100 && lt.attributed_ns() == 100,
         "self times sum to the root");
  expect(lt.self_ns.at("mpiio") == 30, "phase keeps only its uncovered part");
  expect(lt.self_ns.at("dafs.client") == 40, "request owns the overlap");
  expect(lt.self_ns.at("dafs.server") == 10, "server span clipped");
  expect(lt.clipped_ns == 30, "clipped time counted");
  expect(lt.orphans == 1 && lt.self_ns.at("via") == 5,
         "orphan hangs off the root");
  expect(lt.self_ns.at("bench") == 15, "root self time is the residual");
  if (bad == 0) std::printf("self-test ok\n");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s>\n"
               "       perfbench --self-test\nworkloads:");
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int run_main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || !(seconds > 0)) return usage();
  pin_to_one_cpu();

  // Rounds repeat while another one fits in the budget, and at least
  // kMinRounds run so set-up is timed several times. Calls still unstarted
  // once the hard budget passes count as failed.
  constexpr std::size_t kMinRounds = 3;
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const Clock::time_point deadline = start + budget;
  const Clock::time_point hard_end = deadline + budget / 2;
  std::vector<Round> rounds;
  std::vector<double> round_s;
  Clock::time_point t0 = start;
  while (true) {
    reset_peak_rss();
    rounds.push_back(run_round(*w, seed, t0, hard_end, rounds.empty()));
    rounds.back().peak_rss_bytes = peak_rss_bytes();
    const Clock::time_point now = Clock::now();
    round_s.push_back(std::chrono::duration<double>(now - t0).count());
    t0 = now;
    const auto next = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(median(round_s)));
    if (rounds.size() >= kMinRounds && now + next > deadline) break;
    if (now > hard_end) break;
  }

  Metrics m;
  const Tally tally = report_rounds(rounds, m);
  bool correct = tally.mismatches == 0;
  if (rounds[0].traced && !report_trace(rounds, m)) {
    std::fprintf(stderr, "perfbench: layer self times do not add up to the "
                         "calls' modeled time\n");
    correct = false;
  }
  print_json(w->name, correct, tally.attempted,
             tally.failed + tally.mismatches, m);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }

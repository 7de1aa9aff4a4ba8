#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "critical_path.hpp"
#include "dafs/client.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/file.hpp"
#include "sim/actor.hpp"

/// \file harness.hpp
/// One round of a workload: a fresh simulated cluster (fabric, filers, MPI
/// world, one dafs::Client per rank), a timed phase of closed-loop calls —
/// each rank is one thread that waits for its own reply — and before/after
/// probes of every layer around that phase, so set-up traffic never lands
/// in a per-layer delta.
namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Phase : std::uint8_t { kWrite, kRead, kMeta, kCount };

/// What one rank saw during the timed phase.
struct RankLog {
  std::vector<double> lat_ns;   // modeled latency of every completed call
  std::vector<double> sync_ns;  // the sync calls among them
  std::uint64_t phase_ns[static_cast<int>(Phase::kCount)] = {};
  double host_ns[static_cast<int>(Phase::kCount)] = {};  // wall time in calls
  std::uint64_t calls[static_cast<int>(Phase::kCount)] = {};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // calls that returned an error
  std::uint64_t mismatches = 0;  // successful reads whose bytes were wrong
  std::uint64_t unfinished = 0;  // calls skipped once the wall budget ran out
  std::uint64_t write_bytes = 0;
  std::uint64_t read_bytes = 0;
  std::vector<sim::Time> coll_entry;  // virtual entry time per collective
  sim::BusyBreakdown busy;            // this rank's CPU charged in the phase
};

/// One filer's resource totals at a probe.
struct FilerSample {
  sim::BusyBreakdown worker;
  sim::Time cpu = 0;
  sim::Time egress = 0;
  sim::Time ingress = 0;
  std::uint64_t journal = 0;
};

/// The whole stack at one instant (taken by rank 0 between barriers).
struct Probe {
  std::map<std::string, std::uint64_t> counters;  // fabric Stats
  std::vector<FilerSample> filers;
  /// Per-client attribution summed over every session row of the filer
  /// rank 0 is bound to (Client::query_stats).
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t service_ns = 0;
  std::uint64_t sheds = 0;
  bool stats_ok = false;
  Clock::time_point wall;
  double cpu_s = 0;  // process CPU time
};

struct Round {
  std::vector<RankLog> ranks;
  Probe before;
  Probe after;
  double setup_s = 0;
  double peak_rss_bytes = 0;  // the process's peak resident memory
  bool traced = false;
  LayerTimes layers;  // traced rounds only
};

struct Workload;

/// Per-rank context handed to a workload's callbacks.
class RankCtx {
 public:
  RankCtx(const Workload& w, mpi::Comm& comm, dafs::Client& client,
          std::uint64_t seed, Clock::time_point budget_end,
          std::atomic<std::int64_t>& stop_at, RankLog& log)
      : w_(w), comm_(comm), client_(client), seed_(seed),
        budget_end_(budget_end), stop_at_(stop_at), log_(log) {}

  mpi::Comm& comm() { return comm_; }
  int rank() const { return comm_.rank(); }
  dafs::Client& client() { return client_; }
  std::uint64_t seed() const { return seed_; }
  std::unique_ptr<mpiio::File>& file() { return file_; }

  /// Time one call: opens the benchmark's root span, runs `fn`, records
  /// its modeled latency under `phase`. `fn` returns whether the call
  /// succeeded. Once the round's wall budget is spent the call is skipped
  /// and counted as failed (unfinished). Collective workloads agree on the
  /// stopping call so no rank is left alone in a collective.
  bool timed(const char* name, Phase phase, const std::function<bool()>& fn,
             bool is_sync = false);
  /// Count a successful call whose read-back bytes were wrong.
  void mismatch() { ++log_.mismatches; }
  void add_bytes(Phase phase, std::uint64_t n) {
    (phase == Phase::kWrite ? log_.write_bytes : log_.read_bytes) += n;
  }

 private:
  const Workload& w_;
  mpi::Comm& comm_;
  dafs::Client& client_;
  std::uint64_t seed_;
  Clock::time_point budget_end_;
  std::atomic<std::int64_t>& stop_at_;
  RankLog& log_;
  std::int64_t calls_ = 0;
  std::unique_ptr<mpiio::File> file_;
};

/// A workload: its shape, the untimed preparation (open, mkdir, buffers)
/// and the timed phase.
struct Workload {
  std::string name;
  int ranks = 1;
  int filers = 1;           // 1 = single filer, 3 = quorum group
  bool collective = false;  // timed calls are collectives
  std::function<void(RankCtx&)> prepare;
  std::function<void(RankCtx&)> run;
};

/// Set-up failures end the process with exit code 3: there is no round to
/// measure, and the runner reports the missing result.
[[noreturn]] void fatal(const char* what, const char* detail);

const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Build a fresh cluster, run `w` once, tear everything down. `t0` is when
/// this round's set-up began (process start for the first round); set-up
/// ends when every rank has mounted and prepared. Calls
/// not started by `budget_end` count as failed. With tracing on, only a
/// round with `dump_trace` writes its spans to the DAFS_TRACE file.
Round run_round(const Workload& w, std::uint64_t seed, Clock::time_point t0,
                Clock::time_point budget_end, bool dump_trace);

}  // namespace perfbench

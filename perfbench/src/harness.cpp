#include "harness.hpp"

#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "dafs/server.hpp"
#include "sim/fabric.hpp"
#include "sim/trace.hpp"

namespace perfbench {

namespace {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The simulated cluster of one round: one filer, or a quorum group whose
/// leader the mount prefers. Filers stop before the fabric they live on.
struct Cluster {
  sim::Fabric fabric;
  std::vector<sim::NodeId> nodes;
  std::vector<std::unique_ptr<dafs::Server>> filers;
  std::vector<std::string> services;
  std::size_t leader = 0;

  explicit Cluster(int n) {
    // Traced rounds keep every span of the round: the rings must not evict
    // before the critical-path attribution reads them.
    if (fabric.trace().enabled()) fabric.trace().set_ring_capacity(1u << 21);
    std::vector<std::string> group;
    for (int i = 0; i < n; ++i) {
      group.push_back("dafs-raft-" + std::to_string(i));
      services.push_back(n == 1 ? "dafs" : "dafs-q" + std::to_string(i));
    }
    for (int i = 0; i < n; ++i) {
      nodes.push_back(fabric.add_node("filer" + std::to_string(i)));
      dafs::ServerConfig cfg;
      cfg.service = services[static_cast<std::size_t>(i)];
      if (n > 1) {
        cfg.quorum_group = group;
        cfg.member_id = static_cast<std::uint32_t>(i);
      }
      filers.push_back(
          std::make_unique<dafs::Server>(fabric, nodes.back(), cfg));
    }
    for (auto& f : filers) f->start();
    if (n > 1) await_leader();
  }

  ~Cluster() {
    for (auto it = filers.rbegin(); it != filers.rend(); ++it) (*it)->stop();
  }

  void await_leader() {
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < give_up) {
      for (std::size_t i = 0; i < filers.size(); ++i) {
        if (!filers[i]->crashed() &&
            filers[i]->role() == dafs::Server::Role::kPrimary) {
          leader = i;
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fatal("quorum group", "no leader elected within 10 s");
  }

  dafs::MountSpec mount() const {
    if (filers.size() == 1) return dafs::single_mount(services[0]);
    return dafs::quorum_mount(services, dafs::RetryPolicy{},
                              dafs::ClientConfig{}, leader);
  }

  /// Stack state now. Rank 0 calls this between barriers, with no timed
  /// call in flight. The stats query goes first on `before` and last on
  /// `after`, so neither query lands inside the counter deltas.
  Probe probe(dafs::Client& client, bool query_first) {
    Probe p;
    auto query = [&] {
      auto st = client.query_stats();
      if (!st.ok()) return;
      p.stats_ok = true;
      for (const dafs::WireSessionStats& s : st.value().sessions) {
        p.queue_wait_ns += s.queue_wait_ns;
        p.service_ns += s.service_ns;
        p.sheds += s.sheds;
      }
    };
    if (query_first) query();
    p.counters = fabric.stats().snapshot();
    for (std::size_t i = 0; i < filers.size(); ++i) {
      sim::Node& node = fabric.node(nodes[i]);
      p.filers.push_back(FilerSample{filers[i]->worker_busy(),
                                     node.cpu.total_busy(),
                                     node.egress.total_busy(),
                                     node.ingress.total_busy(),
                                     filers[i]->store().journal_size()});
    }
    if (!query_first) query();
    return p;
  }
};

sim::BusyBreakdown minus(const sim::BusyBreakdown& a,
                         const sim::BusyBreakdown& b) {
  sim::BusyBreakdown d;
  for (std::size_t k = 0; k < d.by_kind.size(); ++k) {
    d.by_kind[k] = a.by_kind[k] - b.by_kind[k];
  }
  return d;
}

}  // namespace

void fatal(const char* what, const char* detail) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, detail);
  std::fflush(stderr);
  std::_Exit(3);
}

bool RankCtx::timed(const char* name, Phase phase,
                    const std::function<bool()>& fn, bool is_sync) {
  ++log_.attempted;
  const std::int64_t call = calls_++;
  const auto skip = [&] {
    ++log_.unfinished;
    ++log_.failed;
    return false;
  };
  if (call >= stop_at_.load()) return skip();
  if (Clock::now() > budget_end_) {
    if (!w_.collective) return skip();
    // Collective calls stop together: every rank runs this call, none runs
    // the next. No rank can be a whole call ahead of another, so the first
    // rank to see the deadline sets a stopping point the others have not
    // yet passed.
    std::int64_t none = std::numeric_limits<std::int64_t>::max();
    stop_at_.compare_exchange_strong(none, call + 1);
  }
  sim::Actor& actor = comm_.actor();
  if (w_.collective) log_.coll_entry.push_back(actor.now());
  bool ok = false;
  sim::Time dt = 0;
  const Clock::time_point wall0 = Clock::now();
  {
    sim::SpanScope span(comm_.world().fabric().trace(), "bench", name,
                        /*make_root=*/true);
    const sim::Time t0 = actor.now();
    ok = fn();
    dt = actor.now() - t0;
  }
  const auto p = static_cast<int>(phase);
  log_.host_ns[p] +=
      std::chrono::duration<double, std::nano>(Clock::now() - wall0).count();
  ++log_.calls[p];
  log_.phase_ns[p] += dt;
  if (!ok) {
    ++log_.failed;
    return false;
  }
  log_.lat_ns.push_back(static_cast<double>(dt));
  if (is_sync) log_.sync_ns.push_back(static_cast<double>(dt));
  return true;
}

Round run_round(const Workload& w, std::uint64_t seed, Clock::time_point t0,
                Clock::time_point budget_end, bool dump_trace) {
  Round round;
  round.ranks.resize(static_cast<std::size_t>(w.ranks));
  Cluster cluster(w.filers);
  round.traced = cluster.fabric.trace().enabled();
  if (!dump_trace) cluster.fabric.trace().set_dump_path("");
  const dafs::MountSpec mount = cluster.mount();

  mpi::WorldConfig wcfg;
  wcfg.nprocs = w.ranks;
  wcfg.fabric = &cluster.fabric;
  mpi::World world(wcfg);
  std::atomic<std::int64_t> stop_at{std::numeric_limits<std::int64_t>::max()};

  world.run([&](mpi::Comm& c) {
    RankLog& log = round.ranks[static_cast<std::size_t>(c.rank())];
    via::Nic nic(cluster.fabric, world.node_of(c.rank()), "cli");
    auto connected = dafs::Client::connect(nic, mount);
    if (!connected.ok()) {
      fatal("mount", dafs::to_string(connected.error()));
    }
    auto client = std::move(connected).value();
    RankCtx ctx(w, c, *client, seed, budget_end, stop_at, log);
    w.prepare(ctx);
    c.barrier();
    if (c.rank() == 0) {
      round.setup_s =
          std::chrono::duration<double>(Clock::now() - t0).count();
      round.before = cluster.probe(*client, true);
    }
    const sim::BusyBreakdown busy0 = c.actor().busy();
    c.barrier();
    if (c.rank() == 0) {
      round.before.wall = Clock::now();
      round.before.cpu_s = process_cpu_s();
    }

    w.run(ctx);

    log.busy = minus(c.actor().busy(), busy0);
    c.barrier();
    if (c.rank() == 0) {
      const auto wall = Clock::now();
      const double cpu = process_cpu_s();
      round.after = cluster.probe(*client, false);
      round.after.wall = wall;
      round.after.cpu_s = cpu;
    }
    c.barrier();
    if (ctx.file() != nullptr) (void)ctx.file()->close();
  });

  if (round.traced) {
    round.layers = attribute(cluster.fabric.trace().snapshot(), "bench");
  }
  return round;
}

}  // namespace perfbench

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "fstore/journal.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

/// \file test_quorum.cpp
/// Quorum-replicated filer group suite (ctest label `raft`): N >= 3 filers
/// elect a leader with randomized timeouts over the replication channel, the
/// leader ships journal bytes with (term, offset) matching and acknowledges
/// non-idempotent work only at majority commit, and the fencing epoch is the
/// consensus term. Followers answer clients kNotLeader with a leader hint;
/// the client mount follows the hint (or demotes the refusing endpoint to
/// the back of its rotation). Session failover: killing the leader moves a
/// bound session to the new leader with synced bytes and counters intact,
/// and a restarted ex-leader rejoins as a follower that redirects its stale
/// sessions. Capstones: seeded kill-the-leader and partition-the-leader
/// sweeps mid-collective-write at 3 and 5 replicas — no acknowledged write
/// lost, counters exactly-once, and the deposed member re-silvers back to a
/// byte-identical journal without help. The `Failover` cases check journal
/// shipping to the followers of a healthy group and sweep the 3-member
/// leader kill with delayed client connections.

namespace {

using dafs::PStatus;
using mpi::Comm;
using mpi::Datatype;
using mpiio::Err;
using mpiio::File;
using mpiio::Info;
using sim::Actor;
using sim::ActorScope;

using Role = dafs::Server::Role;

constexpr std::uint64_t kChunk = 32 * 1024;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// N quorum members on their own nodes: member i serves clients at
/// "dafs-q<i>" and the group's consensus traffic runs over
/// "dafs-raft-<i>" (every member lists all of them, index = member id).
struct FilerGroup {
  sim::Fabric& fabric;
  std::vector<sim::NodeId> nodes;
  std::vector<std::unique_ptr<dafs::Server>> members;

  FilerGroup(sim::Fabric& f, std::size_t n, dafs::ServerConfig base = {})
      : fabric(f) {
    std::vector<std::string> group;
    for (std::size_t i = 0; i < n; ++i) {
      group.push_back("dafs-raft-" + std::to_string(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(f.add_node("filer-" + std::to_string(i)));
      dafs::ServerConfig cfg = base;
      cfg.service = client_service(i);
      cfg.quorum_group = group;
      cfg.member_id = static_cast<std::uint32_t>(i);
      cfg.repl_retry.jitter_seed = 100 + i;
      members.push_back(std::make_unique<dafs::Server>(f, nodes.back(), cfg));
    }
    for (auto& m : members) m->start();
  }

  ~FilerGroup() {
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      (*it)->stop();
    }
  }

  static std::string client_service(std::size_t i) {
    return "dafs-q" + std::to_string(i);
  }

  std::vector<std::string> services() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < members.size(); ++i) {
      out.push_back(client_service(i));
    }
    return out;
  }

  /// Index of a live leader, -1 if none right now.
  int leader() const {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!members[i]->crashed() && members[i]->role() == Role::kPrimary) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  /// Real-time wait for some live member to hold leadership.
  int wait_leader(int budget_ms = 15'000) const {
    for (int i = 0; i < budget_ms; ++i) {
      const int l = leader();
      if (l >= 0) return l;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  }

  /// Real-time wait for a live leader elected in a term after `term`. A
  /// killed leader that restarts may legally win that election itself, so
  /// callers identify the new leader by its term, not by member index.
  int wait_leader_after(std::uint64_t term, int budget_ms = 15'000) const {
    for (int i = 0; i < budget_ms; ++i) {
      const int l = leader();
      if (l >= 0 && members[static_cast<std::size_t>(l)]->epoch() > term) {
        return l;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  }
};

void wait_restart(dafs::Server& server) {
  while (server.crashed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<std::byte> journal_of(dafs::Server& s) {
  return s.store().journal_log().read(0, static_cast<std::size_t>(-1));
}

/// Real-time wait for b's journal to converge byte-identical to a's
/// (re-silvering done). Compares snapshots, so it only returns true once
/// both sides are simultaneously equal.
bool wait_journal_match(dafs::Server& a, dafs::Server& b,
                        int budget_ms = 15'000) {
  for (int i = 0; i < budget_ms; ++i) {
    if (journal_of(a) == journal_of(b)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// A quorum mount with test-speed backoffs; `preferred` rotates the initial
/// probe order so clients spread across the group (and tests can force the
/// first probe onto a follower).
dafs::MountSpec quorum_cfg(const FilerGroup& g, std::uint64_t seed, int rank,
                           std::size_t preferred = 0) {
  dafs::RetryPolicy retry;
  // Recovery spends one endpoint pass per kNotLeader probe, so the ride-out
  // budget for an election is roughly services() * attempts paced probes.
  // Sanitizer builds on a loaded core stretch elections well past the
  // default budget — give the mount enough passes to outlast them.
  retry.attempts = 20;
  retry.backoff_ns = 20'000;
  retry.backoff_cap_ns = 2'000'000;
  retry.jitter_seed = seed * 131 + static_cast<std::uint64_t>(rank);
  return dafs::quorum_mount(g.services(), retry, {}, preferred);
}

/// Server knobs every test shares: fast restart grace and a short commit
/// barrier so a partitioned leader demotes requests quickly.
dafs::ServerConfig test_base() {
  dafs::ServerConfig base;
  base.grace_period_ms = 10;
  base.repl_retry.deadline_ns = 50'000'000;  // 50 ms commit-barrier budget
  return base;
}

// ---------------------------------------------------------------------------
// Election: one leader emerges, the term is the fencing epoch
// ---------------------------------------------------------------------------

TEST(Quorum, ElectsSingleLeader) {
  sim::Fabric fabric;
  FilerGroup g(fabric, 3, test_base());
  const int l = g.wait_leader();
  ASSERT_GE(l, 0) << "no leader elected";
  // Let a few heartbeat rounds settle, then: exactly one leader, a positive
  // term shared by everyone, and every follower knows who leads.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  int leaders = 0;
  for (const auto& m : g.members) {
    if (m->role() == Role::kPrimary) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  const int ll = g.leader();
  ASSERT_GE(ll, 0);
  const std::uint64_t term = g.members[ll]->epoch();
  EXPECT_GE(term, 1u) << "a won election bumps the term";
  for (const auto& m : g.members) {
    EXPECT_EQ(m->epoch(), term);
    EXPECT_EQ(m->leader_member(), ll);
  }
  EXPECT_GE(fabric.stats().get("dafs.elections_won"), 1u);
}

// ---------------------------------------------------------------------------
// Client leader discovery: followers hint, the mount follows
// ---------------------------------------------------------------------------

TEST(Quorum, ClientFollowsLeaderHint) {
  sim::Fabric fabric;
  FilerGroup g(fabric, 3, test_base());
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  // Wait until every follower has heard the leader's first append (that is
  // where the hint comes from).
  for (const auto& m : g.members) {
    while (m->leader_member() != l) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  // Mount with a follower first: the kNotLeader answer must carry the
  // leader's member index and the session must jump straight there.
  const auto follower = static_cast<std::size_t>((l + 1) % 3);
  auto s = std::move(
      dafs::Session::connect(nic, quorum_cfg(g, 1, 0, follower)).value());
  EXPECT_EQ(s->active_service(), FilerGroup::client_service(l));
  EXPECT_GE(fabric.stats().get("dafs.leader_hints_followed"), 1u);
  EXPECT_GE(fabric.stats().get("dafs.not_leader_rejections"), 1u);

  // Work through the leader: a synced write and a counter commit at
  // majority, so every follower's journal converges on the leader's bytes.
  const auto data = pattern(kChunk, 7);
  auto fh = s->open("/hint.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  ASSERT_TRUE(s->fetch_add("hint.ctr", 3).ok());
  EXPECT_GE(g.members[l]->commit_offset(), 1u);
  for (int i = 0; i < 3; ++i) {
    if (i == l) continue;
    EXPECT_TRUE(wait_journal_match(*g.members[l], *g.members[i]))
        << "follower " << i << " never converged";
  }
  s.reset();
}

// ---------------------------------------------------------------------------
// Journal shipping: the leader's journal reaches its followers while the
// group is healthy
// ---------------------------------------------------------------------------

TEST(Failover, JournalShipsToStandby) {
  sim::Fabric fabric;
  FilerGroup g(fabric, 3, test_base());
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  const std::uint64_t term = g.members[l]->epoch();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(
      dafs::Session::connect(nic, quorum_cfg(g, 1, 0, l)).value());
  EXPECT_EQ(s->active_service(), FilerGroup::client_service(l))
      << "a mount that probes the leader first binds it";

  const auto data = pattern(kChunk, 11);
  auto fh = s->open("/ship.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  ASSERT_TRUE(s->fetch_add("ship.ctr", 3).ok());

  // The sync and the counter are non-idempotent successes: the commit
  // barrier held their responses until a majority held the journal, so the
  // leader has committed every byte it journaled and every follower
  // converges on those bytes.
  dafs::Server& leader = *g.members[l];
  EXPECT_GE(leader.commit_offset(), 1u);
  EXPECT_EQ(leader.commit_offset(), leader.store().journal_size());
  EXPECT_GT(fabric.stats().get("dafs.quorum_shipped_bytes"), 0u);
  for (int i = 0; i < 3; ++i) {
    if (i == l) continue;
    EXPECT_TRUE(wait_journal_match(leader, *g.members[i]))
        << "follower " << i << " never converged";
    EXPECT_EQ(g.members[i]->role(), Role::kStandby);
  }
  EXPECT_EQ(leader.role(), Role::kPrimary);
  EXPECT_EQ(leader.epoch(), term) << "no leader change in a healthy group";
  s.reset();
}

TEST(Quorum, FollowerTermScanCostStaysFlatAsJournalGrows) {
  // A follower keeps its term-run table current by scanning only the bytes
  // each append imports, not the whole journal under raft_mu_. Grow the
  // journal to j0, then append a little more in a few synced writes: the
  // follower must scan less than one whole journal for them, however long
  // the journal already is. A rescan per append would cost at least j0 per
  // append. Only a full rebuild on election may add a whole journal's
  // worth; retransmitted ranges are rescanned but stay far below j0.
  sim::Fabric fabric;
  FilerGroup g(fabric, 3, test_base());
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(
      dafs::Session::connect(nic, quorum_cfg(g, 1, 0, l)).value());
  auto fh = s->open("/scan.dat", dafs::kOpenCreate).value();
  std::uint64_t off = 0;
  const auto write_synced = [&](int chunks) {
    for (int i = 0; i < chunks; ++i, off += kChunk) {
      ASSERT_TRUE(s->pwrite(fh, off, pattern(kChunk, off)).ok());
      ASSERT_EQ(s->sync(fh), PStatus::kOk);
    }
  };
  const auto converge = [&] {
    const int ll = g.leader();
    ASSERT_GE(ll, 0);
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      if (static_cast<int>(i) == ll) continue;
      ASSERT_TRUE(wait_journal_match(*g.members[ll], *g.members[i]))
          << "follower " << i << " never converged";
    }
  };

  write_synced(48);
  converge();
  std::vector<std::uint64_t> scanned0;
  for (auto& m : g.members) {
    scanned0.push_back(m->store().journal_log().scanned_bytes());
  }
  const std::uint64_t j0 = g.members[l]->store().journal_size();
  ASSERT_GT(j0, 48 * kChunk);
  const std::uint64_t won0 = fabric.stats().get("dafs.elections_won");

  write_synced(4);
  converge();
  const std::uint64_t j1 = g.members[l]->store().journal_size();
  const std::uint64_t elections =
      fabric.stats().get("dafs.elections_won") - won0;
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    if (static_cast<int>(i) == l) continue;
    const std::uint64_t scanned =
        g.members[i]->store().journal_log().scanned_bytes() - scanned0[i];
    EXPECT_GE(scanned, j1 - j0) << "follower " << i;
    EXPECT_LT(scanned, j0 + elections * j1) << "follower " << i;
  }
  s.reset();
}

TEST(Quorum, FollowerOnlyMountDemotesAndGivesUp) {
  // A mount naming only followers (no endpoint carries the hinted leader's
  // member id) must demote each refusing endpoint to the back of its
  // rotation — not hammer the same one — and surface kNotLeader.
  sim::Fabric fabric;
  FilerGroup g(fabric, 3, test_base());
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  dafs::RetryPolicy fast;
  fast.attempts = 2;
  fast.backoff_ns = 1'000;
  fast.backoff_cap_ns = 4'000;
  dafs::MountSpec m;
  for (int i = 0; i < 3; ++i) {
    if (i == l) continue;
    dafs::Endpoint ep{FilerGroup::client_service(i), fast};
    ep.member = static_cast<std::uint32_t>(i);
    m.endpoints.push_back(std::move(ep));
  }
  const std::uint64_t demoted_before =
      fabric.stats().get("dafs.endpoint_demotions");
  auto refused = dafs::Session::connect(nic, m);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), PStatus::kNotLeader);
  EXPECT_GT(fabric.stats().get("dafs.endpoint_demotions"), demoted_before);
}

// ---------------------------------------------------------------------------
// Session failover: a killed leader's sessions move to its successor, and
// the restarted ex-leader redirects the ones that come back to it
// ---------------------------------------------------------------------------

TEST(Quorum, SessionRotatesToNewLeader) {
  sim::Fabric fabric;
  FilerGroup g(fabric, 3, test_base());
  const int l0 = g.wait_leader();
  ASSERT_GE(l0, 0);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(
      dafs::Session::connect(nic, quorum_cfg(g, 2, 0, l0)).value());
  ASSERT_EQ(s->active_service(), FilerGroup::client_service(l0));

  // Durable state minted on the leader: synced bytes and a counter.
  const auto data = pattern(2 * kChunk, 21);
  auto fh = s->open("/fo.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(s->fetch_add("fo.ctr", 5).ok());

  // Kill the leader with a restart delay far beyond an election: moving to
  // the successor is the only way the next op can succeed.
  const std::uint64_t term0 = g.members[l0]->epoch();
  g.members[l0]->inject_crash(/*restart_delay_ms=*/250);
  const int l1 = g.wait_leader_after(term0);
  ASSERT_GE(l1, 0) << "no new leader";
  EXPECT_NE(l1, l0) << "the killed leader is still down";
  EXPECT_GT(g.members[l1]->epoch(), term0) << "an election bumps the term";

  // Transparent recovery onto the new leader: the synced image and the
  // exactly-once counter history were committed on a majority.
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0)
      << "synced bytes must survive the failover byte-exact";
  EXPECT_EQ(s->active_service(), FilerGroup::client_service(l1));
  EXPECT_EQ(s->failovers(), 1u);
  EXPECT_GE(fabric.stats().get("dafs.failovers"), 1u);
  auto ctr = s->fetch_add("fo.ctr", 0);
  ASSERT_TRUE(ctr.ok());
  EXPECT_EQ(ctr.value(), 20u) << "counter adds must apply exactly once";

  // The group keeps serving: new writes land on the new leader.
  ASSERT_TRUE(s->pwrite(fh, data.size(), pattern(kChunk, 22)).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  s.reset();
}

TEST(Quorum, RestartedLeaderRejoinsAsFollowerAndRedirectsStaleSessions) {
  sim::Fabric fabric;
  FilerGroup g(fabric, 3, test_base());
  const int l0 = g.wait_leader();
  ASSERT_GE(l0, 0);
  dafs::Server& ex = *g.members[static_cast<std::size_t>(l0)];
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  // Two sessions bound to the leader. A fails over during the outage; B
  // sits out the crash and only notices once the ex-leader is back.
  auto a = std::move(
      dafs::Session::connect(nic, quorum_cfg(g, 3, 0, l0)).value());
  auto b = std::move(
      dafs::Session::connect(nic, quorum_cfg(g, 3, 1, l0)).value());
  ASSERT_EQ(b->active_service(), FilerGroup::client_service(l0));
  auto fa = a->open("/fence.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(a->pwrite(fa, 0, pattern(kChunk, 31)).ok());
  ASSERT_EQ(a->sync(fa), PStatus::kOk);
  auto fb = b->open("/fence.dat").value();
  ASSERT_TRUE(b->fetch_add("fence.ctr", 2).ok());

  // The restart delay outlasts the election, so the ex-leader comes back
  // to a group that already has a leader of a later term.
  const std::uint64_t term0 = ex.epoch();
  ex.inject_crash(/*restart_delay_ms=*/250);
  const int l1 = g.wait_leader_after(term0);
  ASSERT_GE(l1, 0) << "no new leader";
  const std::string leader_service = FilerGroup::client_service(l1);
  std::vector<std::byte> probe(16);
  ASSERT_TRUE(a->pread(fa, 0, probe).ok());
  EXPECT_EQ(a->active_service(), leader_service);

  // The restarted ex-leader rejoins as a follower of the new term and
  // learns who leads from its heartbeats.
  wait_restart(ex);
  for (int i = 0; i < 15'000 && (ex.role() != Role::kStandby ||
                                 ex.leader_member() != l1);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ex.role(), Role::kStandby);
  ASSERT_EQ(ex.leader_member(), l1);
  EXPECT_GT(ex.epoch(), term0);

  // B wakes up and retries against its old home: the ex-leader answers
  // kNotLeader with a hint, B follows it, reclaims on the new leader and
  // the op succeeds — with the pre-crash counter history intact.
  const std::uint64_t rejected_before =
      fabric.stats().get("dafs.not_leader_rejections");
  const std::uint64_t hints_before =
      fabric.stats().get("dafs.leader_hints_followed");
  const std::uint64_t reclaims_before =
      fabric.stats().get("dafs.session_reclaims");
  auto ctr = b->fetch_add("fence.ctr", 0);
  ASSERT_TRUE(ctr.ok());
  EXPECT_EQ(ctr.value(), 2u);
  EXPECT_EQ(b->active_service(), leader_service);
  EXPECT_TRUE(b->pread(fb, 0, probe).ok());
  EXPECT_GT(fabric.stats().get("dafs.not_leader_rejections"), rejected_before)
      << "the ex-leader must have turned B away";
  EXPECT_GT(fabric.stats().get("dafs.leader_hints_followed"), hints_before);
  EXPECT_GT(fabric.stats().get("dafs.session_reclaims"), reclaims_before);

  // A fresh single-endpoint mount of the ex-leader is refused outright...
  dafs::RetryPolicy fast;
  fast.attempts = 2;
  fast.backoff_ns = 1'000;
  fast.backoff_cap_ns = 4'000;
  auto refused = dafs::Session::connect(
      nic, dafs::single_mount(FilerGroup::client_service(l0), fast));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), PStatus::kNotLeader);

  // ...while a quorum mount that probes it first lands on the leader.
  auto fresh = dafs::Session::connect(nic, quorum_cfg(g, 3, 2, l0));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value()->active_service(), leader_service);
  fresh.value().reset();
  b.reset();
  a.reset();
}

// ---------------------------------------------------------------------------
// Capstone 1: seeded kill-the-leader sweep mid-collective-write
// ---------------------------------------------------------------------------

/// One seed: a 4-rank world writes a durable baseline through the leader,
/// then the crash schedule kills the leader mid-collective-write. The group
/// elects a successor, every rank finishes through it (synced bytes
/// byte-exact, counter mutations exactly-once through the durable dup
/// filter), and the deposed member restarts, rejoins as a follower and
/// re-silvers to a byte-identical journal — all without a manual restart.
/// With `conn_delay`, odd seeds also delay transfers on the killed leader's
/// client connections to shake up the interleaving.
void run_kill_world(std::uint64_t seed, std::size_t replicas,
                    bool conn_delay = false) {
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr int kRanks = 4;
  constexpr int kAdds = 5;
  constexpr std::uint64_t kDelta = 7;

  sim::Fabric fabric;
  FilerGroup g(fabric, replicas, test_base());
  const int l0 = g.wait_leader();
  ASSERT_GE(l0, 0) << "seed " << seed;
  const std::uint64_t term0 = g.members[static_cast<std::size_t>(l0)]->epoch();
  const std::string killed_service =
      FilerGroup::client_service(static_cast<std::size_t>(l0));
  // Per rank: was its session bound to the leader the crash kills, and
  // which member did it end on?
  // (Not vector<bool>: ranks are threads and write their own slots.)
  std::vector<char> bound_to_killed(kRanks, 0);
  std::vector<std::string> final_service(kRanks);

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "quorum-kill";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto session = std::move(
        dafs::Session::connect(
            nic, quorum_cfg(g, seed, c.rank(),
                            static_cast<std::size_t>(c.rank()) % replicas))
            .value());
    auto fa = std::move(File::open(c, "/a.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*session))
                            .value());
    auto fb = std::move(File::open(c, "/b.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*session))
                            .value());
    auto poll_fh = session->open("/a.dat").value();

    // Phase 1 (healthy group): durable baseline. Sync means the journal
    // bytes carrying it were committed at majority, so the baseline must
    // survive the leader's death byte-exact.
    const std::uint64_t off = c.rank() * kChunk;
    const auto da = pattern(kChunk, 1000 + seed * 10 + c.rank());
    ASSERT_TRUE(
        fa->write_at_all(off, da.data(), kChunk, Datatype::byte()).ok());
    ASSERT_EQ(fa->sync(), Err::kOk);
    bound_to_killed[c.rank()] = session->active_service() == killed_service;
    c.barrier();

    // Arm: kill the leader — and only the leader — a few admitted requests
    // into phase 2, with a restart delay well past the election time.
    if (c.rank() == 0) {
      auto& plan = fabric.faults();
      plan.arm(seed);
      plan.restrict_crash_to_node(g.nodes[static_cast<std::size_t>(l0)]);
      plan.crash_server_after_requests(2 + seed * 3,
                                       /*restart_delay_ms=*/60);
      if (conn_delay && seed % 2 == 1) {
        plan.restrict_to_conn(killed_service);
        plan.set_delay(0.2, 30'000);
      }
    }
    c.barrier();

    // Phase 2 (crash lands here): collective writes plus counter traffic.
    const auto db = pattern(kChunk, 2000 + seed * 10 + c.rank());
    bool ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "collective write across leader death, seed " << seed;
    for (int i = 0; i < kAdds; ++i) {
      auto r = session->fetch_add("qk.ctr", kDelta);
      ASSERT_TRUE(r.ok()) << "fetch_add " << i << ", seed " << seed << ": "
                          << dafs::to_string(r.error());
    }
    c.barrier();

    // Make sure the armed crash actually fired, then wait for a successor.
    if (c.rank() == 0) {
      int guard = 0;
      while (fabric.stats().get("dafs.server_crashes") == 0 && guard++ < 500) {
        (void)session->getattr(poll_fh);
      }
      EXPECT_GE(fabric.stats().get("dafs.server_crashes"), 1u)
          << "seed " << seed;
      EXPECT_GE(g.wait_leader(), 0) << "seed " << seed;
      fabric.faults().clear();
    }
    c.barrier();

    // Phase 3 (on the successor): rewrite /b.dat clean and sync — acked but
    // un-synced phase-2 bytes legally died with the leader — then verify the
    // durable baseline never moved.
    ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "clean rewrite, seed " << seed;
    ASSERT_EQ(fb->sync(), Err::kOk);

    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(
        fa->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), da.data(), kChunk), 0)
        << "synced baseline after leader death, seed " << seed;
    ASSERT_TRUE(
        fb->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), db.data(), kChunk), 0);
    final_service[c.rank()] = session->active_service();

    fa->close();
    fb->close();
  });

  // Every rank that was bound to the killed leader crossed over to another
  // member — unless Raft legally re-elected the restarted ex-leader in a
  // later term and the rank followed it back (its 60 ms restart races the
  // 50-100 ms election). A rank left on the killed member while that member
  // does not lead would be on a follower, which serves nothing.
  const int l_end = g.leader();
  for (int r = 0; r < kRanks; ++r) {
    if (!bound_to_killed[r] || final_service[r] != killed_service) continue;
    EXPECT_EQ(l_end, l0)
        << "rank " << r << " ended on the killed leader, which no longer "
        << "leads, seed " << seed;
    EXPECT_GT(g.members[static_cast<std::size_t>(l0)]->epoch(), term0)
        << "seed " << seed;
  }

  // Exactly-once across the change of leadership, checked through a
  // pristine mount (it discovers the live leader on its own).
  {
    const auto node = fabric.add_node("verify");
    Actor actor("verify", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "vnic");
    auto s = std::move(
        dafs::Session::connect(nic, quorum_cfg(g, seed, 99)).value());
    EXPECT_EQ(s->fetch_add("qk.ctr", 0).value(),
              static_cast<std::uint64_t>(kRanks) * kAdds * kDelta)
        << "seed " << seed;
    for (const char* path : {"/a.dat", "/b.dat"}) {
      auto fh = s->open(path).value();
      const std::uint64_t base =
          std::string_view(path) == "/a.dat" ? 1000 : 2000;
      std::vector<std::byte> all(kRanks * kChunk);
      auto rd = s->pread(fh, 0, all);
      EXPECT_TRUE(rd.ok());
      if (!rd.ok()) continue;
      for (int r = 0; r < kRanks; ++r) {
        const auto expect = pattern(kChunk, base + seed * 10 + r);
        EXPECT_EQ(
            std::memcmp(all.data() + r * kChunk, expect.data(), kChunk), 0)
            << path << " rank " << r << " seed " << seed;
      }
    }
    s.reset();
  }

  // Automatic rejoin + re-silver: the deposed member comes back on its own
  // restart schedule and catches up until its journal is byte-identical to
  // the leader's — no manual intervention anywhere.
  wait_restart(*g.members[static_cast<std::size_t>(l0)]);
  const int lf = g.wait_leader();
  ASSERT_GE(lf, 0) << "seed " << seed;
  EXPECT_TRUE(wait_journal_match(*g.members[static_cast<std::size_t>(lf)],
                                 *g.members[static_cast<std::size_t>(l0)]))
      << "deposed member never re-silvered, seed " << seed;
  EXPECT_GE(fabric.stats().get("dafs.elections_won"), 2u) << "seed " << seed;

  EXPECT_LT(std::chrono::steady_clock::now() - wall_start,
            std::chrono::seconds(90))
      << "seed " << seed;
}

TEST(Quorum, SeededKillLeaderSweep3) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_kill_world(seed, 3);
}

TEST(Quorum, SeededKillLeaderSweep5) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_kill_world(seed, 5);
}

/// The crash-mid-collective sweep of session failover: the same seeds on 3
/// members, with odd seeds also delaying the killed leader's client
/// connections so the crash lands at shifted points of the collective.
TEST(Failover, SeededCrashMidCollectiveSweep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_kill_world(seed, 3, /*conn_delay=*/true);
  }
}

// ---------------------------------------------------------------------------
// Capstone 2: seeded partition-the-leader sweep (term-based fencing)
// ---------------------------------------------------------------------------

/// One seed: sever both directions between the leader and every other
/// member mid-collective-write (clients can still reach it — the dangerous
/// case). The stranded leader's lease expires and it steps down, so it can
/// never acknowledge a write the majority side does not have; the rest
/// elect a successor and every rank finishes there. The partition heals on
/// its own and the ex-leader truncates its divergent suffix and re-silvers
/// back to byte-identical journal state.
void run_partition_world(std::uint64_t seed, std::size_t replicas) {
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr int kRanks = 4;
  constexpr int kAdds = 5;
  constexpr std::uint64_t kDelta = 7;

  sim::Fabric fabric;
  FilerGroup g(fabric, replicas, test_base());
  const int l0 = g.wait_leader();
  ASSERT_GE(l0, 0) << "seed " << seed;

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "quorum-part";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto session = std::move(
        dafs::Session::connect(
            nic, quorum_cfg(g, seed, c.rank(),
                            static_cast<std::size_t>(c.rank()) % replicas))
            .value());
    auto fa = std::move(File::open(c, "/a.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*session))
                            .value());

    // Durable baseline through the healthy group.
    const std::uint64_t off = c.rank() * kChunk;
    const auto da = pattern(kChunk, 3000 + seed * 10 + c.rank());
    ASSERT_TRUE(
        fa->write_at_all(off, da.data(), kChunk, Datatype::byte()).ok());
    ASSERT_EQ(fa->sync(), Err::kOk);
    c.barrier();

    // Strand the leader: sever it from every other member (both
    // directions), healing automatically after 400 ms. Client links stay
    // up, so the stranded leader keeps *receiving* requests — term fencing
    // is what must stop it acknowledging them.
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < replicas; ++i) {
        if (static_cast<int>(i) == l0) continue;
        fabric.faults().partition_nodes(
            g.nodes[static_cast<std::size_t>(l0)], g.nodes[i],
            /*heal_after_ms=*/400);
      }
    }
    c.barrier();

    // Mid-partition collective writes plus counter traffic: requests that
    // reached the stranded leader come back kNotLeader (commit barrier
    // cannot reach majority), and recovery routes everything to the
    // successor.
    const auto db = pattern(kChunk, 4000 + seed * 10 + c.rank());
    bool ok = false;
    for (int t = 0; t < 10 && !ok; ++t) {
      ok = fa->write_at_all(off + kRanks * kChunk, db.data(), kChunk,
                            Datatype::byte())
               .ok();
    }
    ASSERT_TRUE(ok) << "collective write across partition, seed " << seed;
    for (int i = 0; i < kAdds; ++i) {
      auto r = session->fetch_add("qp.ctr", kDelta);
      ASSERT_TRUE(r.ok()) << "fetch_add " << i << ", seed " << seed << ": "
                          << dafs::to_string(r.error());
    }
    ASSERT_EQ(fa->sync(), Err::kOk);
    c.barrier();

    // The durable baseline never moved.
    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(
        fa->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), da.data(), kChunk), 0)
        << "synced baseline across partition, seed " << seed;

    fa->close();
  });

  // The stranded leader must have stepped down (lease expiry beats the
  // partition healing), and a successor must have taken over.
  EXPECT_GE(fabric.stats().get("dafs.leader_lease_expirations"), 1u)
      << "seed " << seed;
  EXPECT_GE(fabric.stats().get("dafs.leader_stepdowns"), 1u)
      << "seed " << seed;

  // Exactly-once through a pristine mount.
  {
    const auto node = fabric.add_node("verify");
    Actor actor("verify", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "vnic");
    auto s = std::move(
        dafs::Session::connect(nic, quorum_cfg(g, seed, 99)).value());
    EXPECT_EQ(s->fetch_add("qp.ctr", 0).value(),
              static_cast<std::uint64_t>(kRanks) * kAdds * kDelta)
        << "seed " << seed;
    auto fh = s->open("/a.dat").value();
    std::vector<std::byte> all(2 * kRanks * kChunk);
    auto rd = s->pread(fh, 0, all);
    EXPECT_TRUE(rd.ok());
    if (rd.ok()) {
      for (int r = 0; r < kRanks; ++r) {
        const auto base = pattern(kChunk, 3000 + seed * 10 + r);
        const auto mid = pattern(kChunk, 4000 + seed * 10 + r);
        EXPECT_EQ(
            std::memcmp(all.data() + r * kChunk, base.data(), kChunk), 0)
            << "baseline rank " << r << " seed " << seed;
        EXPECT_EQ(std::memcmp(all.data() + (kRanks + r) * kChunk, mid.data(),
                              kChunk),
                  0)
            << "mid-partition rank " << r << " seed " << seed;
      }
    }
    s.reset();
  }

  // Healed: the ex-leader rejoins as a follower, truncates whatever suffix
  // it journaled but never committed, and catches up to byte-identical
  // journal state.
  const int lf = g.wait_leader();
  ASSERT_GE(lf, 0) << "seed " << seed;
  EXPECT_TRUE(wait_journal_match(*g.members[static_cast<std::size_t>(lf)],
                                 *g.members[static_cast<std::size_t>(l0)]))
      << "ex-leader never re-silvered, seed " << seed;
  EXPECT_TRUE(g.members[static_cast<std::size_t>(l0)]->resilver_bytes() > 0 ||
              fabric.stats().get("dafs.resilver_truncated_bytes") > 0)
      << "no re-silver happened at all, seed " << seed;

  EXPECT_LT(std::chrono::steady_clock::now() - wall_start,
            std::chrono::seconds(90))
      << "seed " << seed;
}

TEST(Quorum, SeededPartitionLeaderSweep3) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_partition_world(seed, 3);
  }
}

TEST(Quorum, SeededPartitionLeaderSweep5) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_partition_world(seed, 5);
  }
}

}  // namespace

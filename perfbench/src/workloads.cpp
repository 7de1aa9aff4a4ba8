// The benchmark's workloads. Each rank is one thread issuing one call at a
// time (closed loop); the seed picks every data byte and every read order,
// and every byte read back is checked against it. Why each workload exists
// and what it should and should not move is in perfbench/README.md.
#include <array>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mpiio/ad_dafs.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, n - i));
  }
  return out;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  sim::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// Seed of the stream named (a, b) within run `seed`. Hashed, so streams
/// of neighbouring seeds do not overlap (sim::Rng is a counter-based
/// splitmix64: seeds a multiple of its increment apart share one stream).
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  sim::Rng h(seed ^ (a << 32) ^ b);
  return h.next();
}

/// The run's transfer size: `nominal` less a seeded whole number of
/// `step`s in [0, steps], drawn once per seed. The cost model charges by
/// size, not by content or offset, so without this every seed would model
/// exactly the same times. One size per run keeps the access pattern as
/// regular as the nominal one (mixed sizes change which transfers collide
/// at the filer, and with it the tail and the memory peak), and never
/// exceeding `nominal` keeps clear of the step just above 256 KiB (see
/// README.md).
std::uint64_t seeded_size(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t nominal, std::uint64_t step,
                          std::uint64_t steps) {
  sim::Rng rng(mix(seed, stream));
  return nominal - rng.below(steps + 1) * step;
}

/// Collective MPI-IO open through this rank's dafs::Client. The benchmark's
/// own span is the root of each call's trace, so the MPI-IO layer must not
/// open roots of its own (dafs_trace_sample = 0); its phase spans still
/// nest under the benchmark's span.
std::unique_ptr<mpiio::File> open_file(RankCtx& ctx, const char* path) {
  mpiio::Info info;
  info.set("dafs_trace_sample", std::uint64_t{0});
  auto f = mpiio::File::open(ctx.comm(), path,
                             mpiio::kModeCreate | mpiio::kModeRdwr, info,
                             mpiio::dafs_driver(ctx.client()));
  if (!f.ok()) fatal(path, dafs::to_string(f.error()));
  return std::move(f).value();
}

bool read_and_check(RankCtx& ctx, const mpiio::Result<std::uint64_t>& r,
                    std::uint64_t want, const std::byte* got,
                    const std::byte* expect) {
  if (!r.ok() || r.value() != want) return false;
  if (std::memcmp(got, expect, want) != 0) ctx.mismatch();
  return true;
}

// ---- ior_stream ------------------------------------------------------------
// IOR-style: 2 ranks share one file, each owning a contiguous block of
// kIorXfers transfers closed by a sync; then each rank reads its
// neighbour's block (IOR -C) in seeded order. The transfer size is 256 KiB
// less up to 1 KiB per seed (seeded_size).
constexpr std::uint64_t kIorXfers = 32;  // per rank per round

struct IorState {
  std::uint64_t xfer = 0;
  std::array<std::vector<std::byte>, 2> blocks;  // both ranks' blocks
  std::vector<std::byte> buf;
};

Workload ior_stream() {
  auto state = std::make_shared<std::array<IorState, 2>>();
  Workload w;
  w.name = "ior_stream";
  w.ranks = 2;
  w.prepare = [state](RankCtx& ctx) {
    IorState& s = (*state)[static_cast<std::size_t>(ctx.rank())];
    if (s.xfer == 0) {
      s.xfer = seeded_size(ctx.seed(), 3, 256 * 1024, 64, 16);
      for (std::uint64_t r = 0; r < 2; ++r) {
        s.blocks[r] = seeded_bytes(s.xfer * kIorXfers, mix(ctx.seed(), r));
      }
      s.buf.resize(s.xfer);
    }
    ctx.file() = open_file(ctx, "/ior.dat");
  };
  w.run = [state](RankCtx& ctx) {
    IorState& s = (*state)[static_cast<std::size_t>(ctx.rank())];
    mpiio::File& f = *ctx.file();
    const auto me = static_cast<std::uint64_t>(ctx.rank());
    const std::uint64_t peer = (me + 1) % 2;
    const std::uint64_t xfer = s.xfer;
    const std::uint64_t block = xfer * kIorXfers;
    for (std::uint64_t i = 0; i < kIorXfers; ++i) {
      if (ctx.timed("write", Phase::kWrite, [&] {
            auto r = f.write_at(me * block + i * xfer,
                                s.blocks[me].data() + i * xfer, xfer,
                                mpi::Datatype::byte());
            return r.ok() && r.value() == xfer;
          })) {
        ctx.add_bytes(Phase::kWrite, xfer);
      }
    }
    ctx.timed("sync", Phase::kWrite,
              [&] { return f.sync() == mpiio::Err::kOk; }, /*is_sync=*/true);
    ctx.comm().barrier();
    for (std::size_t i : seeded_order(kIorXfers, mix(ctx.seed(), 7, me))) {
      if (ctx.timed("read", Phase::kRead, [&] {
            auto r = f.read_at(peer * block + i * xfer, s.buf.data(), xfer,
                               mpi::Datatype::byte());
            return read_and_check(ctx, r, xfer, s.buf.data(),
                                  s.blocks[peer].data() + i * xfer);
          })) {
        ctx.add_bytes(Phase::kRead, xfer);
      }
    }
  };
  return w;
}

// ---- mdtest_small ----------------------------------------------------------
// mdtest-style: 4 ranks, each in a private directory, run create -> write
// -> getattr -> read and verify -> close -> unlink per file, straight
// through dafs::Client. Files hold 3 KiB less up to 128 B per seed
// (seeded_size): inline, below the 4 KiB direct threshold.
constexpr std::uint64_t kMdFiles = 150;  // per rank per round
constexpr std::uint64_t kMdPool = 64 * 1024;

struct MdState {
  std::uint64_t len = 0;
  std::vector<std::byte> pool;
  std::vector<std::byte> buf;
};

Workload mdtest_small() {
  auto state = std::make_shared<std::array<MdState, 4>>();
  Workload w;
  w.name = "mdtest_small";
  w.ranks = 4;
  w.prepare = [state](RankCtx& ctx) {
    MdState& s = (*state)[static_cast<std::size_t>(ctx.rank())];
    if (s.len == 0) {
      s.len = seeded_size(ctx.seed(), 13, 3 * 1024, 8, 16);
      s.pool = seeded_bytes(kMdPool, mix(ctx.seed(), 11, ctx.rank()));
      s.buf.resize(s.len);
    }
    const std::string dir = "/r" + std::to_string(ctx.rank());
    const dafs::PStatus st = ctx.client().mkdir(dir);
    if (st != dafs::PStatus::kOk) fatal(dir.c_str(), dafs::to_string(st));
  };
  w.run = [state](RankCtx& ctx) {
    MdState& s = (*state)[static_cast<std::size_t>(ctx.rank())];
    dafs::Client& cl = ctx.client();
    sim::Rng rng(mix(ctx.seed(), 13, ctx.rank()));
    const std::string dir = "/r" + std::to_string(ctx.rank()) + "/f";
    for (std::uint64_t i = 0; i < kMdFiles; ++i) {
      const std::string path = dir + std::to_string(i);
      const std::uint64_t len = s.len;
      const std::byte* data = s.pool.data() + rng.below(kMdPool - len);
      dafs::Fh fh;
      ctx.timed("create", Phase::kMeta, [&] {
        auto r = cl.open(path, dafs::kOpenCreate);
        if (r.ok()) fh = r.value();
        return r.ok();
      });
      if (ctx.timed("write", Phase::kWrite, [&] {
            if (!fh.valid()) return false;
            auto r = cl.pwrite(fh, 0, std::span(data, len));
            return r.ok() && r.value() == len;
          })) {
        ctx.add_bytes(Phase::kWrite, len);
      }
      ctx.timed("getattr", Phase::kMeta, [&] {
        if (!fh.valid()) return false;
        auto r = cl.getattr(fh);
        if (r.ok() && r.value().size != len) ctx.mismatch();
        return r.ok();
      });
      if (ctx.timed("read", Phase::kRead, [&] {
            if (!fh.valid()) return false;
            auto r = cl.pread(fh, 0, std::span(s.buf.data(), len));
            return read_and_check(ctx, r, len, s.buf.data(), data);
          })) {
        ctx.add_bytes(Phase::kRead, len);
      }
      ctx.timed("close", Phase::kMeta, [&] {
        return fh.valid() && cl.close(fh) == dafs::PStatus::kOk;
      });
      ctx.timed("unlink", Phase::kMeta,
                [&] { return cl.remove(path) == dafs::PStatus::kOk; });
    }
  };
  return w;
}

// ---- coll_strided ----------------------------------------------------------
// ROMIO block-cyclic: 4 ranks each see every 4th 4 KiB block through a
// subarray view; each collective call moves 64 tiles per rank (two-phase
// aggregation). Reads come back in a seeded call order, the same on every
// rank as a collective requires.
constexpr std::uint32_t kCollBlock = 4096;
constexpr std::uint32_t kCollTiles = 64;
constexpr std::uint64_t kCollCall = std::uint64_t{kCollBlock} * kCollTiles;
constexpr std::uint64_t kCollCalls = 24;  // per round
constexpr int kCollRanks = 4;

struct CollState {
  std::vector<std::byte> data;
  std::vector<std::byte> buf = std::vector<std::byte>(kCollCall);
};

Workload coll_strided() {
  auto state = std::make_shared<std::array<CollState, kCollRanks>>();
  Workload w;
  w.name = "coll_strided";
  w.ranks = kCollRanks;
  w.collective = true;
  w.prepare = [state](RankCtx& ctx) {
    CollState& s = (*state)[static_cast<std::size_t>(ctx.rank())];
    if (s.data.empty()) {
      s.data = seeded_bytes(kCollCall * kCollCalls,
                            mix(ctx.seed(), 17, ctx.rank()));
    }
    ctx.file() = open_file(ctx, "/coll.dat");
    const std::array<std::uint32_t, 1> sizes = {kCollBlock * kCollRanks};
    const std::array<std::uint32_t, 1> subsizes = {kCollBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(ctx.rank()) * kCollBlock};
    auto ft = mpi::Datatype::subarray(sizes, subsizes, starts,
                                      mpi::Datatype::byte());
    const mpiio::Err st = ctx.file()->set_view(0, mpi::Datatype::byte(), ft);
    if (st != mpiio::Err::kOk) fatal("set_view", dafs::to_string(st));
  };
  w.run = [state](RankCtx& ctx) {
    CollState& s = (*state)[static_cast<std::size_t>(ctx.rank())];
    mpiio::File& f = *ctx.file();
    for (std::uint64_t k = 0; k < kCollCalls; ++k) {
      if (ctx.timed("write_at_all", Phase::kWrite, [&] {
            auto r = f.write_at_all(k * kCollCall,
                                    s.data.data() + k * kCollCall, kCollCall,
                                    mpi::Datatype::byte());
            return r.ok() && r.value() == kCollCall;
          })) {
        ctx.add_bytes(Phase::kWrite, kCollCall);
      }
    }
    for (std::size_t k : seeded_order(kCollCalls, mix(ctx.seed(), 19))) {
      if (ctx.timed("read_at_all", Phase::kRead, [&] {
            auto r = f.read_at_all(k * kCollCall, s.buf.data(), kCollCall,
                                   mpi::Datatype::byte());
            return read_and_check(ctx, r, kCollCall, s.buf.data(),
                                  s.data.data() + k * kCollCall);
          })) {
        ctx.add_bytes(Phase::kRead, kCollCall);
      }
    }
  };
  return w;
}

// ---- quorum_ckpt -----------------------------------------------------------
// A checkpoint stream into a 3-member quorum group with no faults: 1 rank
// writes 320 chunks of 64 KiB (20 MiB, the size of the other workloads'
// rounds) and syncs every 8, then reads the checkpoint back in seeded
// order. The only workload that loads journal shipping and the
// majority-commit barrier. Only chunks whose write and covering sync both
// succeeded are compared on read-back: an unsynced write may legally be lost.
constexpr std::uint64_t kCkptChunk = 64 * 1024;
constexpr std::uint64_t kCkptChunks = 320;  // per round
constexpr std::uint64_t kCkptWindow = 8;

struct CkptState {
  std::vector<std::byte> data;
  std::vector<std::byte> buf = std::vector<std::byte>(kCkptChunk);
};

Workload quorum_ckpt() {
  auto state = std::make_shared<CkptState>();
  Workload w;
  w.name = "quorum_ckpt";
  w.ranks = 1;
  w.filers = 3;
  w.prepare = [state](RankCtx& ctx) {
    if (state->data.empty()) {
      state->data = seeded_bytes(kCkptChunk * kCkptChunks, mix(ctx.seed(), 23));
    }
    ctx.file() = open_file(ctx, "/ckpt.dat");
  };
  w.run = [state](RankCtx& ctx) {
    mpiio::File& f = *ctx.file();
    std::vector<bool> written(kCkptChunks, false);
    std::vector<bool> durable(kCkptChunks, false);
    for (std::uint64_t i = 0; i < kCkptChunks; ++i) {
      written[i] = ctx.timed("write", Phase::kWrite, [&] {
        auto r = f.write_at(i * kCkptChunk, state->data.data() + i * kCkptChunk,
                            kCkptChunk, mpi::Datatype::byte());
        return r.ok() && r.value() == kCkptChunk;
      });
      if (written[i]) ctx.add_bytes(Phase::kWrite, kCkptChunk);
      if ((i + 1) % kCkptWindow == 0 &&
          ctx.timed("sync", Phase::kWrite,
                    [&] { return f.sync() == mpiio::Err::kOk; }, true)) {
        for (std::uint64_t j = i + 1 - kCkptWindow; j <= i; ++j) {
          durable[j] = written[j];
        }
      }
    }
    for (std::size_t i : seeded_order(kCkptChunks, mix(ctx.seed(), 29))) {
      if (ctx.timed("read", Phase::kRead, [&] {
            auto r = f.read_at(i * kCkptChunk, state->buf.data(), kCkptChunk,
                               mpi::Datatype::byte());
            if (!durable[i]) return r.ok();
            return read_and_check(ctx, r, kCkptChunk, state->buf.data(),
                                  state->data.data() + i * kCkptChunk);
          })) {
        ctx.add_bytes(Phase::kRead, kCkptChunk);
      }
    }
  };
  return w;
}

const std::vector<Workload>& all() {
  static const std::vector<Workload> ws = {ior_stream(), mdtest_small(),
                                           coll_strided(), quorum_ckpt()};
  return ws;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : all()) out.push_back(w.name);
  return out;
}

}  // namespace perfbench

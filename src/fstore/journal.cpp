#include "fstore/journal.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FSTORE_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace fstore {

namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial: kCrcTables[0]
// is the classic byte table, kCrcTables[k][i] the CRC of byte i followed by
// k zero bytes, so eight table lookups fold eight input bytes at once.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

// Raw (un-inverted) CRC register update; the public entry points apply the
// pre/post inversion.
std::uint32_t crc32c_sw(const unsigned char* p, std::size_t n,
                        std::uint32_t c) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    // Assembled little-endian whatever the host order; compilers fold this
    // into one load on little-endian targets.
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    const std::uint32_t hi =
        std::uint32_t{p[4]} | std::uint32_t{p[5]} << 8 |
        std::uint32_t{p[6]} << 16 | std::uint32_t{p[7]} << 24;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#ifdef FSTORE_CRC32C_SSE42
// SSE4.2's crc32 instruction implements exactly this polynomial and bit
// order, eight bytes per instruction.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const unsigned char* p, std::size_t n, std::uint32_t c) {
  std::uint64_t c64 = c;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    c64 = _mm_crc32_u64(c64, v);
  }
  c = static_cast<std::uint32_t>(c64);
  for (; n > 0; ++p, --n) c = _mm_crc32_u8(c, *p);
  return c;
}
#endif

using CrcUpdate = std::uint32_t (*)(const unsigned char*, std::size_t,
                                    std::uint32_t);

CrcUpdate pick_crc32c() {
#ifdef FSTORE_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_sw;
}

const unsigned char* bytes_of(std::span<const std::byte> data) {
  return reinterpret_cast<const unsigned char*>(data.data());
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::byte> data,
                              std::uint32_t seed) {
  return crc32c_sw(bytes_of(data), data.size(), seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  static const CrcUpdate update = pick_crc32c();
  return update(bytes_of(data), data.size(), seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

std::uint32_t FStoreJournal::frame_crc(std::span<const std::byte> payload) {
  return crc32c(payload, kRecMagic);
}

std::uint64_t FStoreJournal::valid_prefix(std::span<const std::byte> log,
                                          std::size_t* records) {
  std::size_t pos = 0;
  std::size_t count = 0;
  while (log.size() - pos >= sizeof(RecHeader)) {
    RecHeader h;
    std::memcpy(&h, log.data() + pos, sizeof(h));
    if (h.magic != kRecMagic) break;
    if (log.size() - pos - sizeof(RecHeader) < h.len) break;  // torn tail
    const auto payload = log.subspan(pos + sizeof(RecHeader), h.len);
    if (frame_crc(payload) != h.crc) break;  // bit rot / partial overwrite
    pos += sizeof(RecHeader) + h.len;
    ++count;
  }
  if (records != nullptr) *records = count;
  return pos;
}

bool FStoreJournal::has_valid_record(std::span<const std::byte> tail) {
  // Scan every byte offset for a complete, CRC-clean frame. A torn write
  // leaves only the interrupted suffix (no full frame can follow the break),
  // so finding one proves the damage sits *inside* otherwise-intact storage.
  for (std::size_t pos = 0; pos + sizeof(RecHeader) <= tail.size(); ++pos) {
    RecHeader h;
    std::memcpy(&h, tail.data() + pos, sizeof(h));
    if (h.magic != kRecMagic) continue;
    if (tail.size() - pos - sizeof(RecHeader) < h.len) continue;
    if (frame_crc(tail.subspan(pos + sizeof(RecHeader), h.len)) == h.crc) {
      return true;
    }
  }
  return false;
}

std::uint64_t FStoreJournal::append(RecType type,
                                    std::span<const std::byte> payload) {
  RecHeader h;
  h.magic = kRecMagic;
  h.len = static_cast<std::uint32_t>(payload.size());
  h.crc = frame_crc(payload);
  h.type = static_cast<std::uint8_t>(type);
  std::lock_guard lock(mu_);
  const auto* hb = reinterpret_cast<const std::byte*>(&h);
  log_.insert(log_.end(), hb, hb + sizeof(h));
  log_.insert(log_.end(), payload.begin(), payload.end());
  return log_.size();
}

std::uint64_t FStoreJournal::size() const {
  std::lock_guard lock(mu_);
  return log_.size();
}

std::vector<std::byte> FStoreJournal::read(std::uint64_t from,
                                           std::size_t max_bytes) const {
  std::lock_guard lock(mu_);
  std::vector<std::byte> out;
  if (from >= log_.size()) return out;
  std::size_t pos = from;
  while (log_.size() - pos >= sizeof(RecHeader)) {
    RecHeader h;
    std::memcpy(&h, log_.data() + pos, sizeof(h));
    if (h.magic != kRecMagic) break;  // caller's offset was not a boundary
    const std::size_t rec = sizeof(RecHeader) + h.len;
    if (log_.size() - pos < rec) break;
    // Stop before exceeding the budget — unless this is the first record,
    // which is returned whole so an oversized record cannot wedge a reader
    // that pages through the log in max_bytes steps.
    if (pos != from && (pos + rec) - from > max_bytes) break;
    pos += rec;
    if (pos - from >= max_bytes) break;
  }
  out.assign(log_.begin() + static_cast<std::ptrdiff_t>(from),
             log_.begin() + static_cast<std::ptrdiff_t>(pos));
  return out;
}

FStoreJournal::ImportResult FStoreJournal::import(
    std::span<const std::byte> stream) {
  ImportResult res;
  res.accepted = valid_prefix(stream, nullptr);
  res.truncated = res.accepted < stream.size();
  if (res.accepted > 0) {
    std::lock_guard lock(mu_);
    log_.insert(log_.end(), stream.begin(),
                stream.begin() + static_cast<std::ptrdiff_t>(res.accepted));
  }
  return res;
}

FStoreJournal::ReplayResult FStoreJournal::replay(
    const std::function<void(RecType, std::span<const std::byte>)>& fn) {
  std::lock_guard lock(mu_);
  ReplayResult res;
  const std::uint64_t good = valid_prefix(log_, nullptr);
  if (good < log_.size()) {
    if (has_valid_record(std::span<const std::byte>(log_).subspan(
            good + 1))) {
      // Interior corruption: valid records live past the bad frame, so this
      // is bit rot, not a torn final write. Truncating would silently erase
      // a legal journal suffix — keep the log intact (evidence included)
      // and let the caller refuse the mount.
      res.interior_corrupt = true;
      res.corrupt_offset = good;
    } else {
      res.torn_bytes = log_.size() - good;
      log_.resize(good);
    }
  }
  std::size_t pos = 0;
  while (pos < good) {
    RecHeader h;
    std::memcpy(&h, log_.data() + pos, sizeof(h));
    fn(static_cast<RecType>(h.type),
       std::span<const std::byte>(log_).subspan(pos + sizeof(RecHeader),
                                                h.len));
    pos += sizeof(RecHeader) + h.len;
  }
  return res;
}

void FStoreJournal::scan(
    std::uint64_t from,
    const std::function<void(std::uint64_t, RecType,
                             std::span<const std::byte>)>& fn) const {
  std::lock_guard lock(mu_);
  if (from >= log_.size()) return;
  const auto tail = std::span<const std::byte>(log_).subspan(from);
  const std::uint64_t good = valid_prefix(tail, nullptr);
  scanned_bytes_ += good;
  std::size_t pos = 0;
  while (pos < good) {
    RecHeader h;
    std::memcpy(&h, tail.data() + pos, sizeof(h));
    fn(from + pos, static_cast<RecType>(h.type),
       tail.subspan(pos + sizeof(RecHeader), h.len));
    pos += sizeof(RecHeader) + h.len;
  }
}

std::uint64_t FStoreJournal::scanned_bytes() const {
  std::lock_guard lock(mu_);
  return scanned_bytes_;
}

std::uint64_t FStoreJournal::truncate(std::uint64_t size) {
  std::lock_guard lock(mu_);
  if (size >= log_.size()) return 0;
  const std::uint64_t dropped = log_.size() - size;
  log_.resize(size);
  return dropped;
}

void FStoreJournal::corrupt_tail_byte() {
  std::lock_guard lock(mu_);
  if (log_.empty()) return;
  log_.back() ^= std::byte{0x01};
}

void FStoreJournal::corrupt_byte_at(std::uint64_t off) {
  std::lock_guard lock(mu_);
  if (off >= log_.size()) return;
  log_[off] ^= std::byte{0x01};
}

void FStoreJournal::chop_tail(std::uint64_t n) {
  std::lock_guard lock(mu_);
  log_.resize(log_.size() - std::min<std::uint64_t>(n, log_.size()));
}

void FStoreJournal::append_raw(std::span<const std::byte> bytes) {
  std::lock_guard lock(mu_);
  log_.insert(log_.end(), bytes.begin(), bytes.end());
}

void FStoreJournal::reset() {
  std::lock_guard lock(mu_);
  log_.clear();
}

}  // namespace fstore

#include "dist/wire.hpp"

#include "util/error.hpp"

namespace meshpram::dist {

namespace {

/// Smallest possible encoded Packet (empty trail): 5×u64 + 3×u32 + 2×u8.
constexpr size_t kMinPacketBytes = 62;

/// Rejects an embedded element count that could not possibly fit in the
/// remaining bytes — before any reserve(), so a corrupt or hostile frame
/// costs a ConfigError instead of a multi-gigabyte allocation.
void check_count(const ByteReader& r, u32 count, size_t min_bytes,
                 const char* what) {
  MP_REQUIRE(static_cast<u64>(count) * min_bytes <= r.remaining(),
             what << ": implausible element count " << count << " ("
                  << r.remaining() << " byte(s) left)");
}

}  // namespace

void put_packet(ByteWriter& w, const Packet& p) {
  w.put_u64(p.key);
  w.put_u64(p.rank);
  w.put_u64(p.copy);
  w.put_i64(p.var);
  w.put_u32(static_cast<u32>(p.origin));
  w.put_u32(static_cast<u32>(p.dest));
  w.put_u32(static_cast<u32>(p.stash));
  w.put_i64(p.value);
  w.put_i64(p.timestamp);
  w.put_u8(static_cast<unsigned char>(p.op));
  w.put_u8(p.trail_len);
  for (int i = 0; i < p.trail_len; ++i) {
    w.put_u32(static_cast<u32>(p.trail[static_cast<size_t>(i)]));
  }
}

Packet get_packet(ByteReader& r) {
  Packet p;
  p.key = r.get_u64();
  p.rank = r.get_u64();
  p.copy = r.get_u64();
  p.var = r.get_i64();
  p.origin = static_cast<i32>(r.get_u32());
  p.dest = static_cast<i32>(r.get_u32());
  p.stash = static_cast<i32>(r.get_u32());
  p.value = r.get_i64();
  p.timestamp = r.get_i64();
  p.op = static_cast<Op>(r.get_u8());
  p.trail_len = r.get_u8();
  MP_REQUIRE(p.trail_len <= p.trail.size(), "packet trail length "
                                                << static_cast<int>(
                                                       p.trail_len));
  for (int i = 0; i < p.trail_len; ++i) {
    p.trail[static_cast<size_t>(i)] = static_cast<i32>(r.get_u32());
  }
  return p;
}

std::string encode_band_fills(Mesh& mesh, const RankBand& band) {
  std::string out;
  ByteWriter w(out);
  for (i64 node = band.node_begin; node < band.node_end; ++node) {
    const auto& b = mesh.buf(static_cast<i32>(node));
    w.put_u32(static_cast<u32>(b.size()));
    for (const Packet& p : b) {
      w.put_i64(p.value);
      w.put_i64(p.timestamp);
    }
  }
  return out;
}

void decode_band_fills(Mesh& mesh, const RankBand& band,
                       std::string_view frame) {
  ByteReader r(frame, "band fills");
  for (i64 node = band.node_begin; node < band.node_end; ++node) {
    auto& b = mesh.buf(static_cast<i32>(node));
    const u32 count = r.get_u32();
    MP_ASSERT(count == b.size(),
              "replicated buffer shape diverged at node " << node);
    for (Packet& p : b) {
      p.value = r.get_i64();
      p.timestamp = r.get_i64();
    }
  }
  r.expect_done();
}

std::string encode_boundary(const std::vector<BoundaryHop>& hops,
                            bool checksum) {
  std::string out;
  ByteWriter w(out);
  w.put_u8(checksum ? 1 : 0);
  w.put_u32(static_cast<u32>(hops.size()));
  for (const BoundaryHop& h : hops) {
    w.put_u32(static_cast<u32>(h.col));
    w.put_u32((static_cast<u32>(static_cast<u16>(h.dr)) << 16) |
              static_cast<u32>(static_cast<u16>(h.dc)));
    put_packet(w, h.payload);
  }
  if (checksum) w.put_u64(fnv1a64(out));
  return out;
}

std::vector<BoundaryHop> decode_boundary(std::string_view frame) {
  ByteReader r(frame, "boundary frame");
  const bool checksum = r.get_u8() != 0;
  const u32 count = r.get_u32();
  check_count(r, count, 8 + kMinPacketBytes, "boundary frame");
  std::vector<BoundaryHop> hops;
  hops.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    BoundaryHop h;
    h.col = static_cast<i32>(r.get_u32());
    const u32 rc = r.get_u32();
    h.dr = static_cast<i16>(static_cast<u16>(rc >> 16));
    h.dc = static_cast<i16>(static_cast<u16>(rc & 0xffffu));
    h.payload = get_packet(r);
    hops.push_back(h);
  }
  if (checksum) {
    const std::string_view body = frame.substr(0, r.pos());
    const u64 want = r.get_u64();
    MP_ASSERT(fnv1a64(body) == want,
              "boundary frame checksum mismatch (" << count << " hops)");
  }
  r.expect_done();
  return hops;
}

}  // namespace meshpram::dist

// Binary codecs for the frames the distributed machine exchanges.
//
// Three frame bodies, all little-endian via util/bytes.hpp:
//   packet       every Packet field in declaration order — the unit of the
//                boundary codec, and of validate mode's buffer digest;
//   fills        apply-phase read results of one band's nodes (replicated
//                fallback): per node ascending, u32 count + (value,
//                timestamp) pairs in buffer order;
//   boundary     the per-step boundary-lane hops of the distributed router:
//                u32 count + per hop (col, dr, dc, packet), with an FNV-1a
//                trailer so the validate mode can reject a mangled frame at
//                the receiving edge.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dist/partition.hpp"
#include "mesh/arena.hpp"
#include "mesh/machine.hpp"
#include "mesh/packet.hpp"
#include "util/bytes.hpp"

namespace meshpram::dist {

void put_packet(ByteWriter& w, const Packet& p);
Packet get_packet(ByteReader& r);

/// Encodes per-node (value, timestamp) of every buffered packet in `band`.
std::string encode_band_fills(Mesh& mesh, const RankBand& band);

/// Applies a fills frame onto `band`: buffer shapes must match (the packet
/// sets are replicated); only value/timestamp are overwritten.
void decode_band_fills(Mesh& mesh, const RankBand& band,
                       std::string_view frame);

/// Boundary frames carry BoundaryHop (mesh/arena.hpp): a packet leaving the
/// sender's band through a vertical link, deposited into the receiver's
/// incoming lane at column `col` of its edge row. The two i16 fields are the
/// packet's remaining offset (dr, dc) to its destination, counted from that
/// node. `checksum` appends the FNV-1a trailer (validate mode); decode
/// verifies it when present (flagged in the frame header).
std::string encode_boundary(const std::vector<BoundaryHop>& hops,
                            bool checksum);
std::vector<BoundaryHop> decode_boundary(std::string_view frame);

}  // namespace meshpram::dist

// Distributed greedy XY routing over the whole mesh (DESIGN.md §13.2).
//
// Each rank runs the routing loop of routing/greedy_band.hpp on its own row
// band with the rank exchange: a packet whose XY hop crosses a band edge
// (always a single vertical hop) travels to the neighbouring rank in a
// boundary frame instead of into a local lane, and lands in the lane the
// single-process router would have used. The per-step allreduce of
// delivered counts doubles as the lockstep barrier, so every rank executes
// the same number of steps. Results are bit-identical to the single-process
// router by the argument that makes a stripe team bit-identical to a team of
// one (per-node decisions depend only on per-node state; each lane has
// exactly one writer, here a message instead of a store; lanes drain by the
// node's row parity in the whole mesh).
#pragma once

#include "dist/collectives.hpp"
#include "dist/partition.hpp"
#include "mesh/machine.hpp"

namespace meshpram::dist {

struct DistRouteStats {
  i64 steps = 0;           ///< routing steps (identical on every rank)
  i64 boundary_hops = 0;   ///< packets this rank exported across band edges
  i64 boundary_bytes = 0;  ///< encoded boundary-frame bytes this rank sent
};

/// Routes every packet buffered in `rank`'s band of `mesh` to its
/// Packet::dest buffer, cooperating with the other ranks through `coll`'s
/// transport. All ranks must call this at the same point of the step
/// schedule. `validate` adds per-frame checksums and a per-step uniformity
/// check of (in-flight count, step number).
DistRouteStats dist_route_whole(Mesh& mesh, const RankPartition& part,
                                int rank, Collectives& coll, bool validate);

}  // namespace meshpram::dist

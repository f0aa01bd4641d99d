// XY (dimension-order) routing decisions and lane conventions shared by the
// greedy kernels: the serial loop and its two hop rules (greedy_serial.hpp,
// greedy.cpp, greedy_fault.cpp), the stripe team (greedy.cpp) and the rank
// bands (dist/route.cpp). They must agree on these exactly: the fault rule
// falls back to plain XY wherever no fault is in the way, and the
// fault-rate-0 parity tests compare the paths step for step.
#pragma once

#include "mesh/geometry.hpp"

namespace meshpram {

/// XY routing decision for a packet whose destination lies (dr, dc) away,
/// (dr, dc) != (0, 0): east/west until the column matches, then
/// south/north.
inline Dir xy_dir(int dr, int dc) {
  return dc > 0   ? Dir::East
         : dc < 0 ? Dir::West
         : dr > 0 ? Dir::South
                  : Dir::North;
}

/// Incoming lane of a packet that moved in direction d (indexed by Dir value
/// N,E,S,W): moved South = sent by the row above, etc. Lane numbering is
/// chosen so lanes 0..3 in order are the serial absorb's arrival order for an
/// east-going snake row; see kLaneOrder* below.
constexpr int kLaneOfMove[kNumDirs] = {/*North*/ 3, /*East*/ 1, /*South*/ 0,
                                       /*West*/ 2};

/// Absorb order over lanes, reproducing the serial path's arrival order: the
/// serial forward sweep visits source nodes in snake order, so a node's
/// arrivals come from the row above first (lane 0 = moved South), then the
/// same-row neighbors in the row's snake direction (on an east-going row the
/// west neighbor precedes the east neighbor, i.e. lane 1 = moved East before
/// lane 2 = moved West; reversed on west-going rows), then the row below
/// (lane 3 = moved North). Each source forwards at most one packet per
/// direction, so one slot per lane always suffices.
constexpr int kLaneOrderEast[kNumDirs] = {0, 1, 2, 3};
constexpr int kLaneOrderWest[kNumDirs] = {0, 2, 1, 3};

}  // namespace meshpram

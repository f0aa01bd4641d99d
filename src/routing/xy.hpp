// XY (dimension-order) routing decisions and lane conventions of the greedy
// routing loop (greedy_band.hpp) and its two hop rules (XyRule there,
// FaultRule in greedy_fault.cpp). The fault rule falls back to plain XY
// wherever no fault is in the way, and the fault-rate-0 parity tests compare
// the paths step for step.
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

/// Absorb order over lanes: the arrival order of one forward sweep over the
/// routing region in snake order. Such a sweep visits a node's row-above
/// neighbour first (lane 0 = moved South), then its same-row neighbours in
/// the row's snake direction (on an east-going row the west neighbour
/// precedes the east neighbour, i.e. lane 1 = moved East before lane 2 =
/// moved West; reversed on west-going rows), then the row below (lane 3 =
/// moved North). The row's direction is its parity within the routing
/// region, whatever band holds the row. Each source forwards at most one
/// packet per direction, so one slot per lane always suffices.
constexpr int kLaneOrderEast[kNumDirs] = {0, 1, 2, 3};
constexpr int kLaneOrderWest[kNumDirs] = {0, 2, 1, 3};

}  // namespace meshpram

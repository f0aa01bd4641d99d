// Deterministic transport-fault injection for the multi-process hub
// (DESIGN.md §15.4) — the PR 4 FaultPlan idea applied to the wire.
//
// A WireFaultPlan is a pure function of deterministic per-link frame indices:
// the hub counts the Data frames it routes per (from, to) pair and consults
// the plan before forwarding each one, so a given plan perturbs exactly the
// same frames on every run. Faults never corrupt bytes — a dropped or
// partitioned frame simply never arrives, which the receiving side converts
// into a recv-deadline TransportError, and the supervisor's recovery path
// (abort / respawn / restore / replay) takes it from there. That keeps the
// injector inside the system's own failure model: everything it can do is
// something a real network or a killed process can also do.
//
//   drop        the index-th from->to Data frame vanishes
//   delay       the index-th from->to Data frame is held for `ms`; later
//               frames of the link queue behind it (per-link FIFO)
//   partition   all Data frames between a pair vanish once the pair's
//               combined frame count reaches `after`
//   kill        the worker's connection is severed after it delivered
//               `after` Data frames (the process itself is killed by the
//               supervisor API; this models a cut cable)
//   seeded      `count` drops scattered over [0, horizon) per directed pair
//               by a seeded xoshiro stream (reproducible chaos)
//
// Frames bound for rank 0 (the coordinator) are never dropped or
// partitioned; delay rules index them by their own per-source count.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/math.hpp"

namespace meshpram::dist {

struct WireFaultPlan {
  struct Drop {
    int from = 0, to = 0;
    i64 index = 0;
  };
  struct Delay {
    int from = 0, to = 0;
    i64 index = 0;
    int ms = 0;
  };
  struct Partition {
    int a = 0, b = 0;
    i64 after = 0;
  };
  struct Kill {
    int rank = 0;
    i64 after = 0;
  };

  std::vector<Drop> drops;
  std::vector<Delay> delays;
  std::vector<Partition> partitions;
  std::vector<Kill> kills;

  bool empty() const {
    return drops.empty() && delays.empty() && partitions.empty() &&
           kills.empty();
  }

  // Builder surface for tests/benches.
  WireFaultPlan& drop_frame(int from, int to, i64 index);
  WireFaultPlan& delay_frame(int from, int to, i64 index, int ms);
  WireFaultPlan& partition_after(int a, int b, i64 after);
  WireFaultPlan& kill_after(int rank, i64 after);

  /// `count` seeded drops per directed rank pair over frame indices
  /// [0, horizon) — deterministic for a (seed, ranks) pair.
  static WireFaultPlan seeded_drops(u64 seed, int ranks, int count,
                                    i64 horizon);

  /// Parses the MESHPRAM_DIST_FAULT_PLAN spec: semicolon-separated
  /// `drop=F:T:I`, `delay=F:T:I:MS`, `part=A:B:AFTER`, `kill=R:AFTER`,
  /// `seed=SEED:COUNT:HORIZON` entries. Throws ConfigError on malformed
  /// input.
  static WireFaultPlan parse(const std::string& spec, int ranks);

  /// Should the index-th from->to Data frame be dropped (drop rule or active
  /// partition)?
  bool should_drop(int from, int to, i64 index, i64 pair_total) const;
  /// Hold duration for this frame, if any.
  std::optional<int> delay_ms(int from, int to, i64 index) const;
  /// Should `rank`'s connection be severed once it delivered `sent` frames?
  bool should_kill(int rank, i64 sent) const;
};

}  // namespace meshpram::dist

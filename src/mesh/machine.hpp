// The simulated mesh-connected computer.
//
// n = rows*cols processors; each has a packet buffer (requests currently held
// at the node) and a local copy store (its share of the distributed PRAM
// memory). Links are full-duplex, one word per direction per step; time is
// charged through StepCounter by the algorithms in src/routing.
//
// The simulator performs all data movement for real — a packet is physically
// appended to the destination node's buffer only when a simulated transfer
// happens — so congestion and queueing behaviour are emergent, not modeled.
//
// Buffer reuse contract: clear_buffers() and the per-node b.clear() calls in
// the protocol keep each buffer's heap capacity, so steady-state PRAM steps
// recycle the same allocations instead of hitting the allocator per phase.
// Thread-safety: concurrent access to DISJOINT node ids (buf/store) is safe;
// the parallel engine (mesh/parallel.hpp) relies on exactly that.
#pragma once

#include <atomic>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "mesh/arena.hpp"
#include "mesh/geometry.hpp"
#include "mesh/node_order.hpp"
#include "mesh/packet.hpp"
#include "mesh/region.hpp"
#include "mesh/step_counter.hpp"
#include "telemetry/counters.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

/// Commutative fault-event tally shared by all routing kernels of one PRAM
/// step (atomic adds only, so the totals are thread-count invariant). The
/// protocol drains it into FaultReport after the step's parallel work joins.
struct FaultTally {
  std::atomic<i64> retried{0};
  std::atomic<i64> dropped{0};
  std::atomic<i64> detoured{0};

  void reset() {
    retried.store(0, std::memory_order_relaxed);
    dropped.store(0, std::memory_order_relaxed);
    detoured.store(0, std::memory_order_relaxed);
  }
  /// Adds the tallied events to `report` and zeroes the tally.
  void drain_into(fault::FaultReport& report) {
    report.packets_retried += retried.exchange(0, std::memory_order_relaxed);
    report.packets_dropped += dropped.exchange(0, std::memory_order_relaxed);
    report.packets_detoured += detoured.exchange(0, std::memory_order_relaxed);
  }
};

/// One replicated copy held in a node's local memory: value + timestamp
/// (the majority/timestamp machinery of Gifford/Thomas/UW87, Def. 2).
struct CopySlot {
  i64 value = 0;
  i64 timestamp = -1;
};

/// A node's local copy memory: flat open-addressing hash table from copy id
/// to CopySlot (linear probing, power-of-two capacity). Replaces the previous
/// std::unordered_map<u64, CopySlot> — one contiguous allocation per node
/// instead of a heap node per copy, so the stage-1 access loop walks cache
/// lines, not pointers. Copies are only ever inserted or overwritten (the
/// protocol never deletes), which keeps probing tombstone-free.
class CopyStore {
 public:
  /// Slot for `key`, inserting a default CopySlot if absent.
  CopySlot& operator[](u64 key) {
    MP_REQUIRE(key != kEmptyKey, "copy id collides with the empty sentinel");
    if (entries_.empty() || 2 * (count_ + 1) > entries_.size()) grow();
    Entry& e = probe(key);
    if (e.key == kEmptyKey) {
      e.key = key;
      e.slot = CopySlot{};
      ++count_;
    }
    return e.slot;
  }

  /// Slot for `key`, or nullptr if the node holds no such copy.
  const CopySlot* find(u64 key) const {
    if (entries_.empty()) return nullptr;
    const Entry& e = probe(key);
    return e.key == kEmptyKey ? nullptr : &e.slot;
  }

  i64 size() const { return static_cast<i64>(count_); }
  bool empty() const { return count_ == 0; }

  /// Drops every held copy and releases the table. The distributed workers
  /// use this to shed foreign bands after restoring a full snapshot.
  void clear() {
    entries_.clear();
    count_ = 0;
  }

  /// Visits every held copy as f(key, slot), in hash-table order (arbitrary
  /// but complete). Serialization callers sort by key for canonical output.
  template <class F>
  void for_each(F&& f) const {
    for (const Entry& e : entries_) {
      if (e.key != kEmptyKey) f(e.key, e.slot);
    }
  }

 private:
  static constexpr u64 kEmptyKey = ~0ULL;

  struct Entry {
    u64 key = kEmptyKey;
    CopySlot slot;
  };

  static u64 mix(u64 x) {
    // splitmix64 finalizer: full-avalanche hash of the copy id.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  const Entry& probe(u64 key) const {
    const size_t mask = entries_.size() - 1;
    size_t i = static_cast<size_t>(mix(key)) & mask;
    while (entries_[i].key != kEmptyKey && entries_[i].key != key) {
      i = (i + 1) & mask;
    }
    return entries_[i];
  }

  Entry& probe(u64 key) {
    return const_cast<Entry&>(std::as_const(*this).probe(key));
  }

  void grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.empty() ? 16 : old.size() * 2, Entry{});
    for (const Entry& e : old) {
      if (e.key != kEmptyKey) probe(e.key) = e;
    }
  }

  std::vector<Entry> entries_;
  size_t count_ = 0;
};

class Mesh {
 public:
  /// `order` picks the physical layout of the per-node state arrays (buffers
  /// and copy stores); it is invisible to every logical observer (see
  /// mesh/node_order.hpp). Defaults to the process-wide node_order_default().
  explicit Mesh(int rows, int cols,
                NodeOrderKind order = node_order_default());

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  i64 size() const { return static_cast<i64>(rows_) * cols_; }
  Region whole() const { return Region(0, 0, rows_, cols_); }

  i32 node_id(Coord x) const {
    MP_REQUIRE(0 <= x.r && x.r < rows_ && 0 <= x.c && x.c < cols_,
               "coordinate " << x << " outside " << rows_ << 'x' << cols_);
    return x.r * cols_ + x.c;
  }

  Coord coord(i32 id) const {
    MP_REQUIRE(0 <= id && id < size(), "node id " << id);
    return {id / cols_, id % cols_};
  }

  /// Node id at snake position s of `region`.
  i32 node_at(const Region& region, i64 s) const {
    return node_id(region.at_snake(s));
  }

  /// Incremental snake-order walk of `region` yielding global node ids in
  /// O(1) per step — the hot-loop replacement for node_at(region, s).
  RegionCursor cursor(const Region& region) const {
    return RegionCursor(region, cols_);
  }

  std::vector<Packet>& buf(i32 id) {
    MP_REQUIRE(0 <= id && id < size(), "node id " << id);
    return bufs_[static_cast<size_t>(order_.slot_of(id))];
  }

  const std::vector<Packet>& buf(i32 id) const {
    MP_REQUIRE(0 <= id && id < size(), "node id " << id);
    return bufs_[static_cast<size_t>(order_.slot_of(id))];
  }

  CopyStore& store(i32 id) {
    MP_REQUIRE(0 <= id && id < size(), "node id " << id);
    return stores_[static_cast<size_t>(order_.slot_of(id))];
  }
  const CopyStore& store(i32 id) const {
    MP_REQUIRE(0 <= id && id < size(), "node id " << id);
    return stores_[static_cast<size_t>(order_.slot_of(id))];
  }

  /// The physical id <-> slot bijection of this mesh's per-node arrays.
  /// Per-node sweeps whose body is node-independent iterate slots (via
  /// for_each_node below) so consecutive work touches consecutive memory.
  const NodeOrder& order() const { return order_; }

  /// Runs fn(id) for every node, chunked over the execution pool in physical
  /// slot order. Legal whenever per-node work is disjoint and the caller's
  /// merges are commutative (the for_each_chunk contract): the set of nodes
  /// visited is the same, only the schedule changes with the layout.
  template <class F>
  void for_each_node(i64 min_grain, F&& fn) const;

  StepCounter& clock() { return clock_; }
  const StepCounter& clock() const { return clock_; }

  /// Per-node congestion counters, filled by the instrumented hot loops when
  /// telemetry sampling is on (all-zero otherwise). Same thread-safety rule
  /// as buf()/store(): disjoint nodes may be updated concurrently.
  telemetry::MeshCounters& counters() { return counters_; }
  const telemetry::MeshCounters& counters() const { return counters_; }

  /// Total packets currently buffered in `region`.
  i64 total_packets(const Region& region) const;
  /// Maximum per-node buffer occupancy in `region`.
  i64 max_load(const Region& region) const;

  /// Drops every buffered packet (copy stores are preserved). Buffer
  /// capacities are kept so steady-state steps reuse the allocations.
  void clear_buffers();
  /// Same, restricted to the nodes of `region`.
  void clear_buffers(const Region& region);

  /// Reusable flat transit arenas for route_greedy (mesh/arena.hpp). One
  /// lease per route call; pooled because parallel_for_regions runs several
  /// route calls concurrently. Makes Mesh non-copyable (the pool holds a
  /// mutex), which the rest of the system already assumed.
  ArenaPool& route_arenas() { return arenas_; }

  /// Installs a fault plan (non-owning; nullptr = fault-free). The plan must
  /// be immutable and outlive the mesh's use of it; with no plan (or an empty
  /// one) every hot path stays on the exact fault-free code.
  void set_fault_plan(const fault::FaultPlan* plan) {
    MP_REQUIRE(plan == nullptr ||
                   (plan->rows() == rows_ && plan->cols() == cols_),
               "fault plan sized for a different mesh");
    fault_plan_ = (plan != nullptr && plan->empty()) ? nullptr : plan;
  }
  const fault::FaultPlan* fault_plan() const { return fault_plan_; }

  /// Current PRAM step, fed to the plan's transient-fault schedules. Set by
  /// the access protocol at the top of each step.
  void set_fault_now(i64 pram_step) { fault_now_ = pram_step; }
  i64 fault_now() const { return fault_now_; }

  /// Fault events tallied by the routing kernels since the last drain.
  FaultTally& fault_tally() { return fault_tally_; }

  /// True when `id` is an alive processor (no plan = everything alive).
  bool node_alive(i32 id) const {
    return fault_plan_ == nullptr || !fault_plan_->node_dead(id);
  }

 private:
  int rows_;
  int cols_;
  NodeOrder order_;
  std::vector<std::vector<Packet>> bufs_;
  std::vector<CopyStore> stores_;
  StepCounter clock_;
  telemetry::MeshCounters counters_;
  ArenaPool arenas_;
  const fault::FaultPlan* fault_plan_ = nullptr;
  i64 fault_now_ = 0;
  FaultTally fault_tally_;
};

template <class F>
void Mesh::for_each_node(i64 min_grain, F&& fn) const {
  execution_pool().for_each_chunk(size(), min_grain, [&](i64 lo, i64 hi) {
    for (i64 slot = lo; slot < hi; ++slot) {
      fn(order_.id_of(static_cast<i32>(slot)));
    }
  });
}

}  // namespace meshpram

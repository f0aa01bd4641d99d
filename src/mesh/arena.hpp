// Flat, reusable transit storage for the routing loop.
//
// route_greedy used to allocate a vector-of-vectors of full Packets per call
// — two heap allocations per node per call and ~112 bytes moved per hop. The
// arena replaces that with three flat slabs, recycled across calls:
//
//   payload   in-flight Packets, written once at set-up (or when a hop enters
//             the band from a neighbouring band) and read once at delivery;
//             they never move while the packet is in transit.
//   queues    per-node transit queues of 8-byte TransitRec (payload handle +
//             remaining offset), laid out strided: node `pos`'s queue lives
//             at [pos*cap, pos*cap + count[pos]). The loop walks records, not
//             Packets.
//   lanes     per-node incoming mailboxes, one slot per direction of motion.
//             A node receives at most one packet per incoming link per step
//             (each neighbor forwards at most one packet per outgoing
//             direction), so four slots suffice, and each lane has exactly
//             one writer: the neighbour on that side, or the band's exchange
//             for the lane a hop from the neighbouring band lands in.
//
// Ownership/reuse contract: one arena holds one band of one route call — a
// whole routing region for a team of one, one row band of it in a stripe
// team or on a rank. Arenas are leased from Mesh::route_arenas() for the
// duration of the call and returned to the pool afterwards, keeping their
// heap capacity. Pooling (rather than one arena on the Mesh) is required
// because parallel_for_regions runs several route calls at once and a stripe
// team leases one arena per band.
#pragma once

#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "mesh/geometry.hpp"
#include "mesh/node_order.hpp"
#include "mesh/packet.hpp"
#include "mesh/region.hpp"
#include "util/error.hpp"

namespace meshpram {

/// Entry of the routing loop's active lists: a snake position with its
/// coordinate cached, so the per-step loops never re-derive (r, c) from the
/// position. 8 bytes.
struct ActiveNode {
  i32 pos;
  i16 r;
  i16 c;
};

/// A packet in transit: handle into RouteArena::payload plus the remaining
/// offset (dr, dc) from the node that holds the record to the packet's
/// destination, written at set-up and updated by every hop. The record's
/// direction and distance are then two register-width reads. 8 bytes — a
/// queue scan touches 14x less memory than moving Packets.
struct TransitRec {
  u32 handle;
  i16 dr;
  i16 dc;
};
static_assert(sizeof(TransitRec) == 8, "TransitRec must stay one word");

/// A hop that leaves its band through the top or bottom edge: it lands at
/// column `col` of the neighbouring band's edge row, with the remaining
/// offset (dr, dc) counted from that node. Stripe teams pass it in memory,
/// rank bands as a boundary frame (dist/wire.hpp).
struct BoundaryHop {
  i32 col = 0;
  i16 dr = 0;
  i16 dc = 0;
  Packet payload;
};

class RouteArena {
 public:
  /// Tombstone handle used by the loop's mark-and-compact commit.
  static constexpr u32 kInvalidHandle = ~0u;

  /// Starts a new route call over `region`: clears the payload and setup
  /// scratch, zeroes queue counts and lane flags. Capacities of all slabs are
  /// kept (reuse contract). `order` picks the physical placement of the
  /// per-node queue/lane blocks: under Hilbert the blocks follow the same
  /// curve as the mesh's node state, so neighboring nodes' transit queues
  /// share cache lines at every tessellation level. Purely physical — every
  /// accessor below still takes snake positions.
  void reset(const Region& region, NodeOrderKind order) {
    nodes_ = region.size();
    payload.clear();
    setup_rec.clear();
    setup_pos.clear();
    build_slot_map(region, order);
    count_.assign(static_cast<size_t>(nodes_), 0);
    in_rec_.resize(static_cast<size_t>(nodes_) * kNumDirs);
    in_full_.assign(static_cast<size_t>(nodes_) * kNumDirs, 0);
    arrival_mark.assign(static_cast<size_t>(nodes_), 0);
    in_frontier.assign(static_cast<size_t>(nodes_), 0);
    frontier.clear();
    frontier_next.clear();
    arrivals.clear();
  }

  /// Sizes the strided queue slab for `cap` records per node. Contents are
  /// garbage until scattered into; counts must be (re)filled by the caller.
  void layout(i64 cap) {
    MP_ASSERT(cap >= kNumDirs, "queue capacity " << cap);
    cap_ = cap;
    rec_.resize(static_cast<size_t>(nodes_) * static_cast<size_t>(cap));
  }

  /// Grows every queue to `new_cap` records in place, preserving contents.
  /// Walks physical slots back-to-front so the strided moves never overlap.
  void grow(i64 new_cap) {
    MP_ASSERT(new_cap > cap_, "arena grow to " << new_cap);
    rec_.resize(static_cast<size_t>(nodes_) * static_cast<size_t>(new_cap));
    for (i64 slot = nodes_ - 1; slot > 0; --slot) {
      const i32 cnt = count_[static_cast<size_t>(slot)];
      if (cnt > 0) {
        std::memmove(rec_.data() + slot * new_cap, rec_.data() + slot * cap_,
                     static_cast<size_t>(cnt) * sizeof(TransitRec));
      }
    }
    cap_ = new_cap;
  }

  i64 cap() const { return cap_; }
  TransitRec* queue(i64 pos) { return rec_.data() + slot(pos) * cap_; }
  i32& count(i64 pos) { return count_[static_cast<size_t>(slot(pos))]; }

  /// Slot-addressed variants for hot loops: under a curve order every
  /// position-addressed accessor above pays a pos→slot table load, so the
  /// loop translates each position once and addresses the per-node arrays
  /// by slot from then on. Lanes are addressed by slot only.
  i64 slot_of(i64 pos) const { return slot(pos); }
  TransitRec* queue_at(i64 s) { return rec_.data() + s * cap_; }
  i32& count_at(i64 s) { return count_[static_cast<size_t>(s)]; }
  TransitRec& lane_rec_at(i64 s, int lane) {
    return in_rec_[static_cast<size_t>(s * kNumDirs + lane)];
  }
  unsigned char* lane_flags_at(i64 s) {
    return in_full_.data() + s * kNumDirs;
  }

  /// In-flight packets, appended at setup; stable until the call completes.
  std::vector<Packet> payload;
  /// Setup scratch: records and their node positions in discovery (snake)
  /// order, scattered into the strided queues once the capacity is known.
  std::vector<TransitRec> setup_rec;
  std::vector<i64> setup_pos;

  /// The loop's active lists (routing/greedy_band.hpp): nodes with a
  /// non-empty transit queue, nodes that received a lane deposit this step,
  /// and their membership bytes (indexed by snake position).
  std::vector<ActiveNode> frontier;
  std::vector<ActiveNode> frontier_next;
  std::vector<ActiveNode> arrivals;
  std::vector<unsigned char> arrival_mark;
  std::vector<unsigned char> in_frontier;

 private:
  i64 slot(i64 pos) const {
    return pos_slot_.empty() ? pos : pos_slot_[static_cast<size_t>(pos)];
  }

  /// Physical slot of each snake position under `order`, cached per region
  /// geometry (route calls repeat the same tessellation extents constantly).
  void build_slot_map(const Region& region, NodeOrderKind order) {
    if (order == NodeOrderKind::RowMajor) {
      pos_slot_.clear();
      curve_rows_ = curve_cols_ = 0;
      return;
    }
    if (curve_rows_ == region.rows() && curve_cols_ == region.cols()) return;
    curve_rows_ = region.rows();
    curve_cols_ = region.cols();
    std::vector<i32> id_at_slot;
    fill_curve_order(curve_rows_, curve_cols_, order, id_at_slot);
    pos_slot_.assign(id_at_slot.size(), 0);
    const int cols = curve_cols_;
    for (size_t s = 0; s < id_at_slot.size(); ++s) {
      const i32 rm = id_at_slot[s];
      const int r = rm / cols, c = rm % cols;
      const i64 pos =
          static_cast<i64>(r) * cols + ((r & 1) == 0 ? c : cols - 1 - c);
      pos_slot_[static_cast<size_t>(pos)] = static_cast<i32>(s);
    }
  }

  i64 nodes_ = 0;
  i64 cap_ = 0;
  int curve_rows_ = 0;
  int curve_cols_ = 0;
  std::vector<i32> pos_slot_;
  std::vector<TransitRec> rec_;
  std::vector<i32> count_;
  std::vector<TransitRec> in_rec_;
  std::vector<unsigned char> in_full_;
};

/// Mutex-guarded free list of RouteArenas. Leases are per band of a route
/// call; the pool never shrinks (at most one arena per concurrently routed
/// band, i.e. per pool thread or rank).
class ArenaPool {
 public:
  /// One band's arena for the duration of a route call.
  class Lease {
   public:
    explicit Lease(ArenaPool& pool) : pool_(pool), arena_(pool.acquire()) {}
    ~Lease() { pool_.release(arena_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    RouteArena& operator*() const { return *arena_; }

   private:
    ArenaPool& pool_;
    RouteArena* arena_;
  };

  RouteArena* acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      all_.push_back(std::make_unique<RouteArena>());
      return all_.back().get();
    }
    RouteArena* a = free_.back();
    free_.pop_back();
    return a;
  }

  void release(RouteArena* a) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(a);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<RouteArena>> all_;
  std::vector<RouteArena*> free_;
};

}  // namespace meshpram

// Socket transports for multi-process ranks (DESIGN.md §15).
//
// Topology is a hub-and-spoke star matching the collectives (collectives.hpp
// already routes every collective through rank 0): the coordinator process
// (rank 0) owns a SocketHub with one unix-domain or TCP listener; each worker
// process holds exactly one connection to the hub and reaches every peer
// through it. Relaying keeps the Transport FIFO contract for free — the
// (a -> hub -> b) path is fixed and the hub forwards each connection's frames
// in arrival order — and gives one chokepoint where liveness, epochs and the
// wire-fault injector all live.
//
// Failure handling, bottom-up:
//  * Workers ping the hub (Heartbeat frames) whenever their socket is
//    otherwise idle; the hub marks a peer dead after `peer_deadline_ms` of
//    silence — catching hung processes, not just dead ones.
//  * Every blocking receive (hub and worker side) is bounded by
//    `recv_deadline_ms`; expiry becomes a typed TransportError instead of a
//    permanent block, so a lost frame (crash, drop, partition) always
//    surfaces as an exception the supervisor can recover from.
//  * Data frames carry an epoch. Recovery bumps it, so frames from an
//    aborted step die at the first filter (hub or endpoint) they touch
//    rather than corrupting the replayed stream.
//
// The nonblocking-I/O idioms (partial read/write loops, EINTR/EAGAIN
// handling, FrameBuffer reassembly) mirror serve/net_server.cpp; worker-side
// sockets stay blocking with poll()-bounded waits, like serve/net_client.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/proc_wire.hpp"
#include "dist/transport.hpp"
#include "dist/wire_fault.hpp"
#include "serve/api.hpp"

namespace meshpram::dist {

/// Thrown out of WorkerTransport::recv when the coordinator aborts the
/// in-flight step (recovery). The worker replies AbortAck and awaits Init.
class AbortSignal : public TransportError {
 public:
  explicit AbortSignal(u32 epoch)
      : TransportError("step aborted by coordinator"), epoch(epoch) {}
  u32 epoch;
};

/// Thrown when the coordinator orders a clean exit or its connection closed:
/// the worker process must terminate, not recover.
class ShutdownSignal : public TransportError {
 public:
  explicit ShutdownSignal(const std::string& what) : TransportError(what) {}
};

/// Knobs of the process transport; zero/empty fields resolve from env.
struct SocketConfig {
  /// "unix" | "tcp"; empty consults MESHPRAM_DIST_TRANSPORT (default unix).
  std::string transport;
  /// Worker ping cadence while idle; 0 consults MESHPRAM_DIST_HEARTBEAT_MS
  /// (default 250).
  int heartbeat_ms = 0;
  /// Silence after which the hub declares a peer dead; 0 consults
  /// MESHPRAM_DIST_DEADLINE_MS (default 30000).
  int peer_deadline_ms = 0;
  /// Bound on every blocking in-step receive; 0 consults
  /// MESHPRAM_DIST_RECV_DEADLINE_MS (default 30000).
  int recv_deadline_ms = 0;
  /// Wire-fault injector; merged with MESHPRAM_DIST_FAULT_PLAN when empty.
  WireFaultPlan fault;
};

/// Fills unset fields from the environment (util/env) and validates.
SocketConfig resolve_socket_config(SocketConfig config, int ranks);

/// The coordinator-side message switch: listener + one connection per worker
/// rank + a pump thread that routes frames, tracks liveness and applies the
/// wire-fault plan. All public methods are thread-safe.
class SocketHub {
 public:
  /// Binds the listener and starts the pump. `config` must be resolved.
  SocketHub(int ranks, SocketConfig config);
  ~SocketHub();
  SocketHub(const SocketHub&) = delete;
  SocketHub& operator=(const SocketHub&) = delete;

  int ranks() const { return ranks_; }
  /// Rendezvous address workers dial: "unix:<path>" or "tcp:<host>:<port>".
  const std::string& address() const { return address_; }
  /// Attach secret; workers echo it in Hello.
  u64 token() const { return token_; }
  u32 epoch() const;

  // -- Rank 0 Transport surface (wrapped by HubTransport).
  void send_local(int to, std::string frame);
  std::string recv_local(int from);
  TransportStats stats() const;

  // -- Control plane.
  void send_ctrl(int to, std::string body);
  /// Next Ctrl body from `from` (op byte first). Throws TransportError on
  /// timeout, or on any pending peer failure outside recovery mode.
  std::string recv_ctrl(int from, int timeout_ms);

  bool attached(int rank) const;
  void wait_attached(int rank, int timeout_ms);

  // -- Failure and recovery.
  /// Enters recovery mode: bumps the epoch, clears every inbox, clears the
  /// pending-failure flag and stops converting new failures into exceptions
  /// (the supervisor is now handling them). Returns the new epoch.
  u32 begin_recovery();
  void end_recovery();
  /// Ranks with no live connection ("" reason = never attached).
  std::vector<std::pair<int, std::string>> down_ranks() const;
  /// Severs `rank`'s connection (supervisor gave up on it).
  void detach(int rank);

 private:
  struct Peer {
    int fd = -1;
    serve::FrameBuffer in;
    std::string out;
    size_t out_off = 0;
    std::string down_reason = "never attached";
    std::chrono::steady_clock::time_point last_seen{};
    i64 data_sent = 0;  ///< Data frames this worker delivered (fault kills)
  };
  struct Pending {  ///< accepted, Hello not yet seen
    int fd = -1;
    serve::FrameBuffer in;
  };
  struct Delayed {
    std::chrono::steady_clock::time_point release;
    int from = 0;
    int to = 0;
    std::string bytes;  ///< packed frame, or the bare body when `to` is 0
  };

  void pump();
  void handle_frame(int rank, const std::string& payload);
  void route_data(const TaggedFrame& f);
  /// Hands the index-th from->to Data frame on, or holds it while its delay
  /// rule or an earlier held frame of the same link says so: latency never
  /// reorders a link.
  void forward_locked(int from, int to, i64 index, std::string bytes);
  /// Rank 0's inbox for frames to rank 0, the peer's outbox otherwise.
  void deliver_locked(int from, int to, std::string bytes);
  void mark_down_locked(int rank, const std::string& reason);
  void fail_locked(const std::string& diagnosis);
  void queue_to_locked(int rank, std::string bytes);
  void wake_pump();
  void close_all();

  const int ranks_;
  SocketConfig config_;  ///< fault rules are consumed as they fire
  std::string address_;
  std::string unix_path_;  ///< owned rendezvous file (unlinked on close)
  u64 token_ = 0;
  int listen_fd_ = -1;
  int wake_fd_[2] = {-1, -1};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Peer> peers_;        ///< index = rank (slot 0 unused)
  std::vector<Pending> pending_;
  std::vector<std::deque<std::string>> inbox_data_;  ///< frames for rank 0
  std::vector<std::deque<std::string>> inbox_ctrl_;
  std::vector<Delayed> delayed_;
  std::vector<i64> pair_count_;  ///< routed Data frames per (from, to)
  /// Data frames to rank 0 per source: indexes delay rules only, since drop
  /// and partition rules never touch rank 0's inbound frames.
  std::vector<i64> to_hub_count_;
  u32 epoch_ = 0;
  bool recovering_ = false;
  std::string failure_;  ///< first pending failure diagnosis ("" = healthy)
  bool stop_ = false;
  TransportStats stats_;
  std::thread pump_thread_;
};

/// Rank 0's Transport endpoint over the hub.
class HubTransport final : public Transport {
 public:
  explicit HubTransport(SocketHub& hub) : hub_(hub) {}

  int rank() const override { return 0; }
  int ranks() const override { return hub_.ranks(); }
  void send(int to, std::string frame) override {
    stats_.messages_sent += 1;
    stats_.bytes_sent += static_cast<i64>(frame.size());
    hub_.send_local(to, std::move(frame));
  }
  std::string recv(int from) override {
    std::string frame = hub_.recv_local(from);
    stats_.messages_received += 1;
    stats_.bytes_received += static_cast<i64>(frame.size());
    return frame;
  }
  const TransportStats& stats() const override { return stats_; }

 private:
  SocketHub& hub_;
  TransportStats stats_;
};

struct WorkerOptions {
  std::string address;  ///< hub rendezvous (SocketHub::address format)
  int rank = 0;
  int ranks = 0;
  u64 token = 0;
  int heartbeat_ms = 250;
  int recv_deadline_ms = 30000;
  int connect_attempts = 80;
  int connect_backoff_ms = 25;
};

/// A worker process's Transport endpoint: one blocking socket to the hub
/// with poll()-bounded waits. A dedicated heartbeat thread keeps pinging the
/// hub every `heartbeat_ms` even while the worker thread is deep in compute —
/// busy must not read as dead (a SIGSTOP'd process freezes that thread too,
/// so genuine hangs still trip the hub's deadline). Frame writes are
/// serialized by a mutex so heartbeats never interleave with data frames;
/// the receive side is still owned by the single worker thread.
class WorkerTransport final : public Transport {
 public:
  /// Dials the hub (retry with linear backoff — the coordinator may still be
  /// binding) and attaches with Hello.
  explicit WorkerTransport(const WorkerOptions& opts);
  ~WorkerTransport();

  int rank() const override { return opts_.rank; }
  int ranks() const override { return opts_.ranks; }
  void send(int to, std::string frame) override;
  /// Blocks for a Data frame from `from` under the recv deadline. Throws
  /// AbortSignal / ShutdownSignal when the coordinator interrupts the step,
  /// TransportError on deadline expiry or a lost connection.
  std::string recv(int from) override;
  const TransportStats& stats() const override { return stats_; }

  /// Next Ctrl body from the coordinator; no deadline (an idle worker waits
  /// for its next command indefinitely; a dead coordinator is an EOF).
  std::string recv_ctrl();
  void send_ctrl(std::string body);

  u32 epoch() const { return epoch_; }
  void set_epoch(u32 e) { epoch_ = e; }
  /// Drops every buffered Data frame (stale after an abort).
  void clear_inboxes();

 private:
  /// Writes one whole frame under `send_mu_` — the worker thread and the
  /// heartbeat thread share the socket's write side.
  void write_frame(const std::string& bytes);
  /// Pumps the socket until `until` or until `done` returns true; parses
  /// arriving frames into the inboxes. `until` of time_point::max() waits
  /// forever. Liveness while blocked here is the heartbeat thread's job.
  template <class Done>
  bool pump(std::chrono::steady_clock::time_point until, Done done);
  void dispatch(const std::string& payload);
  /// Consumes a queued Abort/Shutdown, converting it into its signal.
  void raise_pending_ctrl_interrupt();
  bool has_ctrl_interrupt() const;
  void heartbeat_loop();

  WorkerOptions opts_;
  int fd_ = -1;
  serve::FrameBuffer in_;
  std::vector<std::deque<std::string>> inbox_data_;
  std::deque<std::string> inbox_ctrl_;
  u32 epoch_ = 0;
  std::mutex send_mu_;  ///< serializes whole frames onto the socket
  std::chrono::steady_clock::time_point last_send_;  ///< guarded by send_mu_
  std::thread heartbeat_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;  ///< guarded by hb_mu_
  TransportStats stats_;
};

}  // namespace meshpram::dist

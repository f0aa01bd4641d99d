#include "dist/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/env.hpp"
#include "util/error.hpp"

namespace meshpram::dist {

namespace {

using Clock = std::chrono::steady_clock;

int resolve_ms(int value, const char* env, int fallback) {
  if (value > 0) return value;
  return static_cast<int>(env_i64(env, 1, 3600 * 1000).value_or(fallback));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MP_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             "fcntl(O_NONBLOCK): " << std::strerror(errno));
}

u64 fresh_token() {
  static std::atomic<u64> counter{1};
  u64 state = static_cast<u64>(::getpid()) ^
              static_cast<u64>(Clock::now().time_since_epoch().count()) ^
              (counter.fetch_add(1) << 48);
  // splitmix64 finalizer, matching the tree's other mixers.
  state += 0x9e3779b97f4a7c15ULL;
  state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9ULL;
  state = (state ^ (state >> 27)) * 0x94d049bb133111ebULL;
  return state ^ (state >> 31);
}

int dial(const std::string& address) {
  int fd = -1;
  if (address.rfind("unix:", 0) == 0) {
    const std::string path = address.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    MP_REQUIRE(path.size() < sizeof addr.sun_path,
               "unix socket path too long: " << path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    MP_REQUIRE(fd >= 0, "socket(AF_UNIX): " << std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  MP_REQUIRE(address.rfind("tcp:", 0) == 0,
             "unknown transport address: " << address);
  const std::string rest = address.substr(4);
  const size_t colon = rest.rfind(':');
  MP_REQUIRE(colon != std::string::npos, "tcp address without port: "
                                             << address);
  const std::string host = rest.substr(0, colon);
  const int port = std::stoi(rest.substr(colon + 1));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  MP_REQUIRE(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
             "bad tcp host: " << host);
  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MP_REQUIRE(fd >= 0, "socket(AF_INET): " << std::strerror(errno));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

SocketConfig resolve_socket_config(SocketConfig config, int ranks) {
  if (config.transport.empty()) {
    config.transport = env_str("MESHPRAM_DIST_TRANSPORT").value_or("unix");
  }
  MP_REQUIRE(config.transport == "unix" || config.transport == "tcp",
             "MESHPRAM_DIST_TRANSPORT must be unix or tcp, got '"
                 << config.transport << '\'');
  config.heartbeat_ms =
      resolve_ms(config.heartbeat_ms, "MESHPRAM_DIST_HEARTBEAT_MS", 250);
  config.peer_deadline_ms =
      resolve_ms(config.peer_deadline_ms, "MESHPRAM_DIST_DEADLINE_MS", 30000);
  config.recv_deadline_ms = resolve_ms(config.recv_deadline_ms,
                                       "MESHPRAM_DIST_RECV_DEADLINE_MS",
                                       30000);
  if (config.fault.empty()) {
    if (const auto spec = env_str("MESHPRAM_DIST_FAULT_PLAN")) {
      config.fault = WireFaultPlan::parse(*spec, ranks);
    }
  }
  return config;
}

// ---------------------------------------------------------------- SocketHub

SocketHub::SocketHub(int ranks, SocketConfig config)
    : ranks_(ranks), config_(std::move(config)), token_(fresh_token()) {
  MP_REQUIRE(ranks_ >= 1, "SocketHub needs at least one rank");
  peers_.resize(static_cast<size_t>(ranks_));
  inbox_data_.resize(static_cast<size_t>(ranks_));
  inbox_ctrl_.resize(static_cast<size_t>(ranks_));
  pair_count_.assign(static_cast<size_t>(ranks_) * ranks_, 0);
  to_hub_count_.assign(static_cast<size_t>(ranks_), 0);

  if (config_.transport == "unix") {
    static std::atomic<u64> counter{0};
    unix_path_ = "/tmp/meshpram-hub-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1)) + ".sock";
    ::unlink(unix_path_.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    MP_REQUIRE(unix_path_.size() < sizeof addr.sun_path,
               "unix socket path too long: " << unix_path_);
    std::strncpy(addr.sun_path, unix_path_.c_str(), sizeof addr.sun_path - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    MP_REQUIRE(listen_fd_ >= 0, "socket(AF_UNIX): " << std::strerror(errno));
    MP_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) == 0,
               "bind(" << unix_path_ << "): " << std::strerror(errno));
    address_ = "unix:" + unix_path_;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    MP_REQUIRE(listen_fd_ >= 0, "socket(AF_INET): " << std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    MP_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) == 0,
               "bind(127.0.0.1): " << std::strerror(errno));
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    MP_REQUIRE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "getsockname: " << std::strerror(errno));
    address_ = "tcp:127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
  }
  MP_REQUIRE(::listen(listen_fd_, 64) == 0,
             "listen: " << std::strerror(errno));
  set_nonblocking(listen_fd_);
  MP_REQUIRE(::pipe(wake_fd_) == 0, "pipe: " << std::strerror(errno));
  set_nonblocking(wake_fd_[0]);
  set_nonblocking(wake_fd_[1]);
  pump_thread_ = std::thread([this] { pump(); });
}

SocketHub::~SocketHub() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  wake_pump();
  if (pump_thread_.joinable()) pump_thread_.join();
  close_all();
}

void SocketHub::close_all() {
  for (Peer& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
  }
  for (Pending& p : pending_) {
    if (p.fd >= 0) ::close(p.fd);
  }
  pending_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (wake_fd_[0] >= 0) ::close(wake_fd_[0]);
  if (wake_fd_[1] >= 0) ::close(wake_fd_[1]);
  wake_fd_[0] = wake_fd_[1] = -1;
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void SocketHub::wake_pump() {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_[1], &byte, 1);
}

u32 SocketHub::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

TransportStats SocketHub::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool SocketHub::attached(int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_[static_cast<size_t>(rank)].fd >= 0;
}

void SocketHub::wait_attached(int rank, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const bool ok = cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&] { return peers_[static_cast<size_t>(rank)].fd >= 0 || stop_; });
  if (stop_) throw TransportError("hub shut down");
  if (!ok) {
    throw TransportError("rank " + std::to_string(rank) +
                         " did not attach within " +
                         std::to_string(timeout_ms) + "ms");
  }
}

std::vector<std::pair<int, std::string>> SocketHub::down_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int, std::string>> out;
  for (int r = 1; r < ranks_; ++r) {
    const Peer& p = peers_[static_cast<size_t>(r)];
    if (p.fd < 0) out.emplace_back(r, p.down_reason);
  }
  return out;
}

void SocketHub::detach(int rank) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    mark_down_locked(rank, "detached by supervisor");
  }
  wake_pump();
}

u32 SocketHub::begin_recovery() {
  std::lock_guard<std::mutex> lock(mu_);
  recovering_ = true;
  ++epoch_;
  for (auto& q : inbox_data_) q.clear();
  for (auto& q : inbox_ctrl_) q.clear();
  delayed_.clear();
  failure_.clear();
  // Transient partitions heal across a recovery: once a partition rule has
  // fired (its threshold was crossed), the recovered run proceeds without it
  // — otherwise a permanent partition would just exhaust max_recoveries.
  auto& parts = config_.fault.partitions;
  parts.erase(std::remove_if(parts.begin(), parts.end(),
                             [&](const WireFaultPlan::Partition& p) {
                               const size_t ab =
                                   static_cast<size_t>(p.a) * ranks_ + p.b;
                               const size_t ba =
                                   static_cast<size_t>(p.b) * ranks_ + p.a;
                               return pair_count_[ab] + pair_count_[ba] >=
                                      p.after;
                             }),
              parts.end());
  cv_.notify_all();
  return epoch_;
}

void SocketHub::end_recovery() {
  std::lock_guard<std::mutex> lock(mu_);
  recovering_ = false;
}

void SocketHub::fail_locked(const std::string& diagnosis) {
  if (failure_.empty()) failure_ = diagnosis;
  cv_.notify_all();
}

void SocketHub::mark_down_locked(int rank, const std::string& reason) {
  Peer& p = peers_[static_cast<size_t>(rank)];
  if (p.fd >= 0) {
    ::close(p.fd);
    p.fd = -1;
  }
  p.in.clear();
  p.out.clear();
  p.out_off = 0;
  p.down_reason = reason;
  if (!recovering_) {
    fail_locked("rank " + std::to_string(rank) + " down: " + reason);
  }
  cv_.notify_all();
}

void SocketHub::queue_to_locked(int rank, std::string bytes) {
  Peer& p = peers_[static_cast<size_t>(rank)];
  if (p.fd < 0) return;  // stale traffic to a dead rank; recovery handles it
  stats_.messages_sent += 1;
  stats_.bytes_sent += static_cast<i64>(bytes.size());
  if (p.out_off > 0 && p.out.empty()) p.out_off = 0;
  p.out.append(bytes);
}

void SocketHub::send_local(int to, std::string frame) {
  MP_REQUIRE(to != 0 && to < ranks_, "send_local to rank " << to);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!failure_.empty() && !recovering_) throw TransportError(failure_);
    Peer& p = peers_[static_cast<size_t>(to)];
    if (p.fd < 0) {
      throw TransportError("rank " + std::to_string(to) +
                           " down: " + p.down_reason);
    }
    const size_t pair = static_cast<size_t>(to);  // from=0: index 0*R+to
    const i64 index = pair_count_[pair]++;
    const i64 pair_total =
        pair_count_[pair] + pair_count_[static_cast<size_t>(to) * ranks_];
    if (config_.fault.should_drop(0, to, index, pair_total)) {
      wake_pump();
      return;
    }
    forward_locked(0, to, index,
                   pack_frame(FrameKind::Data, 0, to, epoch_, frame));
  }
  wake_pump();
}

std::string SocketHub::recv_local(int from) {
  std::unique_lock<std::mutex> lock(mu_);
  auto& inbox = inbox_data_[static_cast<size_t>(from)];
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.recv_deadline_ms);
  cv_.wait_until(lock, deadline, [&] {
    return stop_ || !inbox.empty() || (!failure_.empty() && !recovering_);
  });
  if (!inbox.empty()) {
    std::string frame = std::move(inbox.front());
    inbox.pop_front();
    return frame;
  }
  if (stop_) throw TransportError("hub shut down");
  if (!failure_.empty() && !recovering_) throw TransportError(failure_);
  throw TransportError("rank 0 recv deadline (" +
                       std::to_string(config_.recv_deadline_ms) +
                       "ms) waiting for rank " + std::to_string(from));
}

void SocketHub::send_ctrl(int to, std::string body) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Peer& p = peers_[static_cast<size_t>(to)];
    if (p.fd < 0) {
      throw TransportError("rank " + std::to_string(to) +
                           " down: " + p.down_reason);
    }
    queue_to_locked(to, pack_frame(FrameKind::Ctrl, 0, to, 0, body));
  }
  wake_pump();
}

std::string SocketHub::recv_ctrl(int from, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  auto& inbox = inbox_ctrl_[static_cast<size_t>(from)];
  const Peer& p = peers_[static_cast<size_t>(from)];
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  cv_.wait_until(lock, deadline, [&] {
    return stop_ || !inbox.empty() || p.fd < 0 ||
           (!failure_.empty() && !recovering_);
  });
  if (!inbox.empty()) {
    std::string body = std::move(inbox.front());
    inbox.pop_front();
    return body;
  }
  if (stop_) throw TransportError("hub shut down");
  if (!failure_.empty() && !recovering_) throw TransportError(failure_);
  if (p.fd < 0) {
    // A dead peer cannot reply; fail fast instead of burning the timeout
    // (recovery waits on acks from ranks that may just have died).
    throw TransportError("rank " + std::to_string(from) +
                         " down: " + p.down_reason);
  }
  throw TransportError("control deadline (" + std::to_string(timeout_ms) +
                       "ms) waiting for rank " + std::to_string(from));
}

void SocketHub::route_data(const TaggedFrame& f) {
  stats_.messages_received += 1;
  stats_.bytes_received += static_cast<i64>(f.body.size());
  if (f.epoch != epoch_) return;  // stale incarnation
  if (f.to == 0) {
    // Never dropped (a lost frame to the coordinator would only add a second
    // recv deadline); delays still apply, indexed per source.
    forward_locked(f.from, 0, to_hub_count_[static_cast<size_t>(f.from)]++,
                   f.body);
    return;
  }
  if (f.to < 0 || f.to >= ranks_) return;
  const size_t pair =
      static_cast<size_t>(f.from) * ranks_ + static_cast<size_t>(f.to);
  const i64 index = pair_count_[pair]++;
  const i64 pair_total =
      pair_count_[pair] +
      pair_count_[static_cast<size_t>(f.to) * ranks_ +
                  static_cast<size_t>(f.from)];
  if (config_.fault.should_drop(f.from, f.to, index, pair_total)) return;
  forward_locked(f.from, f.to, index,
                 pack_frame(FrameKind::Data, f.from, f.to, f.epoch, f.body));
}

void SocketHub::forward_locked(int from, int to, i64 index,
                               std::string bytes) {
  // Held frames of one link keep non-decreasing release times in delayed_'s
  // insertion order, so the release sweep hands them on in link order.
  Clock::time_point release{};
  for (const Delayed& d : delayed_) {
    if (d.from == from && d.to == to) release = std::max(release, d.release);
  }
  if (const auto ms = config_.fault.delay_ms(from, to, index)) {
    release = std::max(release, Clock::now() + std::chrono::milliseconds(*ms));
  }
  if (release == Clock::time_point{}) {
    deliver_locked(from, to, std::move(bytes));
  } else {
    delayed_.push_back({release, from, to, std::move(bytes)});
  }
}

void SocketHub::deliver_locked(int from, int to, std::string bytes) {
  if (to == 0) {
    inbox_data_[static_cast<size_t>(from)].push_back(std::move(bytes));
    cv_.notify_all();
  } else {
    queue_to_locked(to, std::move(bytes));
  }
}

void SocketHub::handle_frame(int rank, const std::string& payload) {
  const TaggedFrame f = unpack_frame(payload);
  Peer& p = peers_[static_cast<size_t>(rank)];
  switch (f.kind) {
    case FrameKind::Hello:
      throw ConfigError("duplicate Hello from attached rank " +
                        std::to_string(rank));
    case FrameKind::Heartbeat:
      return;
    case FrameKind::Data: {
      route_data(f);
      p.data_sent += 1;
      // Wire-fault kills: sever the link once the rank delivered `after`
      // frames. The fired rule is erased so a respawned worker isn't
      // re-severed by it.
      auto& kills = config_.fault.kills;
      for (auto it = kills.begin(); it != kills.end(); ++it) {
        if (it->rank == rank && p.data_sent >= it->after) {
          kills.erase(it);
          mark_down_locked(rank, "wire fault: link severed");
          break;
        }
      }
      return;
    }
    case FrameKind::Ctrl: {
      stats_.messages_received += 1;
      stats_.bytes_received += static_cast<i64>(f.body.size());
      MP_REQUIRE(f.to == 0, "worker-to-worker control frame");
      MP_REQUIRE(!f.body.empty(), "empty control frame");
      inbox_ctrl_[static_cast<size_t>(rank)].push_back(f.body);
      if (static_cast<CtrlOp>(f.body[0]) == CtrlOp::Failed && !recovering_) {
        ByteReader r(std::string_view(f.body).substr(1), "failed frame");
        fail_locked("rank " + std::to_string(rank) +
                    " reported failure: " + r.get_str());
      }
      cv_.notify_all();
      return;
    }
  }
}

void SocketHub::pump() {
  std::vector<pollfd> fds;
  std::vector<int> fd_rank;  // parallel: -2 wake, -1 listener, -3-k pending k
  char buf[64 * 1024];
  for (;;) {
    fds.clear();
    fd_rank.clear();
    int timeout;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      fds.push_back({wake_fd_[0], POLLIN, 0});
      fd_rank.push_back(-2);
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_rank.push_back(-1);
      for (int r = 1; r < ranks_; ++r) {
        Peer& p = peers_[static_cast<size_t>(r)];
        if (p.fd < 0) continue;
        short events = POLLIN;
        if (p.out.size() > p.out_off) events |= POLLOUT;
        fds.push_back({p.fd, events, 0});
        fd_rank.push_back(r);
      }
      for (size_t k = 0; k < pending_.size(); ++k) {
        fds.push_back({pending_[k].fd, POLLIN, 0});
        fd_rank.push_back(-3 - static_cast<int>(k));
      }
      timeout = std::clamp(config_.heartbeat_ms, 10, 250);
      if (!delayed_.empty()) timeout = std::min(timeout, 5);
    }

    const int n = ::poll(fds.data(), fds.size(), timeout);
    if (n < 0 && errno != EINTR) return;

    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    const auto now = Clock::now();

    std::vector<int> newly_pending;
    for (size_t i = 0; i < fds.size(); ++i) {
      const short re = fds[i].revents;
      if (re == 0) continue;
      const int tag = fd_rank[i];
      if (tag == -2) {  // wake pipe
        while (::read(wake_fd_[0], buf, sizeof buf) > 0) {
        }
        continue;
      }
      if (tag == -1) {  // listener
        for (;;) {
          const int cfd = ::accept(listen_fd_, nullptr, nullptr);
          if (cfd < 0) break;
          set_nonblocking(cfd);
          if (config_.transport == "tcp") {
            const int one = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          }
          newly_pending.push_back(cfd);
        }
        continue;
      }
      if (tag <= -3) {  // pending connection: expect Hello
        Pending& pc = pending_[static_cast<size_t>(-3 - tag)];
        bool drop = false;
        for (;;) {
          const ssize_t got = ::read(pc.fd, buf, sizeof buf);
          if (got > 0) {
            pc.in.append(buf, static_cast<size_t>(got));
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          drop = true;  // EOF or error before Hello
          break;
        }
        if (!drop) {
          try {
            if (auto payload = pc.in.next_payload()) {
              const TaggedFrame f = unpack_frame(*payload);
              MP_REQUIRE(f.kind == FrameKind::Hello, "expected Hello");
              const Hello h = decode_hello(f.body);
              MP_REQUIRE(h.token == token_, "bad attach token");
              MP_REQUIRE(h.rank >= 1 && h.rank < ranks_ && h.ranks == ranks_,
                         "bad Hello rank " << h.rank << '/' << h.ranks);
              Peer& p = peers_[static_cast<size_t>(h.rank)];
              MP_REQUIRE(p.fd < 0, "rank " << h.rank << " already attached");
              p.fd = pc.fd;
              p.in = std::move(pc.in);
              p.out.clear();
              p.out_off = 0;
              p.down_reason.clear();
              p.last_seen = now;
              pc.fd = -1;  // ownership moved to the peer slot
              cv_.notify_all();
            }
          } catch (const std::exception&) {
            drop = true;
          }
        }
        if (drop && pc.fd >= 0) {
          ::close(pc.fd);
          pc.fd = -1;
        }
        continue;
      }

      // Attached worker socket.
      const int rank = tag;
      Peer& p = peers_[static_cast<size_t>(rank)];
      if (p.fd < 0) continue;
      if (re & (POLLIN | POLLHUP | POLLERR)) {
        bool down = false;
        std::string reason;
        for (;;) {
          const ssize_t got = ::read(p.fd, buf, sizeof buf);
          if (got > 0) {
            p.last_seen = now;
            p.in.append(buf, static_cast<size_t>(got));
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          down = true;
          reason = got == 0 ? "connection closed"
                            : std::string("read error: ") +
                                  std::strerror(errno);
          break;
        }
        if (!down) {
          try {
            while (auto payload = p.in.next_payload()) {
              handle_frame(rank, *payload);
              if (p.fd < 0) break;  // a wire-fault kill severed it mid-drain
            }
          } catch (const std::exception& e) {
            down = true;
            reason = std::string("protocol error: ") + e.what();
          }
        }
        if (down && p.fd >= 0) mark_down_locked(rank, reason);
      }
    }
    for (const int cfd : newly_pending) {
      Pending pc;
      pc.fd = cfd;
      pending_.push_back(std::move(pc));
    }
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [](const Pending& pc) { return pc.fd < 0; }),
                   pending_.end());

    // Liveness sweep: silence beyond the peer deadline is a failure even if
    // the socket is still open (hung process, SIGSTOP, lost heartbeats).
    for (int r = 1; r < ranks_; ++r) {
      Peer& p = peers_[static_cast<size_t>(r)];
      if (p.fd < 0) continue;
      const auto silent = std::chrono::duration_cast<std::chrono::milliseconds>(
                              now - p.last_seen)
                              .count();
      if (silent > config_.peer_deadline_ms) {
        mark_down_locked(r, "heartbeat deadline (silent for " +
                                std::to_string(silent) + "ms)");
      }
    }

    // Release due delayed frames.
    for (auto it = delayed_.begin(); it != delayed_.end();) {
      if (it->release <= now) {
        deliver_locked(it->from, it->to, std::move(it->bytes));
        it = delayed_.erase(it);
      } else {
        ++it;
      }
    }

    // Flush outboxes (partial writes are fine; POLLOUT re-arms next round).
    for (int r = 1; r < ranks_; ++r) {
      Peer& p = peers_[static_cast<size_t>(r)];
      if (p.fd < 0 || p.out.size() <= p.out_off) continue;
      for (;;) {
        const size_t left = p.out.size() - p.out_off;
        if (left == 0) {
          p.out.clear();
          p.out_off = 0;
          break;
        }
        const ssize_t put =
            ::send(p.fd, p.out.data() + p.out_off, left, MSG_NOSIGNAL);
        if (put > 0) {
          p.out_off += static_cast<size_t>(put);
          continue;
        }
        if (put < 0 && errno == EINTR) continue;
        if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        mark_down_locked(r, std::string("write error: ") +
                                std::strerror(errno));
        break;
      }
      if (p.fd >= 0 && p.out_off > 0 && p.out_off == p.out.size()) {
        p.out.clear();
        p.out_off = 0;
      }
    }
  }
}

// ---------------------------------------------------------- WorkerTransport

WorkerTransport::WorkerTransport(const WorkerOptions& opts) : opts_(opts) {
  inbox_data_.resize(static_cast<size_t>(opts_.ranks));
  for (int attempt = 0; attempt < opts_.connect_attempts; ++attempt) {
    fd_ = dial(opts_.address);
    if (fd_ >= 0) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts_.connect_backoff_ms));
  }
  if (fd_ < 0) {
    throw TransportError("rank " + std::to_string(opts_.rank) +
                         " could not reach the hub at " + opts_.address);
  }
  last_send_ = Clock::now();
  write_frame(pack_frame(FrameKind::Hello, opts_.rank, 0, 0,
                         encode_hello(opts_.rank, opts_.ranks, opts_.token)));
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
}

WorkerTransport::~WorkerTransport() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  if (fd_ >= 0) ::close(fd_);
}

void WorkerTransport::heartbeat_loop() {
  const auto period = std::chrono::milliseconds(
      std::max(1, opts_.heartbeat_ms));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock, period, [this] { return hb_stop_; });
      if (hb_stop_) return;
    }
    {
      std::lock_guard<std::mutex> lock(send_mu_);
      if (Clock::now() < last_send_ + period) continue;  // socket not idle
    }
    try {
      write_frame(pack_frame(FrameKind::Heartbeat, opts_.rank, 0, 0, {}));
    } catch (...) {
      return;  // dead socket — the worker thread hits the same error next op
    }
  }
}

void WorkerTransport::write_frame(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(send_mu_);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t put = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
    if (put > 0) {
      off += static_cast<size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    throw ShutdownSignal(std::string("connection to coordinator lost: ") +
                         std::strerror(errno));
  }
  last_send_ = Clock::now();
}

void WorkerTransport::send(int to, std::string frame) {
  stats_.messages_sent += 1;
  stats_.bytes_sent += static_cast<i64>(frame.size());
  write_frame(pack_frame(FrameKind::Data, opts_.rank, to, epoch_, frame));
}

void WorkerTransport::send_ctrl(std::string body) {
  write_frame(pack_frame(FrameKind::Ctrl, opts_.rank, 0, 0, body));
}

void WorkerTransport::dispatch(const std::string& payload) {
  TaggedFrame f = unpack_frame(payload);
  switch (f.kind) {
    case FrameKind::Data:
      if (f.epoch != epoch_) return;  // aborted incarnation
      if (f.from < 0 || f.from >= opts_.ranks) return;
      inbox_data_[static_cast<size_t>(f.from)].push_back(std::move(f.body));
      return;
    case FrameKind::Heartbeat:
      return;
    case FrameKind::Ctrl:
      inbox_ctrl_.push_back(f.body);
      return;
    case FrameKind::Hello:
      throw TransportError("hub sent Hello to a worker");
  }
}

template <class Done>
bool WorkerTransport::pump(Clock::time_point until, Done done) {
  char buf[64 * 1024];
  for (;;) {
    if (done()) return true;
    const auto now = Clock::now();
    if (now >= until) return false;

    // Liveness is the heartbeat thread's job; this wait only bounds itself.
    int timeout = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(until - now)
            .count());
    timeout = std::clamp(timeout, 1, 60 * 1000);

    pollfd pfd{fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, timeout);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw ShutdownSignal(std::string("poll: ") + std::strerror(errno));
    }
    if (r == 0) continue;
    const ssize_t got = ::read(fd_, buf, sizeof buf);
    if (got == 0) {
      throw ShutdownSignal("coordinator closed the connection");
    }
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw ShutdownSignal(std::string("read error: ") +
                           std::strerror(errno));
    }
    in_.append(buf, static_cast<size_t>(got));
    while (auto payload = in_.next_payload()) dispatch(*payload);
  }
}

void WorkerTransport::raise_pending_ctrl_interrupt() {
  for (auto it = inbox_ctrl_.begin(); it != inbox_ctrl_.end(); ++it) {
    if (it->empty()) continue;
    const CtrlOp op = static_cast<CtrlOp>((*it)[0]);
    if (op == CtrlOp::Abort) {
      ByteReader r(std::string_view(*it).substr(1), "abort frame");
      const u32 e = r.get_u32();
      inbox_ctrl_.erase(it);
      set_epoch(e);
      clear_inboxes();
      throw AbortSignal(e);
    }
    if (op == CtrlOp::Shutdown) {
      inbox_ctrl_.erase(it);
      throw ShutdownSignal("shutdown ordered by coordinator");
    }
  }
}

bool WorkerTransport::has_ctrl_interrupt() const {
  for (const std::string& body : inbox_ctrl_) {
    if (body.empty()) continue;
    const CtrlOp op = static_cast<CtrlOp>(body[0]);
    if (op == CtrlOp::Abort || op == CtrlOp::Shutdown) return true;
  }
  return false;
}

std::string WorkerTransport::recv(int from) {
  raise_pending_ctrl_interrupt();
  auto& inbox = inbox_data_[static_cast<size_t>(from)];
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.recv_deadline_ms);
  pump(deadline, [&] { return !inbox.empty() || has_ctrl_interrupt(); });
  raise_pending_ctrl_interrupt();
  if (!inbox.empty()) {
    std::string frame = std::move(inbox.front());
    inbox.pop_front();
    stats_.messages_received += 1;
    stats_.bytes_received += static_cast<i64>(frame.size());
    return frame;
  }
  throw TransportError("rank " + std::to_string(opts_.rank) +
                       " recv deadline (" +
                       std::to_string(opts_.recv_deadline_ms) +
                       "ms) waiting for rank " + std::to_string(from));
}

std::string WorkerTransport::recv_ctrl() {
  pump(Clock::time_point::max(), [&] { return !inbox_ctrl_.empty(); });
  std::string body = std::move(inbox_ctrl_.front());
  inbox_ctrl_.pop_front();
  return body;
}

void WorkerTransport::clear_inboxes() {
  for (auto& q : inbox_data_) q.clear();
}

}  // namespace meshpram::dist

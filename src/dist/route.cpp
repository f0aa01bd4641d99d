#include "dist/route.hpp"

#include <string>
#include <utility>
#include <vector>

#include "dist/wire.hpp"
#include "mesh/arena.hpp"
#include "routing/greedy_band.hpp"
#include "telemetry/telemetry.hpp"

namespace meshpram::dist {

namespace {

const telemetry::Label kRouteDist = telemetry::intern("route.dist");

/// The rank exchange of the routing loop (routing/greedy_band.hpp): a band's
/// crossing hops travel to the neighbouring rank as one boundary frame per
/// edge per step, and the per-step allreduce of delivered counts doubles as
/// the lockstep barrier and termination test.
class RankExchange {
 public:
  static constexpr bool kBanded = true;

  RankExchange(const RankPartition& part, int rank, Collectives& coll,
               bool validate, DistRouteStats& stats)
      : coll_(coll),
        validate_(validate),
        stats_(stats),
        peer_{rank - 1, rank + 1},
        has_{rank > 0, rank + 1 < part.ranks()} {}

  bool start(i64 local, i64& in_flight) {
    in_flight = coll_.allreduce_sum(local);
    return true;
  }
  std::vector<BoundaryHop>& outbox(bool north) { return out_[north ? 0 : 1]; }

  /// Unconditional exchange every step (possibly empty frames): sends and
  /// receives stay matched without any out-of-band agreement, and sends are
  /// non-blocking, so send-both-then-receive-both cannot deadlock.
  bool trade() {
    Transport& tp = coll_.transport();
    for (int e = 0; e < 2; ++e) {
      if (!has_[e]) continue;
      std::string frame = encode_boundary(out_[e], validate_);
      stats_.boundary_hops += static_cast<i64>(out_[e].size());
      stats_.boundary_bytes += static_cast<i64>(frame.size());
      tp.send(peer_[e], std::move(frame));
      out_[e].clear();
    }
    for (int e = 0; e < 2; ++e) {
      if (has_[e]) in_[e] = decode_boundary(tp.recv(peer_[e]));
    }
    return true;
  }
  const std::vector<BoundaryHop>* incoming(bool north) const {
    const int e = north ? 0 : 1;
    return has_[e] ? &in_[e] : nullptr;
  }

  bool settle(i64 delivered, i64& in_flight, i64 step) {
    in_flight -= coll_.allreduce_sum(delivered);
    if (validate_) {
      coll_.check_uniform(static_cast<u64>(in_flight) * 0x9e3779b97f4a7c15ULL ^
                              static_cast<u64>(step),
                          "route sweep");
    }
    return true;
  }

 private:
  Collectives& coll_;
  const bool validate_;
  DistRouteStats& stats_;
  const int peer_[2];   // rank above, rank below
  const bool has_[2];   // whether that rank exists
  std::vector<BoundaryHop> out_[2];
  std::vector<BoundaryHop> in_[2];
};

}  // namespace

DistRouteStats dist_route_whole(Mesh& mesh, const RankPartition& part,
                                int rank, Collectives& coll, bool validate) {
  telemetry::Span span(telemetry::Cat::Phase, kRouteDist, rank);
  DistRouteStats stats;
  const RankBand& rb = part.band(rank);
  const Region band(rb.row_begin, 0, rb.rows(), mesh.cols());
  const Region whole = mesh.whole();

  // Even a rank with no local packets lays out its lanes and joins every
  // step: hops from its neighbours may land on it from the first step on.
  ArenaPool::Lease ar(mesh.route_arenas());
  RouteStats rs;
  const i64 local = detail::setup_band(mesh, whole, band, band, *ar, rs);
  detail::XyRule rule;
  RankExchange ex(part, rank, coll, validate, stats);
  detail::route_band(mesh, whole, band, *ar, local, telemetry::sampling_on(),
                     rule, ex, rs);
  stats.steps = rs.steps;
  span.set_steps(stats.steps);
  return stats;
}

}  // namespace meshpram::dist

#include "protocol/culling.hpp"

#include <algorithm>
#include <cstring>

#include "routing/lroute.hpp"
#include "routing/rank.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

/// Per-node loops below are data-parallel (each node touches only its own
/// buffer / bitmap); chunks smaller than this are not worth a handoff.
constexpr i64 kNodeGrain = 64;

/// Stage-cat spans partition StepStats::total_steps (telemetry.hpp): each
/// CULLING iteration is one stage, charged the steps it added to st.steps.
/// The Phase-cat spans below are host-time detail: the copy-table fill, and
/// inside each iteration the packet emit and the local selection (mark-bit
/// readback, target-set DP, page-load counts) around the sort/rank/route
/// phases.
const telemetry::Label kCullIter = telemetry::intern("culling.iter");
const telemetry::Label kCullCopies = telemetry::intern("culling.copies");
const telemetry::Label kCullEmit = telemetry::intern("culling.emit");
const telemetry::Label kCullSelect = telemetry::intern("culling.select");

}  // namespace

void CopyTable::resize(const Placement& placement, i64 n) {
  const HmosParams& params = placement.map().params();
  k_ = params.k();
  red_ = params.redundancy();
  rows_.resize(static_cast<size_t>(n * (k_ + 1) * red_));
  vars_.resize(static_cast<size_t>(n), -1);
}

void CopyTable::fill(const Placement& placement, i32 node, i64 var) {
  i32* r = rows_.data() + static_cast<i64>(node) * (k_ + 1) * red_;
  placement.walk_copies(var, r, r + k_ * red_);
  vars_[static_cast<size_t>(node)] = var;
}

Culling::Culling(Mesh& mesh, const Placement& placement,
                 SortOptions sort_opts)
    : mesh_(mesh), placement_(placement), sort_opts_(sort_opts),
      selector_(placement.map().params().q(),
                placement.map().params().k()) {}

std::vector<std::vector<i64>> Culling::run(
    const std::vector<i64>& request_vars, CullingStats* stats,
    std::vector<char>* request_ok) {
  const HmosParams& params = placement_.map().params();
  const i64 n = mesh_.size();
  MP_REQUIRE(static_cast<i64>(request_vars.size()) == n,
             "request vector size " << request_vars.size() << " != mesh size "
                                    << n);
  const Region whole = mesh_.whole();
  MP_REQUIRE(mesh_.total_packets(whole) == 0,
             "mesh buffers must be empty before CULLING");

  CullingStats local_stats;
  CullingStats& st = stats != nullptr ? *stats : local_stats;
  st = CullingStats{};

  const fault::FaultPlan* plan = mesh_.fault_plan();
  const bool degraded = plan != nullptr && plan->has_dead_modules();
  const bool count_lost = degraded && telemetry::sampling_on();

  // Effective requests: failed variables are culled out up front so every
  // loop below treats them exactly like idle processors.
  std::vector<i64> vars = request_vars;
  // Per-node degradation level (0 = full strength): iteration i extracts at
  // level max(i, deg). Allocated only in degraded mode.
  std::vector<int> deg;
  if (degraded) deg.assign(static_cast<size_t>(n), 0);

  // Per-node candidate bitmaps over the q^k codes: C_v^0 = minimal level-0
  // target set (at degradation level d, a minimal level-d target set within
  // the surviving copies). One flat slab indexed by PHYSICAL slot — node
  // `id`'s row is candidate[order.slot_of(id) * ncodes ...] — so the
  // slot-order sweeps below stream the slab front to back.
  const i64 ncodes = selector_.num_codes();
  const NodeOrder& order = mesh_.order();
  std::vector<char> candidate(static_cast<size_t>(n * ncodes), 0);
  std::vector<char> marked(static_cast<size_t>(n * ncodes), 0);
  const auto row_of = [&](i64 slot, std::vector<char>& slab) -> char* {
    return slab.data() + slot * ncodes;
  };

  // Set-up: one copy-tree walk per requesting processor fills the copy table
  // (only requesting rows, so a sparse step pays O(active) walks), then
  // every processor starts from C_v^0. It runs inside iteration 1's stage
  // span, so a trace charges all of CULLING's host time to its iterations.
  const auto set_up = [&] {
    copies_.resize(placement_, n);
    {
      telemetry::Span copies_span(telemetry::Cat::Phase, kCullCopies);
      mesh_.for_each_node(kNodeGrain, [&](i32 node) {
        const i64 var = vars[static_cast<size_t>(node)];
        if (var >= 0) copies_.fill(placement_, node, var);
      });
    }

    const auto init_codes = selector_.initial(0);
    std::vector<char> avail;
    TargetSelector::Scratch scratch;
    for (i64 node = 0; node < n; ++node) {
      const i64 var = vars[static_cast<size_t>(node)];
      if (var < 0) continue;
      char* bits = row_of(order.slot_of(static_cast<i32>(node)), candidate);
      if (!degraded) {
        for (i64 code : init_codes) bits[code] = 1;
        continue;
      }
      // Surviving-copy bitmap: a copy is available iff the module of the
      // node it lives on is alive. The plan is static, so this is decided
      // once.
      avail.assign(static_cast<size_t>(ncodes), 1);
      i64 lost = 0;
      for (i64 code = 0; code < ncodes; ++code) {
        const i32 holder = copies_.holder(static_cast<i32>(node), code);
        if (plan->module_dead(holder)) {
          avail[static_cast<size_t>(code)] = 0;
          ++lost;
          if (count_lost) mesh_.counters().add_copies_lost(holder, 1);
        }
      }
      st.copies_lost += lost;
      if (lost == 0) {
        for (i64 code : init_codes) bits[static_cast<size_t>(code)] = 1;
        continue;
      }
      // Smallest degradation level whose requirement the survivors still
      // meet; the selection writes C_v^0 straight into the row. Level k =
      // ordinary target set; failing even that means the variable is
      // unreadable, reported instead of asserted.
      int d = 0;
      while (d <= params.k() &&
             selector_.select_into(d, avail.data(), avail.data(), scratch,
                                   bits) < 0) {
        ++d;
      }
      if (d > params.k()) {
        ++st.requests_failed;
        if (request_ok != nullptr) {
          (*request_ok)[static_cast<size_t>(node)] = 0;
        }
        vars[static_cast<size_t>(node)] = -1;
        continue;
      }
      if (d > 0) ++st.requests_degraded;
      deg[static_cast<size_t>(node)] = d;
    }
  };
  const std::vector<i64>& request_vars_eff = vars;

  for (int iter = 1; iter <= params.k(); ++iter) {
    telemetry::Span iter_span(telemetry::Cat::Stage, kCullIter, iter);
    if (iter == 1) set_up();
    const i64 steps_before = st.steps;
    const i64 tau = params.culling_threshold(iter);

    // Emit one packet per selected copy, keyed by its level-i page from the
    // copy table. Each node fills only its own buffer, so the loop chunks
    // over physical slots.
    {
      telemetry::Span emit_span(telemetry::Cat::Phase, kCullEmit, iter);
      execution_pool().for_each_chunk(n, kNodeGrain, [&](i64 lo, i64 hi) {
        for (i64 slot = lo; slot < hi; ++slot) {
          const i32 node = order.id_of(static_cast<i32>(slot));
          const i64 var = request_vars_eff[static_cast<size_t>(node)];
          if (var < 0) continue;
          const char* bits = row_of(slot, candidate);
          auto& b = mesh_.buf(node);
          for (i64 code = 0; code < ncodes; ++code) {
            if (!bits[code]) continue;
            Packet p;
            p.var = var;
            p.copy = static_cast<u64>(var) *
                         static_cast<u64>(params.redundancy()) +
                     static_cast<u64>(code);
            p.key = static_cast<u64>(copies_.page(node, code, iter));
            p.origin = node;
            b.push_back(p);
          }
        }
      });
    }

    // Sort by page, rank within page, mark the first tau of each page.
    st.steps += sort_region(mesh_, whole, sort_opts_);
    st.steps += rank_within_groups(mesh_, whole);
    mesh_.for_each_node(kNodeGrain, [&](i32 id) {
      for (Packet& p : mesh_.buf(id)) {
        p.value = (static_cast<i64>(p.rank) < tau) ? 1 : 0;
        p.dest = p.origin;
      }
    });

    // Return the mark bits to the owners.
    st.steps += route_sorted(mesh_, whole, sort_opts_).steps;

    telemetry::Span select_span(telemetry::Cat::Phase, kCullSelect, iter);
    // Local selection: prefer marked copies; add unmarked only if needed.
    // A node only writes its own slab rows and drains its own buffer, so
    // both passes chunk over physical slots.
    execution_pool().for_each_chunk(n, kNodeGrain, [&](i64 lo, i64 hi) {
      for (i64 slot = lo; slot < hi; ++slot) {
        const i32 id = order.id_of(static_cast<i32>(slot));
        char* mk = row_of(slot, marked);
        std::memset(mk, 0, static_cast<size_t>(ncodes));
        auto& b = mesh_.buf(id);
        for (const Packet& p : b) {
          MP_ASSERT(p.dest == id, "mark bit went astray");
          if (p.value != 0) {
            const i64 code = static_cast<i64>(
                p.copy % static_cast<u64>(params.redundancy()));
            mk[code] = 1;
          }
        }
        b.clear();
      }
    });
    execution_pool().for_each_chunk(n, /*min_grain=*/8, [&](i64 lo, i64 hi) {
      std::vector<char> m_only(static_cast<size_t>(ncodes), 0);
      TargetSelector::Scratch scratch;
      for (i64 slot = lo; slot < hi; ++slot) {
        const i32 node = order.id_of(static_cast<i32>(slot));
        if (request_vars_eff[static_cast<size_t>(node)] < 0) continue;
        char* cand = row_of(slot, candidate);
        const char* mk = row_of(slot, marked);
        // Degraded variables extract at max(iter, d): a level-j target set
        // is also a level-j' target set for every j' >= j, so the invariant
        // below carries from iteration to iteration unchanged.
        const int level =
            degraded ? std::max(iter, deg[static_cast<size_t>(node)]) : iter;
        // Try M alone first (the pseudo-code's "if M contains a target set");
        // the selection overwrites the candidate row in place.
        simd::and_bytes(reinterpret_cast<unsigned char*>(m_only.data()),
                        reinterpret_cast<const unsigned char*>(cand),
                        reinterpret_cast<const unsigned char*>(mk), ncodes);
        if (selector_.select_into(level, m_only.data(), m_only.data(),
                                  scratch, cand) >= 0) {
          continue;
        }
        // Augment with the fewest possible unmarked copies from C.
        const i64 unmarked =
            selector_.select_into(level, cand, m_only.data(), scratch, cand);
        MP_ASSERT(unmarked >= 0, "C_v^{i-1} lost the level-"
                                     << level << " target set invariant");
      }
    });
    // Local DP over the q^k-leaf tree: O(q^k) per processor (Eq. 2 charge).
    st.steps += params.redundancy();

    // Instrumentation: per-level-i page load of the union of C_v^i, counted
    // into the dense per-page vector, then reset entry by entry so the next
    // count starts from zero in O(selected copies).
    page_load_.resize(placement_.pages(iter).size());
    const auto for_each_selected = [&](auto&& fn) {
      for (i64 slot = 0; slot < n; ++slot) {
        const i32 node = order.id_of(static_cast<i32>(slot));
        if (request_vars_eff[static_cast<size_t>(node)] < 0) continue;
        const char* bits = row_of(slot, candidate);
        for (i64 code = 0; code < ncodes; ++code) {
          if (bits[code]) {
            fn(page_load_[static_cast<size_t>(copies_.page(node, code, iter))]);
          }
        }
      }
    };
    i64 max_load = 0;
    for_each_selected(
        [&](i32& load) { max_load = std::max<i64>(max_load, ++load); });
    for_each_selected([](i32& load) { load = 0; });
    st.max_page_load.push_back(max_load);
    st.bound.push_back(params.theorem3_bound(iter));
    iter_span.set_steps(st.steps - steps_before);
  }

  // Emit the final selections.
  const bool count_survivors = telemetry::sampling_on();
  std::vector<std::vector<i64>> out(static_cast<size_t>(n));
  for (i64 node = 0; node < n; ++node) {
    if (request_vars_eff[static_cast<size_t>(node)] < 0) continue;
    const char* bits = row_of(order.slot_of(static_cast<i32>(node)), candidate);
    for (i64 code = 0; code < ncodes; ++code) {
      if (bits[code]) {
        out[static_cast<size_t>(node)].push_back(code);
        ++st.selected_copies;
      }
    }
    if (count_survivors) {
      mesh_.counters().add_survivors(
          static_cast<i32>(node),
          static_cast<i64>(out[static_cast<size_t>(node)].size()));
    }
  }
  return out;
}

}  // namespace meshpram

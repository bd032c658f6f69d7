#include "map/mapping.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/knobs.hpp"
#include "map/router_detail.hpp"

namespace qtc::map {

namespace {
std::atomic<std::uint64_t> g_mapper_runs{0};
}  // namespace

std::uint64_t mapper_run_count() {
  return g_mapper_runs.load(std::memory_order_relaxed);
}

namespace detail {
void note_mapper_run() {
  g_mapper_runs.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

int default_map_trials() {
  return static_cast<int>(knobs::get(knobs::Knob::MapTrials));
}

std::uint64_t default_map_seed() {
  return knobs::get(knobs::Knob::MapSeed);
}

bool default_map_fidelity() { return knobs::flag(knobs::Knob::MapFidelity); }

double FidelityModel::pair_cost(const arch::CouplingMap& coupling, int a,
                                int b) const {
  const int ab = coupling.edge_index(a, b);
  const int ba = coupling.edge_index(b, a);
  if (ab < 0 && ba < 0)
    throw std::invalid_argument("fidelity model: pair not in coupling map");
  if (ab < 0) return edge_cost[ba];
  if (ba < 0) return edge_cost[ab];
  return std::min(edge_cost[ab], edge_cost[ba]);
}

Layout Layout::trivial(int num_logical, int num_physical) {
  if (num_logical > num_physical)
    throw std::invalid_argument("layout: more logical than physical qubits");
  Layout layout;
  layout.l2p.resize(num_logical);
  layout.p2l.assign(num_physical, -1);
  for (int l = 0; l < num_logical; ++l) {
    layout.l2p[l] = l;
    layout.p2l[l] = l;
  }
  return layout;
}

void Layout::swap_physical(int p1, int p2) {
  const int l1 = p2l[p1], l2 = p2l[p2];
  p2l[p1] = l2;
  p2l[p2] = l1;
  if (l1 >= 0) l2p[l1] = p2;
  if (l2 >= 0) l2p[l2] = p1;
}

std::vector<cplx> embed_state(std::span<const cplx> logical_state,
                              const Layout& layout, int num_physical) {
  const int nl = layout.num_logical();
  if (logical_state.size() != (std::size_t{1} << nl))
    throw std::invalid_argument("embed_state: state size mismatch");
  std::vector<cplx> physical(std::size_t{1} << num_physical, cplx{0, 0});
  for (std::uint64_t idx = 0; idx < logical_state.size(); ++idx) {
    std::uint64_t phys = 0;
    for (int l = 0; l < nl; ++l)
      if ((idx >> l) & 1) phys |= std::uint64_t{1} << layout.l2p[l];
    physical[phys] = logical_state[idx];
  }
  return physical;
}

}  // namespace qtc::map

#include "core/keys.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace pacds {

bool uses_energy(KeyKind kind) {
  return kind == KeyKind::kEnergyId || kind == KeyKind::kEnergyDegreeId ||
         kind == KeyKind::kStabilityEnergyId;
}

bool uses_stability(KeyKind kind) {
  return kind == KeyKind::kStabilityEnergyId;
}

PriorityKey::PriorityKey(KeyKind kind, const Graph& graph,
                         const std::vector<double>* energy,
                         const std::vector<double>* stability)
    : kind_(kind), graph_(&graph), energy_(energy), stability_(stability) {
  if (uses_energy(kind)) {
    if (energy_ == nullptr) {
      throw std::invalid_argument(
          "PriorityKey: energy vector required for energy-based keys");
    }
    if (energy_->size() != static_cast<std::size_t>(graph.num_nodes())) {
      throw std::invalid_argument(
          "PriorityKey: energy vector size does not match node count");
    }
  }
  if (stability_ != nullptr &&
      stability_->size() != static_cast<std::size_t>(graph.num_nodes())) {
    throw std::invalid_argument(
        "PriorityKey: stability vector size does not match node count");
  }
}

double PriorityKey::energy_of(NodeId v) const {
  return (*energy_)[static_cast<std::size_t>(v)];
}

double PriorityKey::stability_of(NodeId v) const {
  // Null = no churn observed anywhere: everyone is equally stable.
  return stability_ == nullptr ? 0.0
                               : (*stability_)[static_cast<std::size_t>(v)];
}

bool PriorityKey::less(NodeId v, NodeId u) const {
  if (v == u) return false;
  switch (kind_) {
    case KeyKind::kId:
      return v < u;
    case KeyKind::kDegreeId: {
      const NodeId dv = graph_->degree(v);
      const NodeId du = graph_->degree(u);
      if (dv != du) return dv < du;
      return v < u;
    }
    case KeyKind::kEnergyId: {
      const double ev = energy_of(v);
      const double eu = energy_of(u);
      if (ev != eu) return ev < eu;
      return v < u;
    }
    case KeyKind::kEnergyDegreeId: {
      const double ev = energy_of(v);
      const double eu = energy_of(u);
      if (ev != eu) return ev < eu;
      const NodeId dv = graph_->degree(v);
      const NodeId du = graph_->degree(u);
      if (dv != du) return dv < du;
      return v < u;
    }
    case KeyKind::kStabilityEnergyId: {
      // Higher churn = less stable = lower priority (yields first).
      const double sv = stability_of(v);
      const double su = stability_of(u);
      if (sv != su) return sv > su;
      const double ev = energy_of(v);
      const double eu = energy_of(u);
      if (ev != eu) return ev < eu;
      return v < u;
    }
  }
  return false;
}

bool PriorityKey::is_min_of_three(NodeId v, NodeId u, NodeId w) const {
  return less(v, u) && less(v, w);
}

std::vector<NodeId> PriorityKey::ascending_order() const {
  std::vector<NodeId> order;
  ascending_order_into(order);
  return order;
}

void PriorityKey::ascending_order_into(std::vector<NodeId>& out) const {
  out.resize(static_cast<std::size_t>(graph_->num_nodes()));
  std::iota(out.begin(), out.end(), NodeId{0});
  std::sort(out.begin(), out.end(),
            [this](NodeId a, NodeId b) { return less(a, b); });
}

}  // namespace pacds

#include "var/granger.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace uoi::var {

GrangerNetwork GrangerNetwork::from_model(const VarModel& model,
                                          double tolerance,
                                          bool include_self_loops) {
  GrangerNetwork net;
  net.p_ = model.dim();
  for (std::size_t i = 0; i < net.p_; ++i) {
    for (std::size_t j = 0; j < net.p_; ++j) {
      if (i == j && !include_self_loops) continue;
      double best = 0.0;
      for (std::size_t lag = 0; lag < model.order(); ++lag) {
        const double a = model.coefficient(lag)(i, j);
        if (std::abs(a) > std::abs(best)) best = a;
      }
      if (std::abs(best) > tolerance) {
        net.edges_.push_back({j, i, best});
      }
    }
  }
  return net;
}

std::vector<std::size_t> GrangerNetwork::in_degrees() const {
  std::vector<std::size_t> deg(p_, 0);
  for (const auto& e : edges_) ++deg[e.target];
  return deg;
}

std::vector<std::size_t> GrangerNetwork::out_degrees() const {
  std::vector<std::size_t> deg(p_, 0);
  for (const auto& e : edges_) ++deg[e.source];
  return deg;
}

std::vector<std::size_t> GrangerNetwork::degrees() const {
  auto deg = in_degrees();
  const auto out = out_degrees();
  for (std::size_t i = 0; i < p_; ++i) deg[i] += out[i];
  return deg;
}

double GrangerNetwork::density() const {
  if (p_ < 2) return 0.0;
  const double possible = static_cast<double>(p_) * static_cast<double>(p_ - 1);
  return static_cast<double>(edges_.size()) / possible;
}

namespace {
std::string node_name(std::size_t i, const std::vector<std::string>& labels) {
  if (i < labels.size()) return labels[i];
  std::string name = "n";
  name += std::to_string(i);
  return name;
}
}  // namespace

std::string GrangerNetwork::to_dot(
    const std::vector<std::string>& labels) const {
  std::ostringstream oss;
  oss << "digraph granger {\n";
  const auto deg = degrees();
  for (std::size_t i = 0; i < p_; ++i) {
    if (deg[i] == 0) continue;  // only plot connected nodes, as Fig. 11 does
    oss << "  \"" << node_name(i, labels) << "\" [width="
        << 0.3 + 0.1 * static_cast<double>(deg[i]) << "];\n";
  }
  for (const auto& e : edges_) {
    oss << "  \"" << node_name(e.source, labels) << "\" -> \""
        << node_name(e.target, labels)
        << "\" [penwidth=" << 0.5 + 2.0 * std::abs(e.weight) << "];\n";
  }
  oss << "}\n";
  return oss.str();
}

std::string GrangerNetwork::to_edge_list(
    const std::vector<std::string>& labels) const {
  std::ostringstream oss;
  for (const auto& e : edges_) {
    oss << node_name(e.source, labels) << " -> " << node_name(e.target, labels)
        << "  " << e.weight << "\n";
  }
  return oss.str();
}

std::string GrangerNetwork::to_json(
    const std::vector<std::string>& labels) const {
  std::ostringstream oss;
  oss.precision(12);
  oss << "{\n  \"nodes\": [";
  for (std::size_t i = 0; i < p_; ++i) {
    if (i != 0) oss << ", ";
    oss << "\"" << node_name(i, labels) << "\"";
  }
  oss << "],\n  \"edges\": [\n";
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto& edge = edges_[e];
    oss << "    {\"source\": " << edge.source
        << ", \"target\": " << edge.target
        << ", \"weight\": " << edge.weight << "}";
    if (e + 1 < edges_.size()) oss << ",";
    oss << "\n";
  }
  oss << "  ]\n}\n";
  return oss.str();
}

uoi::linalg::Matrix GrangerNetwork::to_adjacency_matrix() const {
  uoi::linalg::Matrix adjacency(p_, p_);
  for (const auto& e : edges_) adjacency(e.target, e.source) = e.weight;
  return adjacency;
}

GrangerNetwork GrangerNetwork::subgraph(
    const std::vector<std::size_t>& nodes) const {
  std::vector<std::size_t> position(p_, p_);  // p_ = "not included"
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    UOI_CHECK(nodes[k] < p_, "subgraph node out of range");
    position[nodes[k]] = k;
  }
  GrangerNetwork out;
  out.p_ = nodes.size();
  for (const auto& e : edges_) {
    if (position[e.source] < p_ && position[e.target] < p_) {
      out.edges_.push_back(
          {position[e.source], position[e.target], e.weight});
    }
  }
  return out;
}

std::vector<std::size_t> GrangerNetwork::descendants(
    std::size_t source) const {
  UOI_CHECK(source < p_, "source out of range");
  std::vector<bool> seen(p_, false);
  std::vector<std::size_t> frontier{source};
  seen[source] = true;
  std::vector<std::size_t> out;
  while (!frontier.empty()) {
    const std::size_t node = frontier.back();
    frontier.pop_back();
    out.push_back(node);
    for (const auto& e : edges_) {
      if (e.source == node && !seen[e.target]) {
        seen[e.target] = true;
        frontier.push_back(e.target);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace uoi::var

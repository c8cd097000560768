#include "graph/edge_list.hpp"

#include <algorithm>
#include <set>
#include <tuple>

namespace dsg {

void EdgeList::add_edge(Index src, Index dst, double weight) {
  edges_.push_back({src, dst, weight});
  num_vertices_ = std::max(num_vertices_, std::max(src, dst) + 1);
}

void EdgeList::symmetrize() {
  const std::size_t n = edges_.size();
  edges_.reserve(2 * n);
  for (std::size_t k = 0; k < n; ++k) {
    const Edge& e = edges_[k];
    if (e.src != e.dst) {
      edges_.push_back({e.dst, e.src, e.weight});
    }
  }
}

void EdgeList::normalize() {
  // Drop self-loops, then sort and combine duplicates by min weight.
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [](const Edge& e) { return e.src == e.dst; }),
               edges_.end());
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.src, a.dst, a.weight) < std::tie(b.src, b.dst, b.weight);
  });
  std::vector<Edge> out;
  out.reserve(edges_.size());
  for (const Edge& e : edges_) {
    if (!out.empty() && out.back().src == e.src && out.back().dst == e.dst) {
      out.back().weight = std::min(out.back().weight, e.weight);
    } else {
      out.push_back(e);
    }
  }
  edges_ = std::move(out);
}

bool EdgeList::is_symmetric() const {
  std::set<std::tuple<Index, Index, double>> seen;
  for (const Edge& e : edges_) {
    seen.insert({e.src, e.dst, e.weight});
  }
  for (const Edge& e : edges_) {
    if (!seen.count({e.dst, e.src, e.weight})) return false;
  }
  return true;
}

Index EdgeList::max_vertex_plus_one() const {
  Index m = 0;
  for (const Edge& e : edges_) {
    m = std::max(m, std::max(e.src, e.dst) + 1);
  }
  return m;
}

grb::Matrix<double> EdgeList::to_matrix() const {
  return grb::Matrix<double>::build_from(
      num_vertices_, num_vertices_, edges_.size(),
      [&](std::size_t k) {
        const Edge& e = edges_[k];
        return std::tuple<Index, Index, double>{e.src, e.dst, e.weight};
      },
      grb::Min<double>{});
}

EdgeList EdgeList::from_matrix(const grb::Matrix<double>& a) {
  EdgeList el(a.nrows());
  el.edges_.reserve(a.nvals());
  a.for_each([&](Index r, Index c, const double& w) {
    el.edges_.push_back({r, c, w});
  });
  return el;
}

}  // namespace dsg

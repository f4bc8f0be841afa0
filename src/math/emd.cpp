#include "math/emd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace capman::math {

namespace {

constexpr double kEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

double checked_total(std::span<const double> mass) {
  for (const double m : mass) {
    if (!std::isfinite(m) || m < 0.0) {
      throw std::invalid_argument(
          "earth_movers_distance: mass must be finite and >= 0");
    }
  }
  const double total = std::accumulate(mass.begin(), mass.end(), 0.0);
  if (!(total > 0.0) || !std::isfinite(total)) {
    throw std::invalid_argument("earth_movers_distance: empty distribution");
  }
  return total;
}

/// The solver's arrays, kept per thread and reused across calls so a solve
/// allocates only when its support outgrows every earlier one on that
/// thread. Every array is resized and re-initialised before it is read.
/// The solver calls out to nothing, so no solve on this thread can start
/// while another is using them.
struct Workspace {
  std::vector<std::size_t> row_point;
  std::vector<std::size_t> col_point;
  std::vector<double> supply;
  std::vector<double> demand;
  std::vector<double> cost;
  std::vector<double> flow;
  std::vector<double> potential;
  std::vector<double> dist;
  std::vector<std::size_t> parent;
  std::vector<double> key;
};

thread_local Workspace workspace;

/// Only positive masses take part: rows are p's support, columns q's.
void collect_support(std::span<const double> p, std::span<const double> q,
                     Workspace& ws) {
  ws.row_point.clear();
  ws.col_point.clear();
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] > 0.0) ws.row_point.push_back(i);
  }
  for (std::size_t j = 0; j < q.size(); ++j) {
    if (q[j] > 0.0) ws.col_point.push_back(j);
  }
}

}  // namespace

double earth_movers_distance(std::span<const double> p,
                             std::span<const double> q,
                             std::span<const double> ground,
                             std::span<double> plan) {
  const double total_p = checked_total(p);
  const double total_q = checked_total(q);
  if (ground.size() != p.size() * q.size()) {
    throw std::invalid_argument(
        "earth_movers_distance: ground matrix must be |p| x |q|");
  }
  if (!plan.empty() && plan.size() != ground.size()) {
    throw std::invalid_argument(
        "earth_movers_distance: plan must be |p| x |q|");
  }
  collect_support(p, q, workspace);
  auto& [row_point, col_point, supply, demand, cost, flow, potential, dist,
         parent, key] = workspace;
  const std::size_t rows = row_point.size();
  const std::size_t cols = col_point.size();

  supply.resize(rows);
  demand.resize(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    supply[i] = p[row_point[i]] / total_p;
  }
  for (std::size_t j = 0; j < cols; ++j) {
    demand[j] = q[col_point[j]] / total_q;
  }
  cost.resize(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* ground_row = &ground[row_point[i] * q.size()];
    for (std::size_t j = 0; j < cols; ++j) {
      cost[i * cols + j] = ground_row[col_point[j]];
      assert(cost[i * cols + j] >= 0.0);
    }
  }
  flow.assign(rows * cols, 0.0);

  // Successive shortest paths on the complete bipartite residual graph.
  // Nodes 0..rows-1 are rows, rows..rows+cols-1 columns. Forward arcs
  // row -> column are uncapacitated; a backward arc column -> row exists
  // while its forward arc carries flow. Every row that still has supply is
  // a source at distance 0. Those rows were never reached at positive
  // distance, so their potential stays 0, and a column's true path cost is
  // its reduced distance plus its potential.
  const std::size_t nodes = rows + cols;
  potential.assign(nodes, 0.0);
  dist.resize(nodes);
  parent.resize(nodes);
  key.resize(nodes);

  for (;;) {
    bool any_supply = false;
    for (std::size_t i = 0; i < rows; ++i) {
      dist[i] = supply[i] > kEps ? 0.0 : kInf;
      key[i] = dist[i];
      any_supply = any_supply || supply[i] > kEps;
    }
    if (!any_supply) break;
    std::fill(dist.begin() + static_cast<std::ptrdiff_t>(rows), dist.end(),
              kInf);
    std::fill(key.begin() + static_cast<std::ptrdiff_t>(rows), key.end(),
              kInf);

    // Linear-scan Dijkstra: V = rows + cols is a handful of nodes, so an
    // O(V^2) scan beats any heap. key[v] is dist[v] while v is reached and
    // not yet settled, +inf otherwise, so the next node is the first one
    // with the smallest key: one compare per node. A settled node is never
    // relaxed again (every later candidate is at least its distance), so
    // an update writes key and dist together.
    for (;;) {
      std::size_t u = nodes;
      double best = kInf;
      for (std::size_t v = 0; v < nodes; ++v) {
        if (key[v] < best) {
          best = key[v];
          u = v;
        }
      }
      if (u == nodes) break;
      key[u] = kInf;
      const double du = dist[u];
      if (u < rows) {
        const double* cost_row = &cost[u * cols];
        const double pu = potential[u];
        for (std::size_t j = 0; j < cols; ++j) {
          const double reduced = cost_row[j] + pu - potential[rows + j];
          const double cand = du + std::max(reduced, 0.0);
          if (cand < dist[rows + j] - kEps) {
            dist[rows + j] = cand;
            key[rows + j] = cand;
            parent[rows + j] = u;
          }
        }
      } else {
        const std::size_t j = u - rows;
        const double pj = potential[u];
        for (std::size_t i = 0; i < rows; ++i) {
          if (flow[i * cols + j] <= kEps) continue;
          const double reduced = cost[i * cols + j] + potential[i] - pj;
          const double cand = du + std::max(-reduced, 0.0);
          if (cand < dist[i] - kEps) {
            dist[i] = cand;
            key[i] = cand;
            parent[i] = u;
          }
        }
      }
    }

    // Any column with unmet demand ends a valid augmenting path (forward
    // arcs reach every column); taking the cheapest by true path cost
    // routes as a super-sink would.
    std::size_t sink = nodes;
    for (std::size_t j = 0; j < cols; ++j) {
      const std::size_t v = rows + j;
      if (demand[j] <= kEps) continue;
      if (sink == nodes ||
          dist[v] + potential[v] < dist[sink] + potential[sink] - kEps) {
        sink = v;
      }
    }
    if (sink == nodes) break;
    for (std::size_t v = 0; v < nodes; ++v) {
      if (dist[v] < kInf) potential[v] += dist[v];
    }

    // Walk back to the source row: the bottleneck is the source's supply,
    // the sink's demand and the flow on every backward arc of the path.
    double push = demand[sink - rows];
    std::size_t src = sink;
    for (;;) {
      src = parent[src];
      if (supply[src] > kEps) break;  // only source rows keep supply
      push = std::min(push, flow[src * cols + (parent[src] - rows)]);
      src = parent[src];
    }
    push = std::min(push, supply[src]);
    assert(push > kEps);

    supply[src] -= push;
    demand[sink - rows] -= push;
    for (std::size_t c = sink;;) {
      const std::size_t i = parent[c];
      flow[i * cols + (c - rows)] += push;
      if (i == src) break;
      c = parent[i];
      flow[i * cols + (c - rows)] -= push;
    }
  }

  double total = 0.0;
  for (std::size_t k = 0; k < rows * cols; ++k) total += flow[k] * cost[k];
  if (!plan.empty()) {
    std::fill(plan.begin(), plan.end(), 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        plan[row_point[i] * q.size() + col_point[j]] = flow[i * cols + j];
      }
    }
  }
  return total;
}

std::optional<double> reused_plan_cost(std::span<const double> p,
                                       std::span<const double> q,
                                       std::span<const double> plan,
                                       std::span<const double> ground) {
  if (ground.size() != p.size() * q.size() || plan.size() != ground.size()) {
    throw std::invalid_argument(
        "reused_plan_cost: plan and ground must be |p| x |q|");
  }
  collect_support(p, q, workspace);
  auto& [row_point, col_point, supply, demand, cost, flow, potential, dist,
         parent, key] = workspace;
  const std::size_t rows = row_point.size();
  const std::size_t cols = col_point.size();
  const std::size_t nq = q.size();
  if (rows == 0 || cols == 0) return std::nullopt;
  const auto at = [&](std::span<const double> m, std::size_t i,
                      std::size_t j) {
    return m[row_point[i] * nq + col_point[j]];
  };

  // Dual potentials u (rows) and v (columns, stored after the rows) with
  // u_i + v_j = ground_ij on every plan cell, spread from row 0 by a
  // breadth-first walk over the plan's support graph; `parent` is the
  // queue and dist marks the reached nodes. A support that does not
  // connect every row and column leaves a potential undetermined, so the
  // plan is not certified.
  const std::size_t nodes = rows + cols;
  potential.assign(nodes, 0.0);
  dist.assign(nodes, kInf);
  parent.resize(nodes);
  dist[0] = 0.0;
  parent[0] = 0;
  std::size_t queued = 1;
  for (std::size_t head = 0; head < queued; ++head) {
    const std::size_t u = parent[head];
    if (u < rows) {
      for (std::size_t j = 0; j < cols; ++j) {
        if (dist[rows + j] < kInf || !(at(plan, u, j) > 0.0)) continue;
        potential[rows + j] = at(ground, u, j) - potential[u];
        dist[rows + j] = 0.0;
        parent[queued++] = rows + j;
      }
    } else {
      const std::size_t j = u - rows;
      for (std::size_t i = 0; i < rows; ++i) {
        if (dist[i] < kInf || !(at(plan, i, j) > 0.0)) continue;
        potential[i] = at(ground, i, j) - potential[u];
        dist[i] = 0.0;
        parent[queued++] = i;
      }
    }
  }
  if (queued != nodes) return std::nullopt;

  // Optimal iff complementary slackness holds to the solver's tolerance:
  // no reduced cost below -kEps, and every plan cell's within +-kEps.
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double reduced =
          at(ground, i, j) - potential[i] - potential[rows + j];
      if (reduced < -kEps || (at(plan, i, j) > 0.0 && reduced > kEps)) {
        return std::nullopt;
      }
    }
  }

  // The solver's own cost read: row-major over the support.
  double total = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      total += at(plan, i, j) * at(ground, i, j);
    }
  }
  return total;
}

double earth_movers_distance(const Distribution& p, const Distribution& q,
                             const GroundDistance& d) {
  const std::size_t np = p.mass.size();
  const std::size_t nq = q.mass.size();
  std::vector<double> ground(np * nq, 0.0);
  for (std::size_t i = 0; i < np; ++i) {
    if (!(p.mass[i] > 0.0)) continue;
    for (std::size_t j = 0; j < nq; ++j) {
      if (q.mass[j] > 0.0) ground[i * nq + j] = d(i, j);
    }
  }
  return earth_movers_distance(p.mass, q.mass, ground);
}

double emd_1d(const std::vector<double>& p, const std::vector<double>& q) {
  assert(p.size() == q.size());
  const double tp = std::accumulate(p.begin(), p.end(), 0.0);
  const double tq = std::accumulate(q.begin(), q.end(), 0.0);
  assert(tp > 0.0 && tq > 0.0);
  double carried = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    carried += p[i] / tp - q[i] / tq;
    total += std::abs(carried);
  }
  return total;
}

}  // namespace capman::math

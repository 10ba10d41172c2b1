#ifndef IMPREG_GRAPH_GRAPH_H_
#define IMPREG_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// \file
/// Immutable weighted undirected graph in compressed sparse row form.
///
/// This is the data substrate for everything in the library: the paper's
/// diffusions, spectral methods and flow methods all operate on a graph
/// whose adjacency structure is scanned sequentially, so CSR with both
/// arc directions materialized is the right layout.
///
/// The adjacency is stored structure-of-arrays: one int32 `heads` array
/// and one double `weights` array, both indexed by arc. Compared to an
/// array-of-structs `{int32 head; double weight}` (16 bytes/arc after
/// padding) this is 12 bytes/arc — 25% less memory traffic on the SpMV
/// inner loop — and each array is a unit-stride stream the compiler can
/// vectorize. Every reader iterates `Heads(u)` / `Weights(u)` (or the
/// whole-graph `Heads()` / `Weights()` / `Offsets()` arrays). See
/// docs/memory_layout.md.

namespace impreg {

/// Node identifier. Graphs in this library are laptop-scale (≤ a few
/// million nodes), so 32 bits suffice; arc offsets are 64-bit.
using NodeId = std::int32_t;
using ArcIndex = std::int64_t;

/// A directed half-edge (head, weight) — the row record GraphBuilder
/// sorts and merges before splitting it into the SoA arrays.
struct Arc {
  NodeId head = 0;
  double weight = 1.0;
};

class GraphBuilder;

/// Immutable weighted undirected graph.
///
/// Invariants established by GraphBuilder::Build():
///  - adjacency lists are sorted by head and contain no duplicates
///    (parallel edges are merged by summing weights);
///  - every edge {u,v}, u != v, appears as two arcs u→v and v→u with
///    equal weight; a self-loop {u,u} appears as a single arc u→u;
///  - all weights are strictly positive.
///
/// One exception to the first invariant: `ApplyNodePermutation`
/// (graph/reorder.h) relabels nodes while keeping every row's *original*
/// arc order — that is what makes per-row reduction trees bitwise
/// label-invariant — so its output has `RowsSorted() == false` and
/// `EdgeWeight`/`HasEdge` fall back to a linear row scan. No kernel in
/// src/ other than EdgeWeight relies on sorted rows.
///
/// Degree conventions follow the paper: the weighted degree d(u) counts a
/// self-loop's weight once, the volume of a node set is the sum of its
/// weighted degrees, and `TotalVolume()` = Σ_u d(u).
class Graph {
 public:
  /// An empty graph with zero nodes.
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Number of nodes n.
  NodeId NumNodes() const { return static_cast<NodeId>(offsets_.size()) - 1; }

  /// Number of undirected edges m (self-loops count once).
  std::int64_t NumEdges() const { return num_edges_; }

  /// Number of stored arcs (2m minus the number of self-loops).
  ArcIndex NumArcs() const { return static_cast<ArcIndex>(heads_.size()); }

  /// Neighbor ids of `u`, sorted ascending (a unit-stride int32 stream).
  std::span<const NodeId> Heads(NodeId u) const {
    return {heads_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// Weights of the arcs out of `u`, aligned with `Heads(u)`.
  std::span<const double> Weights(NodeId u) const {
    return {weights_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// The whole-graph arc arrays and row offsets (size n+1), for kernels
  /// that stream all arcs and index rows by `Offsets()[u]`.
  std::span<const NodeId> Heads() const { return heads_; }
  std::span<const double> Weights() const { return weights_; }
  std::span<const ArcIndex> Offsets() const { return offsets_; }

  /// Weighted degree d(u): sum of incident edge weights (self-loop once).
  double Degree(NodeId u) const { return degrees_[u]; }

  /// Number of arcs out of `u` (distinct neighbors, including u itself
  /// if it has a self-loop).
  ArcIndex OutDegree(NodeId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Σ_u d(u) — twice the total edge weight of non-loop edges plus the
  /// total self-loop weight.
  double TotalVolume() const { return total_volume_; }

  /// Returns the weight of edge {u, v}, or 0 if absent. O(log deg(u))
  /// when rows are sorted (builder output), O(deg(u)) otherwise.
  double EdgeWeight(NodeId u, NodeId v) const;

  /// True if {u, v} is an edge. Same complexity as EdgeWeight.
  bool HasEdge(NodeId u, NodeId v) const { return EdgeWeight(u, v) > 0.0; }

  /// True for nodes in [0, n).
  bool IsValidNode(NodeId u) const { return u >= 0 && u < NumNodes(); }

  /// The weighted-degree vector as a dense array of length n.
  const std::vector<double>& Degrees() const { return degrees_; }

  /// True when every adjacency list is sorted by head (all builder
  /// output); false for relabeled graphs from ApplyNodePermutation,
  /// whose rows keep their pre-permutation arc order.
  bool RowsSorted() const { return rows_sorted_; }

 private:
  friend class GraphBuilder;
  friend Graph ApplyNodePermutation(const Graph& g,
                                    const std::vector<NodeId>& perm);

  std::vector<ArcIndex> offsets_ = {0};  ///< Size n+1.
  std::vector<NodeId> heads_;            ///< Arc heads, 4 bytes/arc.
  std::vector<double> weights_;          ///< Arc weights, 8 bytes/arc.
  std::vector<double> degrees_;
  std::int64_t num_edges_ = 0;
  double total_volume_ = 0.0;
  bool rows_sorted_ = true;
};

/// Accumulates undirected edges, then freezes them into a Graph.
class GraphBuilder {
 public:
  /// Creates a builder for a graph on `num_nodes` nodes (ids 0..n-1).
  explicit GraphBuilder(NodeId num_nodes);

  GraphBuilder(const GraphBuilder&) = default;
  GraphBuilder& operator=(const GraphBuilder&) = default;

  NodeId NumNodes() const { return num_nodes_; }

  /// Adds undirected edge {u, v} with weight w > 0. Parallel edges are
  /// allowed here and merged (weights summed) by Build(). u == v adds a
  /// self-loop.
  void AddEdge(NodeId u, NodeId v, double weight = 1.0);

  /// Number of AddEdge calls so far (before merging).
  std::int64_t NumAddedEdges() const {
    return static_cast<std::int64_t>(edges_.size());
  }

  /// Freezes into an immutable Graph. The builder may be reused
  /// afterwards (its edge list is left intact).
  Graph Build() const;

 private:
  struct RawEdge {
    NodeId u;
    NodeId v;
    double weight;
  };
  NodeId num_nodes_;
  std::vector<RawEdge> edges_;
};

}  // namespace impreg

#endif  // IMPREG_GRAPH_GRAPH_H_

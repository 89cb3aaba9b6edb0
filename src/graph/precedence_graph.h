// precedence_graph.h - the precedence graph of Definition 1 in the paper:
// a DAG G = <V, E, D> with a per-vertex delay function D.
//
// This is the substrate every other module builds on. Vertices are arena
// indices (no pointer graphs); adjacency is stored both ways so that the
// schedulers can walk predecessors and successors symmetrically.
//
// The graph only grows in reachability: vertices and edges are appended,
// and the one removal is half of a reach-preserving rewire. That is what
// lets the closure cache (reachability.h) sync by replaying growth.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace softsched::graph {

/// Strongly-typed vertex index. Comparable and hashable; invalid() is the
/// sentinel "no vertex".
class vertex_id {
public:
  constexpr vertex_id() noexcept = default;
  constexpr explicit vertex_id(std::uint32_t value) noexcept : value_(value) {}

  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept {
    return value_ != std::numeric_limits<std::uint32_t>::max();
  }

  [[nodiscard]] static constexpr vertex_id invalid() noexcept { return vertex_id(); }

  friend constexpr bool operator==(vertex_id, vertex_id) noexcept = default;
  friend constexpr auto operator<=>(vertex_id, vertex_id) noexcept = default;

private:
  std::uint32_t value_ = std::numeric_limits<std::uint32_t>::max();
};

/// Synchronization point for incremental consumers of a precedence_graph
/// (the transitive-closure cache). The graph only grows in reachability
/// (see remove_edge_reach_preserved), so everything it gained since a
/// consumer recorded cursor() is exactly the vertices past `vertices` and
/// the edge_log() entries past `edges_logged`: the consumer replays them
/// instead of rebuilding from scratch.
struct graph_cursor {
  std::size_t vertices = 0;     ///< vertex_count() at sync time
  std::size_t edges_logged = 0; ///< edge_log().size() at sync time

  friend bool operator==(const graph_cursor&, const graph_cursor&) = default;
};

/// Directed acyclic graph with integer vertex delays (Definition 1).
///
/// Acyclicity is *not* enforced on every add_edge (builders are free to
/// create edges in any order); call validate() once construction finishes,
/// or rely on the algorithms that require a DAG to throw graph_error.
class precedence_graph {
public:
  precedence_graph() = default;

  /// Creates a vertex with the given delay (must be >= 0) and optional
  /// diagnostic name. Returns its id.
  vertex_id add_vertex(int delay, std::string name = {});

  /// Adds the edge from -> to. Self-loops are rejected; duplicate edges are
  /// ignored (the partial order is a set).
  void add_edge(vertex_id from, vertex_id to);

  /// Removes the edge if present; returns whether it existed. The one
  /// removal, for *reach-preserving* rewires: the caller promises to
  /// restore every severed from ->* to path (through vertices/edges added
  /// in the same rewire) before the next reachability query. The
  /// refinement patterns all have this shape - a spill replaces value ->
  /// consumer with value -> store -> load -> consumer - so reachability
  /// only grows and the closure cache keeps its (still true) bits; see
  /// docs/DESIGN.md §4 for the invariant.
  bool remove_edge_reach_preserved(vertex_id from, vertex_id to);

  [[nodiscard]] bool has_edge(vertex_id from, vertex_id to) const;

  [[nodiscard]] std::size_t vertex_count() const noexcept { return delay_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  [[nodiscard]] int delay(vertex_id v) const;
  void set_delay(vertex_id v, int delay);

  [[nodiscard]] std::string_view name(vertex_id v) const;
  void set_name(vertex_id v, std::string name);

  [[nodiscard]] std::span<const vertex_id> preds(vertex_id v) const;
  [[nodiscard]] std::span<const vertex_id> succs(vertex_id v) const;

  /// Vertices without predecessors ("primary inputs" in the paper).
  [[nodiscard]] std::vector<vertex_id> sources() const;
  /// Vertices without successors ("primary outputs").
  [[nodiscard]] std::vector<vertex_id> sinks() const;

  /// All vertex ids, 0..n-1.
  [[nodiscard]] std::vector<vertex_id> vertices() const;

  /// True iff the graph is acyclic.
  [[nodiscard]] bool is_dag() const;

  /// Throws graph_error if the graph contains a cycle or dangling state.
  void validate() const;

  /// Bounds-checks v and throws precondition_error if it is not a vertex
  /// of this graph.
  void require_vertex(vertex_id v) const;

  /// Chronological log of every edge actually added (duplicates that were
  /// ignored do not appear). Entries are never rewritten; removals leave
  /// the log untouched so replay positions stay stable.
  [[nodiscard]] std::span<const std::pair<vertex_id, vertex_id>> edge_log() const noexcept {
    return edge_log_;
  }

  /// Snapshot of the growth state for incremental consumers.
  [[nodiscard]] graph_cursor cursor() const noexcept {
    return graph_cursor{delay_.size(), edge_log_.size()};
  }

private:
  std::vector<int> delay_;
  std::vector<std::string> name_;
  std::vector<std::vector<vertex_id>> out_;
  std::vector<std::vector<vertex_id>> in_;
  std::vector<std::pair<vertex_id, vertex_id>> edge_log_;
  std::size_t edge_count_ = 0;
};

} // namespace softsched::graph

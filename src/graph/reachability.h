// reachability.h - transitive closure of a precedence graph: the partial
// order <=G of Definition 1. Stored as one bitset row per vertex, so a
// reaches() query is O(1) and building is O(V*E/64).
//
// The closure also supports *incremental growth* (the Algorithm-1 hot
// path): add_vertex()/add_edge() update only the affected rows, and
// grow_from() replays everything a precedence_graph gained since a
// graph_cursor snapshot - an Italiano-style update that costs O(V/64) per
// row actually reaching the new edge's tail instead of a full O(V*E/64)
// rebuild per mutation. A precedence_graph only grows in reachability, so
// after the first build a closure never needs a rebuild to stay exact.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/precedence_graph.h"
#include "util/arena.h"

namespace softsched::graph {

/// Transitive closure. reaches(u, v) is true iff there is a (possibly
/// empty) directed path u ->* v; every vertex reaches itself, matching the
/// reflexive partial order <=G used throughout the paper.
class transitive_closure {
public:
  /// Builds the closure. Throws graph_error on cycles. With a non-null
  /// arena the bitset rows live in that arena (the run_context hot path);
  /// null keeps plain heap storage - results are identical either way.
  explicit transitive_closure(const precedence_graph& g, util::arena* a = nullptr);

  /// Rebuilds this closure over `g` from scratch, reusing the existing
  /// bitset storage when it is large enough - the allocation-free
  /// equivalent of *this = transitive_closure(g) for a warmed-up instance.
  void rebuild(const precedence_graph& g);

  /// u <=G v (reflexive). Defined inline: the schedulers call this once
  /// per (scheduled node, candidate) pair, so the bit test must not cost a
  /// function call.
  [[nodiscard]] bool reaches(vertex_id u, vertex_id v) const {
    return bit(u.value(), v.value());
  }

  /// u <G v (irreflexive / strict).
  [[nodiscard]] bool strictly_reaches(vertex_id u, vertex_id v) const {
    return u != v && bit(u.value(), v.value());
  }

  [[nodiscard]] std::size_t vertex_count() const noexcept { return n_; }

  /// Calls fn(w) for every w != u with u <G w, iterating u's row word by
  /// word (O(V/64) plus one call per reachable vertex). The schedulers use
  /// this to enumerate scheduled successors without testing every vertex.
  template <typename Fn>
  void for_each_strictly_reachable(vertex_id u, Fn&& fn) const {
    const std::size_t live = (n_ + 63) / 64;
    const std::uint64_t* row = bits_.data() + static_cast<std::size_t>(u.value()) * words_;
    const std::size_t self_word = u.value() / 64;
    for (std::size_t i = 0; i < live; ++i) {
      std::uint64_t word = row[i];
      if (i == self_word) word &= ~(std::uint64_t{1} << (u.value() % 64)); // strict
      while (word != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(word));
        word &= word - 1;
        fn(vertex_id(static_cast<std::uint32_t>(i * 64 + b)));
      }
    }
  }

  /// Number of ordered pairs (u, v), u != v, with u <G v.
  [[nodiscard]] std::size_t pair_count() const;

  // -- incremental growth ---------------------------------------------------

  /// Appends one vertex as a new row containing only itself. Row storage
  /// widens geometrically, so a growth burst re-layouts the bitset O(log V)
  /// times, not once per 64 vertices.
  void add_vertex();

  /// Accounts for a new edge u -> v: ORs v's row into every row that
  /// already reaches u (including u's own). Returns the number of rows
  /// updated; 0 when u already reaches v (the edge adds no order). Throws
  /// graph_error if v reaches u - the edge would close a cycle.
  std::size_t add_edge(vertex_id u, vertex_id v);

  /// Replays everything `g` gained since `cursor`: missing vertices first,
  /// then the edge_log() suffix. Requires the cursor to describe this
  /// closure (same vertex count). Exact because the graph only grows in
  /// reachability (precedence_graph.h). Advances `cursor` to g.cursor()
  /// and returns the total rows touched.
  std::size_t grow_from(const precedence_graph& g, graph_cursor& cursor);

  /// Bit-for-bit equality of the reachability relation (row strides may
  /// differ; only live columns are compared). Used by the property tests
  /// and the SOFTSCHED_PARANOID cross-checks.
  [[nodiscard]] bool equals(const transitive_closure& other) const;

private:
  [[nodiscard]] bool bit(std::size_t row, std::size_t col) const {
    return (bits_[row * words_ + col / 64] >> (col % 64)) & 1u;
  }
  void set_bit(std::size_t row, std::size_t col) {
    bits_[row * words_ + col / 64] |= std::uint64_t{1} << (col % 64);
  }
  void widen_rows(std::size_t new_words);

  void build(const precedence_graph& g);

  std::size_t n_ = 0;
  std::size_t words_ = 0; // row stride; may exceed (n_ + 63) / 64 (growth slack)
  util::arena_vector<std::uint64_t> bits_;
};

} // namespace softsched::graph

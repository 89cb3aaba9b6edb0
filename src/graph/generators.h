// generators.h - synthetic precedence-graph workloads for tests and
// benchmarks: random layered DAGs (typical dataflow shape), uniform random
// DAGs, chains/trees, and parameterized FIR-like structures.
#pragma once

#include "graph/precedence_graph.h"
#include "util/rng.h"

namespace softsched::graph {

/// Parameters for the layered random DAG generator.
struct layered_params {
  int layers = 8;           ///< number of layers (>= 1)
  int width = 8;            ///< vertices per layer (>= 1)
  double edge_prob = 0.3;   ///< probability of an edge between adjacent-layer pairs
  int min_delay = 1;        ///< inclusive delay range
  int max_delay = 2;
  bool connect_layers = true; ///< guarantee each non-input vertex has a predecessor
};

/// Random layered DAG: edges only go from layer i to layer i+1, which mimics
/// pipelined dataflow graphs and keeps path structure controllable.
[[nodiscard]] precedence_graph layered_random(const layered_params& params, rng& rand);

/// Layered-DAG shape for a target vertex count: layers = max(8, vertices /
/// vertices_per_layer), width = vertices / layers. This is the one sizing
/// rule every sweep-style harness (perf_harness's sweep and dse blocks, the
/// explore random family) shares, so "a 3000-vertex random design" means the same
/// workload everywhere.
[[nodiscard]] layered_params layered_for_size(int vertices, double edge_prob,
                                              int vertices_per_layer = 64);

/// Uniform random DAG on n vertices: each pair (i, j), i < j in a random
/// hidden permutation, gets an edge with probability p.
[[nodiscard]] precedence_graph gnp_dag(int n, double p, int min_delay, int max_delay,
                                       rng& rand);

/// Single chain of n unit-delay vertices (worst case for parallelism).
[[nodiscard]] precedence_graph chain(int n, int delay = 1);

/// Complete binary in-tree with n leaves reduced pairwise (adder-tree shape).
[[nodiscard]] precedence_graph reduction_tree(int leaves, int leaf_delay, int node_delay);

} // namespace softsched::graph

"""Interconnect topologies and hop counts.

A :class:`Topology` maps ``n_nodes`` processor endpoints onto a graph of
switches/links and answers ``hops(a, b)`` — the link count of the route
between two processors, which the cost model converts into per-hop
latency.  Graphs are built with networkx and the all-pairs hop matrix is
precomputed once (worlds are small: the CS-2 had 10 processors).

Implemented:

* :class:`FatTree` — the Meiko CS-2's network: processors at the leaves
  of a k-ary switch tree; a route climbs to the lowest common ancestor
  and back down;
* :class:`Mesh2D`, :class:`Hypercube`, :class:`Ring` — the other
  multicomputer topologies of the era (for the topology ablation);
* :class:`Crossbar` — one hop between any pair (idealized network).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

# networkx (~90 ms to import) is imported where a graph is built, so
# importing the simulator — which the CLI's parser does, for the
# experiment registry — does not pay for it.
if TYPE_CHECKING:
    import networkx as nx


class Topology(ABC):
    """Processor-to-processor hop counts over a modelled interconnect."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = n_nodes
        self._hops = self._build_hop_matrix()

    @abstractmethod
    def _build_hop_matrix(self) -> np.ndarray:
        """``(n_nodes, n_nodes)`` integer hop counts (0 on the diagonal)."""

    def hops(self, a: int, b: int) -> int:
        """Number of links on the route from processor ``a`` to ``b``."""
        if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes):
            raise ValueError(
                f"processors ({a}, {b}) out of range [0, {self.n_nodes})"
            )
        return int(self._hops[a, b])

    @property
    def diameter(self) -> int:
        """Maximum hops between any processor pair."""
        return int(self._hops.max())

    @property
    def mean_hops(self) -> float:
        """Mean hops over distinct pairs (0 for a single processor)."""
        n = self.n_nodes
        if n == 1:
            return 0.0
        return float(self._hops.sum() / (n * (n - 1)))

    def _hop_matrix_from_graph(
        self, graph: nx.Graph, endpoints: list
    ) -> np.ndarray:
        import networkx as nx

        out = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        for i, a in enumerate(endpoints):
            for j, b in enumerate(endpoints):
                out[i, j] = lengths[a][b]
        return out


class FatTree(Topology):
    """k-ary fat tree with processors at the leaves (Meiko CS-2 style).

    The tree has the minimum height that provides at least ``n_nodes``
    leaves; a message between leaves traverses up to ``2 * height``
    links.  Link *capacity* fattening toward the root is reflected in
    the cost model's assumption of no contention, not in extra graph
    structure.
    """

    def __init__(self, n_nodes: int, arity: int = 4) -> None:
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.arity = arity
        super().__init__(n_nodes)

    def _build_hop_matrix(self) -> np.ndarray:
        if self.n_nodes == 1:
            return np.zeros((1, 1), dtype=np.int64)
        import networkx as nx

        height = max(1, math.ceil(math.log(self.n_nodes, self.arity)))
        tree = nx.balanced_tree(self.arity, height)
        # Leaves of a balanced tree are the last arity**height nodes.
        leaves = [n for n in tree.nodes if tree.degree[n] == 1 and n != 0]
        leaves.sort()
        endpoints = leaves[: self.n_nodes]
        return self._hop_matrix_from_graph(tree, endpoints)


class Mesh2D(Topology):
    """Near-square 2-D mesh (no wraparound)."""

    def _build_hop_matrix(self) -> np.ndarray:
        import networkx as nx

        cols = math.ceil(math.sqrt(self.n_nodes))
        rows = math.ceil(self.n_nodes / cols)
        grid = nx.grid_2d_graph(rows, cols)
        endpoints = sorted(grid.nodes)[: self.n_nodes]
        return self._hop_matrix_from_graph(grid, endpoints)


class Hypercube(Topology):
    """Binary hypercube; hop count is the Hamming distance.

    For non-power-of-two sizes, processors occupy the first ``n_nodes``
    corners of the enclosing cube.
    """

    def _build_hop_matrix(self) -> np.ndarray:
        out = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        for a in range(self.n_nodes):
            for b in range(self.n_nodes):
                out[a, b] = (a ^ b).bit_count()
        return out


class Ring(Topology):
    """Bidirectional ring; hop count is the circular distance."""

    def _build_hop_matrix(self) -> np.ndarray:
        idx = np.arange(self.n_nodes)
        diff = np.abs(idx[:, None] - idx[None, :])
        return np.minimum(diff, self.n_nodes - diff).astype(np.int64)


class Crossbar(Topology):
    """Idealized single-stage network: every pair is one hop apart."""

    def _build_hop_matrix(self) -> np.ndarray:
        out = np.ones((self.n_nodes, self.n_nodes), dtype=np.int64)
        np.fill_diagonal(out, 0)
        return out

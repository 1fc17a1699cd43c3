"""Pascal's-tetrahedron node lattice for order-N tetrahedral elements.

A degree-N nodal tetrahedral element carries one node per entry of
Pascal's tetrahedron up to level N.  Nodes are indexed (i, j, k): level i
counted from the apex, then in-level row k and column j, subject to

    0 <= i <= N,    0 <= k <= i,    0 <= j <= i - k.

Level i holds (i + 1)(i + 2)/2 nodes, so the full lattice has
(N + 1)(N + 2)(N + 3)/6.

The lattice embeds in integer coordinates as (x, y, z) = (j, k, N - i):
the apex sits at (0, 0, N), level i is the horizontal slab z = N - i, and
the element is the corner tetrahedron {x, y, z >= 0, x + y + z <= N} with
legs of length N.  At unit level spacing every generated sub-tetrahedron
has volume 1/6, so all downstream geometry stays in exact integer (or
rational) arithmetic.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import NamedTuple

Coords = tuple[int, int, int]


class NodeIndex(NamedTuple):
    """A lattice node: level ``i``, in-level column ``j``, in-level row ``k``."""

    i: int
    j: int
    k: int


def _check_node(node: tuple[int, int, int], order: int | None = None) -> None:
    i, j, k = node
    if not (0 <= k <= i and 0 <= j <= i - k):
        raise ValueError(f"invalid lattice node (i={i}, j={j}, k={k})")
    if order is not None and i > order:
        raise ValueError(f"node level {i} exceeds element order {order}")


def node_count(order: int) -> int:
    """Number of lattice nodes of an order-``order`` element."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return (order + 1) * (order + 2) * (order + 3) // 6


def enumerate_nodes(order: int) -> list[NodeIndex]:
    """All nodes in canonical order: ascending level i, then row k, then column j."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return [
        NodeIndex(i, j, k)
        for i in range(order + 1)
        for k in range(i + 1)
        for j in range(i - k + 1)
    ]


def node_id(i: int, j: int, k: int) -> int:
    """Linear id of node (i, j, k); independent of the element order.

    Levels are laid out consecutively, each level row-major in k then j:
    id = i(i+1)(i+2)/6 + k(i+1) - k(k-1)/2 + j.
    """
    _check_node((i, j, k))
    return i * (i + 1) * (i + 2) // 6 + k * (i + 1) - k * (k - 1) // 2 + j


def node_to_linear(node: NodeIndex, order: int) -> int:
    """Deprecated: use ``node_id(*node)``.  Removed in 0.2.0."""
    warnings.warn(
        "node_to_linear is deprecated; use node_id(*node)", DeprecationWarning, stacklevel=2
    )
    _check_node(node, order)
    return node_id(*node)


def linear_to_node(linear_id: int, order: int) -> NodeIndex:
    """Deprecated: use ``enumerate_nodes(order)[i]``.  Removed in 0.2.0."""
    warnings.warn(
        "linear_to_node is deprecated; use enumerate_nodes(order)[i]",
        DeprecationWarning,
        stacklevel=2,
    )
    if not 0 <= linear_id < node_count(order):
        raise ValueError(
            f"linear id {linear_id} out of range for order {order} "
            f"(node count {node_count(order)})"
        )
    return enumerate_nodes(order)[linear_id]


def node_coords(node: NodeIndex, order: int) -> Coords:
    """Integer lattice coordinates (x, y, z) = (j, k, order - i)."""
    _check_node(node, order)
    i, j, k = node
    return (j, k, order - i)


def corner_nodes(order: int) -> tuple[NodeIndex, NodeIndex, NodeIndex, NodeIndex]:
    """The four element corners: the apex, then the base corners (j=0, j=N, k=N)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return (
        NodeIndex(0, 0, 0),
        NodeIndex(order, 0, 0),
        NodeIndex(order, order, 0),
        NodeIndex(order, 0, order),
    )


def node_barycentric(node: NodeIndex, order: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact barycentric weights of ``node`` with respect to :func:`corner_nodes`.

    The weights ((N-i)/N, (i-j-k)/N, j/N, k/N) are rationals in [0, 1]
    summing to 1; combining the corner coordinates with them reproduces
    :func:`node_coords` exactly.
    """
    if order < 1:
        raise ValueError("barycentric weights are undefined for order 0")
    _check_node(node, order)
    i, j, k = node
    n = order
    return (
        Fraction(n - i, n),
        Fraction(i - j - k, n),
        Fraction(j, n),
        Fraction(k, n),
    )


def tet_volume6(p0: Coords, p1: Coords, p2: Coords, p3: Coords) -> int:
    """6x the signed volume of the tetrahedron (p0, p1, p2, p3), exactly.

    Determinant of the three edge vectors from p0; works on any integer
    (or exact rational) point tuples.
    """
    ax, ay, az = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
    bx, by, bz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
    cx, cy, cz = p3[0] - p0[0], p3[1] - p0[1], p3[2] - p0[2]
    return ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx) + az * (bx * cy - by * cx)

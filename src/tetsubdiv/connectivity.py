"""Connectivity of the N^3 sub-tetrahedra covering an order-N element.

The cover is Freudenthal's edgewise subdivision of the element
(Freudenthal 1942; Kuhn 1960; Edelsbrunner & Grayson 2000, "Edgewise
subdivision of a simplex"; Bey 2000).  In the coordinates
(a, b, c) = (i, i - j, k) the node lattice is N >= a >= b >= c >= 0 and
every sub-tet is a Kuhn simplex of a unit lattice cube: a monotone path
that steps once along each axis.  The six step orders give six classes of
tets, and all tets of one class are translates of each other.  Each class
is one row of ``_CLASSES``: the offsets (di, dj, dk) of its four vertices
from an anchor node (i - 1, j, k), in the construction's vertex order.

* ``upright``: i(i+1)/2 tets per level, each joining a level-(i-1) node to
  the three nodes directly below it.
* ``fill``: 2i(i-1) tets per level, four per octahedral hole left between
  the upright tets.  Each hole is split by the diagonal edge from the
  anchor (i-1, j, k) to node (i, j+1, k+1); the four tets around that
  diagonal are the classes ``fill_slot`` 0..3.
* ``chunk``: (i-1)(i-2)/2 additional interior tets, present from level 3
  up, closing the gap the first two constructions leave deeper inside.

Per level this totals 3i^2 - 3i + 1 = i^3 - (i-1)^3 tets, so levels 1..N
sum to exactly N^3.  Every tet has |signed volume| = 1/6 in lattice units
and all of its edges stay within one unit cell of the lattice.  Since a
class is a set of translates, its orientation is one sign: in the
construction order upright, fill 1, fill 3 and chunk have signed volume
-1/6, fill 0 and fill 2 have +1/6.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Coords, NodeIndex, enumerate_nodes, node_coords, node_id, tet_volume6

UPRIGHT = "upright"
FILL = "fill"
CHUNK = "chunk"
KINDS = (UPRIGHT, FILL, CHUNK)

POSITIVE = "positive"
AS_GENERATED = "as-generated"
ORIENTATION_POLICIES = (POSITIVE, AS_GENERATED)


@dataclass(frozen=True)
class SubTet:
    """One linear sub-tetrahedron: 4 node ids plus generation provenance."""

    nodes: tuple[int, int, int, int]
    kind: str
    level: int
    fill_slot: int | None = None


@dataclass(frozen=True)
class SubdivisionMesh:
    """An order-N subdivision: the full node lattice plus its N^3 sub-tets.

    ``nodes`` and ``coords`` follow the canonical lattice order, so tet
    node ids double as positions in both sequences.  Construction is
    deterministic: equal inputs produce equal meshes.
    """

    order: int
    nodes: tuple[NodeIndex, ...]
    coords: tuple[Coords, ...]
    tets: tuple[SubTet, ...]
    orientation_policy: str = POSITIVE


# (kind, fill_slot, offsets (di, dj, dk) of the four vertices from the
# anchor (i - 1, j, k)), in construction order
_CLASSES = (
    (UPRIGHT, None, ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1))),
    (FILL, 0, ((0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 1, 0))),
    (FILL, 1, ((0, 0, 0), (1, 1, 1), (0, 1, 0), (0, 0, 1))),
    (FILL, 2, ((0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 0, 1))),
    (FILL, 3, ((0, 0, 0), (1, 1, 1), (1, 0, 1), (1, 1, 0))),
    (CHUNK, None, ((0, 1, 0), (0, 1, 1), (0, 0, 1), (1, 1, 1))),
)

_TABLES = {
    AS_GENERATED: _CLASSES,
    # one sign per class, taken in lattice coordinates (j, k, -i) relative to
    # the anchor; swapping the last two vertices flips it
    POSITIVE: tuple(
        (kind, slot, (a, b, d, c))
        if tet_volume6(*((dj, dk, -di) for di, dj, dk in (a, b, c, d))) < 0
        else (kind, slot, (a, b, c, d))
        for kind, slot, (a, b, c, d) in _CLASSES
    ),
}


def _tets(level: int, kinds: tuple[str, ...], policy: str = AS_GENERATED) -> list[SubTet]:
    """Tets of ``kinds`` at ``level``: kind by kind, then anchor row k, column j, class."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    i = level
    # node (i - 1 + di, j, k) has id base[di][k] + j
    base = [[node_id(lv, 0, k) for k in range(lv + 1)] for lv in (i - 1, i)]
    out: list[SubTet] = []
    append = out.append
    for kind in kinds:
        rows = [(slot, offsets) for name, slot, offsets in _TABLES[policy] if name == kind]
        # every vertex stays in its level: j + dj + k + dk <= i - 1 + di
        shrink = max(dj + dk - di for _, offsets in rows for di, dj, dk in offsets)
        for k in range(i - shrink):
            ids = [
                (slot, *(base[di][k + dk] + dj for di, dj, dk in offsets))
                for slot, offsets in rows
            ]
            for j in range(i - shrink - k):
                for slot, a, b, c, d in ids:
                    append(SubTet((j + a, j + b, j + c, j + d), kind, i, slot))
    return out


def upright_tets(level: int) -> list[SubTet]:
    """Upright tets of one level, in construction order.  Count: i(i+1)/2."""
    return _tets(level, (UPRIGHT,))


def fill_tets(level: int) -> list[SubTet]:
    """Hole-filling tets of one level, four per hole.  Count: 2i(i-1)."""
    return _tets(level, (FILL,))


def chunk_tets(level: int) -> list[SubTet]:
    """Deep-interior tets of one level.  Count: (i-1)(i-2)/2."""
    return _tets(level, (CHUNK,))


def level_tets(level: int) -> list[SubTet]:
    """All tets of one level: upright, then fill, then chunk.  Count: 3i^2 - 3i + 1."""
    return _tets(level, KINDS)


def expected_counts(order: int) -> tuple[dict[int, int], dict[str, int]]:
    """Closed-form tet counts of ``generate(order)``: per level 1..N, and per kind.

    Level i holds 3i^2 - 3i + 1 tets.  Summed over the levels, the kinds
    give upright N(N+1)(N+2)/6, fill 2(N-1)N(N+1)/3 and chunk N(N-1)(N-2)/6.
    Order 0 gives no levels and zero of every kind.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    n = order
    levels = {i: 3 * i * i - 3 * i + 1 for i in range(1, n + 1)}
    kinds = {
        UPRIGHT: n * (n + 1) * (n + 2) // 6,
        FILL: 2 * (n - 1) * n * (n + 1) // 3,
        CHUNK: n * (n - 1) * (n - 2) // 6,
    }
    return levels, kinds


def _check_subdivision_order(order: int) -> None:
    """Refuse an order below 1: a degree-0 element has nothing to subdivide."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}: nothing to subdivide")


def generate(order: int, orientation_policy: str = POSITIVE) -> SubdivisionMesh:
    """Build the full order-N subdivision mesh.

    Parameters
    ----------
    order : int
        Element order N >= 1.  (A degree-0 element has a single node and
        nothing to subdivide.)
    orientation_policy : str
        ``"positive"`` (default) swaps the last two nodes of every tet in
        the classes whose construction order has signed volume -1/6, so
        every signed volume is +1/6 in lattice units.  ``"as-generated"``
        keeps the construction's node order.

    Returns
    -------
    SubdivisionMesh
        Exactly ``order**3`` sub-tets over the canonical node lattice.
    """
    _check_subdivision_order(order)
    if orientation_policy not in ORIENTATION_POLICIES:
        raise ValueError(
            f"unknown orientation policy {orientation_policy!r}; "
            f"expected one of {ORIENTATION_POLICIES}"
        )
    nodes = tuple(enumerate_nodes(order))
    coords = tuple(node_coords(v, order) for v in nodes)
    tets: list[SubTet] = []
    for i in range(1, order + 1):
        tets += _tets(i, KINDS, orientation_policy)
    return SubdivisionMesh(order, nodes, coords, tuple(tets), orientation_policy)

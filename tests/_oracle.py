"""Reference implementations that tests compare the package against.

``all_pairs_disjoint`` is the exhaustive exact all-pairs separating-axis
check.  ``validate`` proves "no overlaps" with a local face certificate
(see ``tetsubdiv.validation``); this is the independent O(N^6) test it
replaced, kept as an oracle for small orders.

``bucket_tets_box_loop`` is the sampler's cell table built with the
clipped bounding-box loops alone, with no one-cell fast path.
"""

from itertools import combinations

from tetsubdiv.lattice import Coords, tet_volume6
from tetsubdiv.validation import CheckResult, _side_planes

# local face f omits local vertex f
_LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
_TET_EDGES = tuple(combinations(range(4), 2))


def _cross(a: Coords, b: Coords) -> Coords:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _sub(a: Coords, b: Coords) -> Coords:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _interiors_intersect(
    a_pts: tuple[Coords, ...], b_pts: tuple[Coords, ...]
) -> bool:
    """Exact separating-plane test: do two nondegenerate tets share interior volume?

    Candidate separating directions are the face normals of both tets and
    the cross products of all edge pairs; projections touching only at an
    endpoint still count as disjoint interiors.
    """
    axes: list[Coords] = []
    for pts in (a_pts, b_pts):
        for f in _LOCAL_FACES:
            p, q, r = pts[f[0]], pts[f[1]], pts[f[2]]
            axes.append(_cross(_sub(q, p), _sub(r, p)))
    a_edges = [_sub(a_pts[j], a_pts[i]) for i, j in _TET_EDGES]
    b_edges = [_sub(b_pts[j], b_pts[i]) for i, j in _TET_EDGES]
    axes.extend(_cross(ea, eb) for ea in a_edges for eb in b_edges)
    for axis in axes:
        if axis == (0, 0, 0):
            continue
        proj_a = [axis[0] * p[0] + axis[1] * p[1] + axis[2] * p[2] for p in a_pts]
        proj_b = [axis[0] * p[0] + axis[1] * p[1] + axis[2] * p[2] for p in b_pts]
        if max(proj_a) <= min(proj_b) or max(proj_b) <= min(proj_a):
            return False
    return True


def all_pairs_disjoint(mesh) -> CheckResult:
    """Exhaustive exact test that no two sub-tets overlap in the interior.

    Degenerate (zero-volume) tets have no interior and are skipped here;
    the volume check reports them.
    """
    pts = [tuple(mesh.coords[v] for v in t.nodes) for t in mesh.tets]
    live = [t for t in range(len(pts)) if tet_volume6(*pts[t]) != 0]
    intersecting = [
        (a, b) for a, b in combinations(live, 2) if _interiors_intersect(pts[a], pts[b])
    ]
    pairs = len(live) * (len(live) - 1) // 2
    return CheckResult(
        "pairwise-disjoint",
        not intersecting,
        f"{pairs} tet pairs tested, {len(intersecting)} intersecting",
        {
            "pairs": pairs,
            "degenerate_skipped": len(pts) - len(live),
            "intersecting_pairs": intersecting[:16],
        },
    )


def bucket_tets_box_loop(mesh, scale):
    """Side planes of each tet in every cell of [0, N)^3 its bounding box touches.

    A box flat on an axis covers the cell at its low side.  Cells list
    their tets in tet order.
    """
    buckets = {}
    coords = mesh.coords
    n = mesh.order
    for tet in mesh.tets:
        pts = [coords[v] for v in tet.nodes]
        planes = _side_planes(pts, scale)
        xs, ys, zs = zip(*pts)
        lx, ly, lz = min(xs), min(ys), min(zs)
        hx, hy, hz = max(max(xs), lx + 1), max(max(ys), ly + 1), max(max(zs), lz + 1)
        for cx in range(lx if lx > 0 else 0, hx if hx < n else n):
            for cy in range(ly if ly > 0 else 0, hy if hy < n else n):
                for cz in range(lz if lz > 0 else 0, hz if hz < n else n):
                    buckets.setdefault((cx, cy, cz), []).append(planes)
    return buckets

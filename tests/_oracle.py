"""Reference implementations that tests compare the package against.

``all_pairs_disjoint`` is the exhaustive exact all-pairs separating-axis
check.  ``validate`` proves "no overlaps" with a local face certificate
(see ``tetsubdiv.validation``); this is the independent O(N^6) test it
replaced, kept as an oracle for small orders.

``bucket_tets_box_loop`` is the sampler's cell table built with the
clipped bounding-box loops alone, with no one-cell fast path.

``containment_sampling`` is the containment sampler by brute force: it
draws the same stream with ``randrange`` and takes every side test as a
``Fraction`` determinant, with no side planes, buckets or modular tests.
"""

import random
from fractions import Fraction
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


def _side_verdict(pts, p):
    """Side i is the tet with vertex i replaced by p.  In vertex order, the
    first zero side redraws the point and the first sign mismatch puts it outside."""
    first = None
    for i in range(4):
        side = tet_volume6(*pts[:i], p, *pts[i + 1 :])
        if side == 0:
            return "redraw"
        if first is None:
            first = side > 0
        elif (side > 0) != first:
            return "outside"
    return "inside"


def containment_sampling(mesh, samples, seed, denominator, max_attempts):
    """The details of ``check_containment_sampling`` with D = ``denominator``.

    Each triple is three ``randrange(1, N*D)`` draws, discarded when it
    lies outside the element.  A point that lies on a lattice plane, or on
    a side of a candidate tet (a tet whose bounding box, widened to one
    cell on a flat axis, covers the point's unit cell), is redrawn.  More
    than ``max_attempts`` triples for one point stop the sampling.
    """
    d = denominator
    nd = mesh.order * d
    rng = random.Random(seed)
    tets = []
    for tet in mesh.tets:
        pts = [mesh.coords[v] for v in tet.nodes]
        lo = [min(axis) for axis in zip(*pts)]
        hi = [max(max(axis), low + 1) for axis, low in zip(zip(*pts), lo)]
        tets.append((pts, lo, hi))
    gaps, overlaps, redraws, capped_at = [], [], 0, None
    for sample in range(samples):
        attempts = 0
        while True:
            u, v, w = (rng.randrange(1, nd) for _ in range(3))
            attempts += 1
            if u + v + w >= nd:
                continue
            if attempts > max_attempts:
                break
            p = x, y, z = Fraction(u, d), Fraction(v, d), Fraction(w, d)
            if any(c.denominator == 1 for c in (x, y, z, x + y, x + z, y + z, x + y + z)):
                redraws += 1
                continue
            cell = (u // d, v // d, w // d)
            verdicts = [
                _side_verdict(pts, p)
                for pts, lo, hi in tets
                if all(a <= c < b for a, c, b in zip(lo, cell, hi))
            ]
            if "redraw" not in verdicts:
                break
            redraws += 1
        if attempts > max_attempts:
            capped_at = sample
            break
        hits = verdicts.count("inside")
        if hits != 1:
            (overlaps if hits else gaps).append(f"({u}/{d}, {v}/{d}, {w}/{d})")
    details = {
        "samples": samples,
        "seed": seed,
        "denominator": d,
        "gaps": len(gaps),
        "overlaps": len(overlaps),
        "redraws": redraws,
        "gap_points": gaps[:8],
        "overlap_points": overlaps[:8],
    }
    if capped_at is not None:
        details["draw_cap_reached"] = {"point": capped_at, "triples": max_attempts}
    return details

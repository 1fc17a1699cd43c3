"""Exact validation of subdivision meshes.

Every geometric predicate here runs in integer (or scaled-integer)
arithmetic on the lattice coordinates; there are no floating-point
tolerances anywhere.  ``validate`` bundles the individual checks into a
:class:`ValidationReport`:

* ``volumes``: every sub-tet has |6V| = 1 in lattice units and the total
  equals N^3 (all +1 under the positive orientation policy).
* ``face-pairing``: every triangular face is shared by 1 or 2 tets, there
  are exactly 4N^2 single-incidence faces, and all of them lie on one of
  the four element planes.
* ``boundary-congruence``: each element plane is tiled by exactly N^2
  unit lattice triangles whose vertices are exactly the lattice nodes on
  that plane (no new exterior vertices or edges).
* ``counts``: canonical node lattice, N^3 tets, per-level deltas
  3i^2 - 3i + 1, and per-kind totals.
* ``euler-characteristic``: the boundary surface is closed with
  V - E + F = 2.
* ``containment-sampling``: seeded random rational points in the open
  element, each required to lie strictly inside exactly one sub-tet.
  Containment stays exact: each tet's four side tests are integer planes
  n.p + k, built once per tet, whose signs are those of the scaled
  determinants; there are no tolerances.  The seeded stream depends only
  on ``getrandbits``: coordinates are drawn with CPython's ``randrange``
  algorithm and triples outside the element are discarded.  Sampling the
  simplex directly would discard none, but it would change which points a
  seed draws, so seeded reports would change; it is not done.
* ``pairwise-disjoint``: a local certificate that no two sub-tets
  overlap.  For every face shared by two tets, the two vertices opposite
  it lie strictly on opposite sides of its plane; a face shared by three
  or more tets is folded.  One integer plane test per interior face.

The certificate, with nonzero volumes, face pairing and boundary
congruence, proves "no gaps, no overlaps" exactly at every order; this is
the degree argument (Lipman 2014, "Bijective mappings of meshes with
boundary and the degree in mesh processing", SIAM J. Imaging Sci. 7(2);
Edelsbrunner 2001, *Geometry and Topology for Mesh Generation*, ch. 3).
Let c(p) count the tets containing a generic point p.  c changes only
where p crosses a face.  Across a face whose two tets lie on opposite
sides, p leaves one tet and enters the other, so c stays the same.  Far
from the element c = 0.  The faces with one incidence tile the four
element planes exactly once, so c stays 0 outside the element and steps
to 1 across its boundary; inside, no face changes it.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Any, Iterator, Sequence

from .connectivity import POSITIVE, SubTet, SubdivisionMesh, expected_counts
from .lattice import (
    Coords,
    enumerate_nodes,
    node_coords,
    node_count,
    tet_volume6,
)

FaceKey = tuple[int, int, int]

BOUNDARY_PLANES = ("x=0", "y=0", "z=0", "x+y+z=N")
INTERIOR = "interior"

# scale for rational sample points; prime so lattice planes are hard to hit
_SAMPLE_DENOMINATOR = 1_000_003
# triples drawn for one sample point, inside the element or not, before giving up
_MAX_ATTEMPTS = 10_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single validation check."""

    name: str
    passed: bool
    summary: str
    details: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FaceIncidence:
    """The face table: canonical (sorted) face keys, filed by how many tets share them."""

    opposite: dict[FaceKey, list[int]]  # the node opposite the face in each tet, in tet order
    boundary: list[FaceKey]  # faces of one tet, in key order
    pairs: list[FaceKey]  # faces of two tets
    overshared: list[FaceKey]  # faces of three or more tets, in key order


@dataclass(frozen=True)
class ValidationReport:
    """Ordered results of all checks run against one mesh."""

    order: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"validation of order-{self.order} subdivision: "
            f"{'PASS' if self.passed else 'FAIL'}"
        ]
        lines += [
            f"  {'PASS' if c.passed else 'FAIL'}  {c.name}: {c.summary}"
            for c in self.checks
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "order": self.order,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def signed_volume6(tet: SubTet | Sequence[int], coords: Sequence[Coords]) -> int:
    """Deprecated: use ``tet_volume6`` on the four points.  Removed in 0.2.0."""
    warnings.warn(
        "signed_volume6 is deprecated; use tet_volume6 on the four points",
        DeprecationWarning,
        stacklevel=2,
    )
    nodes = tet.nodes if isinstance(tet, SubTet) else tuple(tet)
    p0, p1, p2, p3 = (coords[n] for n in nodes)
    return tet_volume6(p0, p1, p2, p3)


def build_face_incidence(mesh: SubdivisionMesh) -> FaceIncidence:
    """The face table of ``mesh``: see :class:`FaceIncidence`."""
    table: dict[FaceKey, list[int]] = {}
    for tet in mesh.tets:
        a, b, c, d = sorted(tet.nodes)
        # omitting one node of a sorted tuple leaves the other three sorted
        for key, opposite in (((b, c, d), a), ((a, c, d), b), ((a, b, d), c), ((a, b, c), d)):
            table.setdefault(key, []).append(opposite)
    boundary, pairs, overshared = [], [], []
    for key, ids in table.items():
        (pairs if len(ids) == 2 else boundary if len(ids) == 1 else overshared).append(key)
    return FaceIncidence(table, sorted(boundary), pairs, sorted(overshared))


def classify_boundary_face(face: FaceKey, mesh: SubdivisionMesh) -> str:
    """Tag of the element plane containing all 3 face nodes, or ``"interior"``.

    Positions come from ``mesh.coords``.  Planes in lattice coordinates:
    x=0 (column j = 0), y=0 (row k = 0), z=0 (base level i = N) and the
    slanted face x+y+z = N (j+k = i).
    """
    pts = [mesh.coords[v] for v in face]
    if all(p[0] == 0 for p in pts):
        return "x=0"
    if all(p[1] == 0 for p in pts):
        return "y=0"
    if all(p[2] == 0 for p in pts):
        return "z=0"
    if all(sum(p) == mesh.order for p in pts):
        return "x+y+z=N"
    return INTERIOR


def check_volumes(mesh: SubdivisionMesh) -> CheckResult:
    """Every |6V| = 1; totals N^3; all +1 under the positive policy."""
    c = mesh.coords
    vols = [
        tet_volume6(c[p], c[q], c[r], c[s]) for p, q, r, s in (t.nodes for t in mesh.tets)
    ]
    expected = mesh.order**3
    bad = [(t, v) for t, v in enumerate(vols) if abs(v) != 1]
    total_abs = sum(abs(v) for v in vols)
    misoriented = (
        [t for t, v in enumerate(vols) if v != 1]
        if mesh.orientation_policy == POSITIVE
        else []
    )
    passed = not bad and not misoriented and total_abs == expected
    return CheckResult(
        "volumes",
        passed,
        f"{len(vols)} tets, sum |6V| = {total_abs} (expected {expected}), "
        f"{len(bad)} off-unit, {len(misoriented)} misoriented",
        {
            "tets": len(vols),
            "total_abs_volume6": total_abs,
            "expected_total": expected,
            "signed_total_volume6": sum(vols),
            "off_unit_tets": bad[:16],
            "misoriented_tets": misoriented[:16],
        },
    )


def check_face_pairing(
    mesh: SubdivisionMesh, incidence: FaceIncidence | None = None
) -> CheckResult:
    """Face incidence is 1 or 2; exactly 4N^2 boundary faces, all on element planes."""
    incidence = incidence if incidence is not None else build_face_incidence(mesh)
    boundary, overshared = incidence.boundary, incidence.overshared
    stray = [f for f in boundary if classify_boundary_face(f, mesh) == INTERIOR]
    expected = 4 * mesh.order**2
    passed = not overshared and not stray and len(boundary) == expected
    return CheckResult(
        "face-pairing",
        passed,
        f"{len(incidence.opposite)} faces, {len(boundary)} boundary (expected {expected}), "
        f"{len(overshared)} overshared, {len(stray)} unpaired interior",
        {
            "faces": len(incidence.opposite),
            "boundary_faces": len(boundary),
            "expected_boundary_faces": expected,
            "overshared_faces": [(k, len(incidence.opposite[k])) for k in overshared[:16]],
            "unpaired_interior_faces": stray,
        },
    )


_PLANE_PROJECTIONS = {
    "x=0": lambda p: (p[1], p[2]),
    "y=0": lambda p: (p[0], p[2]),
    "z=0": lambda p: (p[0], p[1]),
    "x+y+z=N": lambda p: (p[0], p[1]),
}


def _unit_triangle_kind(tri: list[tuple[int, int]]) -> str | None:
    # tri is lexicographically sorted; returns "up", "down", or None
    a, b = tri[0]
    if tri == [(a, b), (a, b + 1), (a + 1, b)]:
        return "up"
    if tri == [(a, b), (a + 1, b - 1), (a + 1, b)]:
        return "down"
    return None


def check_boundary_congruence(
    mesh: SubdivisionMesh, incidence: FaceIncidence | None = None
) -> CheckResult:
    """The exterior triangulation equals the natural unit triangulation.

    Projects each boundary face onto its element plane's 2D lattice; every
    face must be a unit upward or downward triangle, each plane must carry
    exactly N^2 of them, and the boundary vertices on each plane must be
    exactly that plane's lattice nodes.
    """
    incidence = incidence if incidence is not None else build_face_incidence(mesh)
    n = mesh.order
    per_plane: dict[str, dict[str, int]] = {
        p: {"triangles": 0, "up": 0, "down": 0} for p in BOUNDARY_PLANES
    }
    plane_vertices: dict[str, set[tuple[int, int]]] = {p: set() for p in BOUNDARY_PLANES}
    violations: list[dict[str, Any]] = []
    for face in incidence.boundary:
        plane = classify_boundary_face(face, mesh)
        if plane == INTERIOR:
            violations.append({"face": face, "problem": "boundary face on no element plane"})
            continue
        project = _PLANE_PROJECTIONS[plane]
        tri = sorted(project(mesh.coords[v]) for v in face)
        kind = _unit_triangle_kind(tri)
        if kind is None:
            violations.append({"face": face, "plane": plane, "problem": "not a unit lattice triangle"})
            continue
        per_plane[plane]["triangles"] += 1
        per_plane[plane][kind] += 1
        plane_vertices[plane].update(tri)
    expected_vertices = {
        (a, b) for a in range(n + 1) for b in range(n + 1 - a)
    }
    count_ok = all(per_plane[p]["triangles"] == n * n for p in BOUNDARY_PLANES)
    vertices_ok = all(plane_vertices[p] == expected_vertices for p in BOUNDARY_PLANES)
    passed = not violations and count_ok and vertices_ok
    return CheckResult(
        "boundary-congruence",
        passed,
        f"per-plane triangles {[per_plane[p]['triangles'] for p in BOUNDARY_PLANES]} "
        f"(expected {n * n} each), {len(violations)} violations",
        {
            "per_plane": per_plane,
            "expected_per_plane": n * n,
            "vertex_cover_ok": vertices_ok,
            "violations": violations[:16],
        },
    )


def check_counts(mesh: SubdivisionMesh) -> CheckResult:
    """Canonical lattice, N^3 tets, per-level deltas 3i^2-3i+1, per-kind totals."""
    n = mesh.order
    lattice_ok = (
        len(mesh.nodes) == node_count(n)
        and list(mesh.nodes) == enumerate_nodes(n)
        and list(mesh.coords) == [node_coords(v, n) for v in mesh.nodes]
    )
    expected_levels, expected_kinds = expected_counts(n)
    level_counts = dict.fromkeys(expected_levels, 0)
    kind_counts = dict.fromkeys(expected_kinds, 0)
    # a tet of a foreign level or kind is left uncounted, so its total falls short
    for t in mesh.tets:
        if t.level in level_counts:
            level_counts[t.level] += 1
        if t.kind in kind_counts:
            kind_counts[t.kind] += 1
    passed = (
        lattice_ok
        and len(mesh.tets) == n**3
        and level_counts == expected_levels
        and kind_counts == expected_kinds
    )
    return CheckResult(
        "counts",
        passed,
        f"{len(mesh.nodes)} nodes, {len(mesh.tets)} tets (expected {n ** 3}), "
        f"kinds {kind_counts}",
        {
            "nodes": len(mesh.nodes),
            "expected_nodes": node_count(n),
            "canonical_lattice": lattice_ok,
            "tets": len(mesh.tets),
            "expected_tets": n**3,
            "level_counts": level_counts,
            "expected_level_counts": expected_levels,
            "kind_counts": kind_counts,
            "expected_kind_counts": expected_kinds,
        },
    )


def check_euler_characteristic(
    mesh: SubdivisionMesh, incidence: FaceIncidence | None = None
) -> CheckResult:
    """The boundary complex is a closed surface: V - E + F = 2."""
    incidence = incidence if incidence is not None else build_face_incidence(mesh)
    faces = incidence.boundary
    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for f in faces:
        vertices.update(f)
        edges.update(combinations(f, 2))  # face keys are sorted, so pairs are canonical
    chi = len(vertices) - len(edges) + len(faces)
    return CheckResult(
        "euler-characteristic",
        chi == 2,
        f"boundary V={len(vertices)} E={len(edges)} F={len(faces)}, chi={chi}",
        {
            "vertices": len(vertices),
            "edges": len(edges),
            "faces": len(faces),
            "chi": chi,
        },
    )


SidePlanes = tuple[int, ...]


def _side_planes(pts: Sequence[Coords], scale: int) -> SidePlanes:
    """The four side tests of a tet as 16 integers, (nx, ny, nz, k) per side.

    Side i is ``tet_volume6`` with vertex i replaced by a point p.  That is
    affine in p: for the tet scaled by ``scale`` = D it equals exactly
    D^2 (n_i . p + k_i), where n_i is the lattice-unit normal and k_i is D
    times a lattice-unit offset.  So n_i . p + k_i has the determinant's
    sign and is zero exactly when the determinant is.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = pts
    ex, ey, ez = bx - ax, by - ay, bz - az
    fx, fy, fz = cx - ax, cy - ay, cz - az
    gx, gy, gz = dx - ax, dy - ay, dz - az
    # normals of sides 1-3: (c - a) x (d - a), (d - a) x (b - a), (b - a) x (c - a)
    px, py, pz = fy * gz - fz * gy, fz * gx - fx * gz, fx * gy - fy * gx
    qx, qy, qz = gy * ez - gz * ey, gz * ex - gx * ez, gx * ey - gy * ex
    rx, ry, rz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
    # the four sides sum to the tet's volume for every p, so their normals cancel
    ox, oy, oz = -(px + qx + rx), -(py + qy + ry), -(pz + qz + rz)
    return (
        ox, oy, oz, -scale * (ox * bx + oy * by + oz * bz),
        px, py, pz, -scale * (px * ax + py * ay + pz * az),
        qx, qy, qz, -scale * (qx * ax + qy * ay + qz * az),
        rx, ry, rz, -scale * (rx * ax + ry * ay + rz * az),
    )


def _bucket_tets(
    mesh: SubdivisionMesh, scale: int
) -> dict[tuple[int, int, int], list[SidePlanes]]:
    # Tets are registered in every unit cell of the element that their
    # bounding box touches, so the lookup stays exhaustive even for corrupted
    # meshes that break the one-cell locality of honest output.  Sample points
    # lie in the element, in cells of [0, N)^3, so a box is clipped to those:
    # at most N^3 cells, however far a corrupted node moves.  An honest tet is
    # a Kuhn simplex of one unit cube, so its box spans exactly one cell of
    # [0, N)^3 and is filed there in one step; any other box (flat, repeated
    # or moved nodes, crossing the element's edge) runs the clipped loops.
    # Both branches append in tet order, so each cell keeps its candidate order.
    # The one-cell branch only saves time: the loops file such a box in the
    # same cell, so a mutant of its guard or bounds changes no result.
    buckets: dict[tuple[int, int, int], list[SidePlanes]] = {}
    coords = mesh.coords
    n = mesh.order
    for tet in mesh.tets:
        p, q, r, s = tet.nodes
        pts = (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = (
            coords[p], coords[q], coords[r], coords[s]
        )
        planes = _side_planes(pts, scale)
        lx, ly, lz = min(x0, x1, x2, x3), min(y0, y1, y2, y3), min(z0, z1, z2, z3)
        hx, hy, hz = max(x0, x1, x2, x3), max(y0, y1, y2, y3), max(z0, z1, z2, z3)
        if (
            hx - lx == 1 and hy - ly == 1 and hz - lz == 1
            and 0 <= lx < n and 0 <= ly < n and 0 <= lz < n
        ):
            buckets.setdefault((lx, ly, lz), []).append(planes)
            continue
        # a box flat on an axis still covers the cell at its low side
        hx, hy, hz = max(hx, lx + 1), max(hy, ly + 1), max(hz, lz + 1)
        for cx in range(lx if lx > 0 else 0, hx if hx < n else n):
            for cy in range(ly if ly > 0 else 0, hy if hy < n else n):
                for cz in range(lz if lz > 0 else 0, hz if hz < n else n):
                    buckets.setdefault((cx, cy, cz), []).append(planes)
    return buckets


def _element_points(
    rng: random.Random, nd: int
) -> Iterator[tuple[int, int, int, int]]:
    """Endless points (u, v, w, tries) with u, v, w >= 1 and u + v + w < nd.

    Each coordinate is the value ``rng.randrange(1, nd)`` would return,
    drawn with CPython's own ``randrange`` algorithm: ``getrandbits`` of the
    bit length of nd - 1, rejecting values >= nd - 1, plus 1.  The stream
    therefore depends only on ``getrandbits``.  Triples outside the element
    are discarded; ``tries`` counts the triples drawn for this point.
    """
    getrandbits = rng.getrandbits
    width = nd - 1
    bits = width.bit_length()
    tries = 0
    while True:
        u = getrandbits(bits)
        while u >= width:
            u = getrandbits(bits)
        v = getrandbits(bits)
        while v >= width:
            v = getrandbits(bits)
        w = getrandbits(bits)
        while w >= width:
            w = getrandbits(bits)
        tries += 1
        if u + v + w + 3 < nd:
            yield u + 1, v + 1, w + 1, tries
            tries = 0


def check_containment_sampling(
    mesh: SubdivisionMesh, samples: int = 10_000, seed: int = 0
) -> CheckResult:
    """Seeded random interior points each lie strictly inside exactly one sub-tet.

    Points are rationals u/D with a fixed prime denominator D, drawn
    uniformly in the open element and redrawn whenever they touch a
    lattice plane or any candidate tet's boundary, so every containment
    test is exact and unambiguous.  A point is inside a tet when its four
    side planes (see :func:`_side_planes`) all have the same nonzero sign;
    sides are tested in vertex order and the first zero (redraw) or sign
    mismatch (outside) decides.  If 10,000 drawn triples give no usable
    point, sampling stops and the check fails, naming the cap in its
    summary and details.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n = mesh.order
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    d = _SAMPLE_DENOMINATOR
    nd = n * d
    buckets = _bucket_tets(mesh, d)
    points = _element_points(random.Random(seed), nd)
    gaps: list[str] = []
    overlaps: list[str] = []
    redraws = 0
    capped_at = None  # the point whose draws reached the cap, if any
    for sample in range(samples):
        attempts = 0
        while True:
            u, v, w, tries = next(points)
            attempts += tries
            if attempts > _MAX_ATTEMPTS:
                break
            if not (
                u % d and v % d and w % d
                and (u + v) % d and (u + w) % d and (v + w) % d and (u + v + w) % d
            ):
                redraws += 1
                continue
            hits = 0
            for (
                x0, y0, z0, k0, x1, y1, z1, k1, x2, y2, z2, k2, x3, y3, z3, k3
            ) in buckets.get((u // d, v // d, w // d), ()):
                s = x0 * u + y0 * v + z0 * w + k0
                if not s:
                    break
                inside = s > 0
                s = x1 * u + y1 * v + z1 * w + k1
                if not s:
                    break
                if (s > 0) is not inside:
                    continue
                s = x2 * u + y2 * v + z2 * w + k2
                if not s:
                    break
                if (s > 0) is not inside:
                    continue
                s = x3 * u + y3 * v + z3 * w + k3
                if not s:
                    break
                if (s > 0) is inside:
                    hits += 1
            else:
                break
            redraws += 1  # the point lies on a candidate tet's boundary
        if attempts > _MAX_ATTEMPTS:
            capped_at = sample
            break
        if hits != 1:
            (overlaps if hits else gaps).append(f"({u}/{d}, {v}/{d}, {w}/{d})")
    summary = f"{samples} points (seed {seed}): {len(gaps)} gaps, {len(overlaps)} overlaps"
    details: dict[str, Any] = {
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
        # a tet whose sides are zero over a whole cell turns every point there
        # into a redraw; that is a failure of the mesh, reported, not raised
        summary += (
            f"; draw cap reached: no usable point in {_MAX_ATTEMPTS} triples "
            f"for point {capped_at}"
        )
        details["draw_cap_reached"] = {"point": capped_at, "triples": _MAX_ATTEMPTS}
    passed = not gaps and not overlaps and capped_at is None
    return CheckResult("containment-sampling", passed, summary, details)


def check_pairwise_disjoint(
    mesh: SubdivisionMesh, incidence: FaceIncidence | None = None
) -> CheckResult:
    """Every face shared by two tets separates them: no two sub-tets overlap.

    For a face (a, b, c) with normal n = (b - a) x (c - a), the vertices p
    and q opposite it in its two tets must give nonzero n.(p - a) and
    n.(q - a) of opposite signs.  A face that fails, or that three or more
    tets share, is folded.  ``pairs`` counts the face-adjacent tet pairs
    tested: 2N^3 - 2N^2 on an honest mesh.  Positions come from
    ``mesh.coords``.
    """
    incidence = incidence if incidence is not None else build_face_incidence(mesh)
    coords = mesh.coords
    opposite = incidence.opposite
    folded = list(incidence.overshared)
    for face in incidence.pairs:
        p, q = opposite[face]
        a, b, c = face
        ax, ay, az = coords[a]
        bx, by, bz = coords[b]
        cx, cy, cz = coords[c]
        ex, ey, ez = bx - ax, by - ay, bz - az
        fx, fy, fz = cx - ax, cy - ay, cz - az
        nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
        px, py, pz = coords[p]
        qx, qy, qz = coords[q]
        side_p = nx * (px - ax) + ny * (py - ay) + nz * (pz - az)
        side_q = nx * (qx - ax) + ny * (qy - ay) + nz * (qz - az)
        if side_p * side_q >= 0:
            folded.append(face)  # same side, or on the plane
    folded.sort()
    return CheckResult(
        "pairwise-disjoint",
        not folded,
        f"{len(incidence.pairs)} face-adjacent tet pairs tested, {len(folded)} folded faces",
        {
            "pairs": len(incidence.pairs),
            "folded": len(folded),
            "folded_faces": folded[:16],
        },
    )


def validate(
    mesh: SubdivisionMesh, samples: int = 10_000, seed: int = 0
) -> ValidationReport:
    """Run every check against ``mesh`` and collect the report."""
    # sampled first, so its buckets and the face table are never alive together
    sampling = check_containment_sampling(mesh, samples=samples, seed=seed)
    incidence = build_face_incidence(mesh)
    checks = (
        check_volumes(mesh),
        check_face_pairing(mesh, incidence),
        check_boundary_congruence(mesh, incidence),
        check_counts(mesh),
        check_euler_characteristic(mesh, incidence),
        sampling,
        check_pairwise_disjoint(mesh, incidence),
    )
    return ValidationReport(mesh.order, checks)

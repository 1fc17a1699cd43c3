"""Correctness gate: structural checks on exported bytes, plus digests.

Every function returns a list of problems (empty when the output is
correct), so the harness can count a failed operation without raising.
The parsers here are written from the file-format specs, not from the
package's writers, so a writer bug cannot hide behind its own reader.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from itertools import combinations


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_vtk(
    data: bytes,
    n_points: int,
    n_cells: int,
    field_values: Sequence[float] | None,
    points: Sequence[tuple[float, float, float]] | None = None,
) -> list[str]:
    """Legacy VTK: POINTS = n_points, CELLS = n_cells, ids in range, field block = input.

    If ``points`` is given, every written position must match it to within
    rounding, relative to the extent of the points.
    """
    lines = data.decode("ascii").split("\n")
    problems = []
    try:
        if lines[4] != f"POINTS {n_points} double":
            problems.append(f"points header {lines[4]!r}, expected {n_points} points")
        if points is not None:
            tol = 1e-9 * max(1.0, max(abs(c) for p in points for c in p))
            for line, expected in zip(lines[5 : 5 + n_points], points):
                written = tuple(float(tok) for tok in line.split())
                if len(written) != 3 or any(abs(a - b) > tol for a, b in zip(written, expected)):
                    problems.append(f"point {line!r}, expected {expected}")
                    break
        at = 5 + n_points
        if lines[at] != f"CELLS {n_cells} {5 * n_cells}":
            problems.append(f"cells header {lines[at]!r}, expected {n_cells} cells")
        for line in lines[at + 1 : at + 1 + n_cells]:
            count, *ids = (int(tok) for tok in line.split())
            if count != 4 or len(ids) != 4 or not all(0 <= v < n_points for v in ids):
                problems.append(f"bad cell {line!r}")
                break
        at += 1 + n_cells
        if lines[at] != f"CELL_TYPES {n_cells}" or any(
            t != "10" for t in lines[at + 1 : at + 1 + n_cells]
        ):
            problems.append("cell types are not all VTK_TETRA")
        at += 1 + n_cells
        if field_values is not None:
            if lines[at] != f"POINT_DATA {n_points}" or lines[at + 2] != "LOOKUP_TABLE default":
                problems.append("missing POINT_DATA scalar block")
            written = tuple(float(v) for v in lines[at + 3 : at + 3 + n_points])
            if written != tuple(field_values):
                problems.append("field block differs from the input values")
    except (IndexError, ValueError) as exc:
        problems.append(f"truncated or malformed VTK: {exc}")
    return problems


def check_off(data: bytes, order: int) -> list[str]:
    """OFF boundary: 4N^2 triangles over in-range vertices, and V - E + F = 2."""
    lines = data.decode("ascii").split("\n")
    try:
        if lines[0] != "OFF":
            return ["missing OFF header"]
        n_verts, n_faces, _ = (int(tok) for tok in lines[1].split())
        edges = set()
        for line in lines[2 + n_verts : 2 + n_verts + n_faces]:
            count, *ids = (int(tok) for tok in line.split())
            if count != 3 or len(ids) != 3 or not all(0 <= v < n_verts for v in ids):
                return [f"bad face {line!r}"]
            edges.update(tuple(sorted(e)) for e in combinations(ids, 2))
    except (IndexError, ValueError) as exc:
        return [f"truncated or malformed OFF: {exc}"]
    problems = []
    if n_faces != 4 * order * order:
        problems.append(f"{n_faces} boundary faces, expected {4 * order * order}")
    chi = n_verts - len(edges) + n_faces
    if chi != 2:
        problems.append(f"boundary V - E + F = {chi}, expected 2")
    return problems

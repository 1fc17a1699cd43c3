"""Acceptance suite: one test per required property, one [PASS]/[FAIL] line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Expected values are either arithmetic identities or literals that
were derived by hand and cross-checked against brute-force enumeration;
where a property has an independent formulation (determinants, face
census), this file recomputes it from scratch instead of trusting the
library's own validation path.
"""

import io
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

from _meshes import replace_tets, without_chunks
from _oracle import all_pairs_disjoint
from tetsubdiv.connectivity import AS_GENERATED, CHUNK, SubTet, chunk_tets, generate
from tetsubdiv.io import FieldData, read_json, write_json, write_vtk_legacy
from tetsubdiv.validation import (
    check_boundary_congruence,
    check_containment_sampling,
    check_counts,
    check_euler_characteristic,
    check_face_pairing,
    check_pairwise_disjoint,
    check_volumes,
    validate,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def reported(label):
    try:
        yield
    except BaseException as exc:
        print(f"[FAIL] {label}: {type(exc).__name__}: {exc}")
        raise


def _det(matrix):
    """Laplace expansion along the first row; independent of the library."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = 0
    for col, value in enumerate(matrix[0]):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        total += (-1) ** col * value * _det(minor)
    return total


def _volume6_homogeneous(p0, p1, p2, p3):
    return _det([[1, p[0], p[1], p[2]] for p in (p0, p1, p2, p3)])


def test_criterion_1_subtet_counts():
    label = "criterion 1 (per-level and total sub-tet counts, orders 1..20)"
    with reported(label):
        t0 = time.perf_counter()
        for n in range(1, 21):
            mesh = generate(n)
            assert len(mesh.tets) == n**3
            by_tag = Counter(t.level for t in mesh.tets)
            by_depth = Counter(max(mesh.nodes[v].i for v in t.nodes) for t in mesh.tets)
            for i in range(1, n + 1):
                expected = 3 * i * i - 3 * i + 1
                assert expected == i**3 - (i - 1) ** 3
                assert by_tag[i] == expected
                assert by_depth[i] == expected
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    print(f"[PASS] {label}: totals N^3, levels 3i^2-3i+1, in {elapsed:.2f}s")


def test_criterion_2_unit_volumes_exact():
    label = "criterion 2 (every |6V| = 1 and volumes sum to N^3, orders 1..20)"
    with reported(label):
        for n in range(1, 21):
            mesh = generate(n)
            volumes = [
                _volume6_homogeneous(*(mesh.coords[v] for v in t.nodes))
                for t in mesh.tets
            ]
            assert all(v == 1 for v in volumes)
            assert sum(volumes) == n**3
        as_gen = generate(6, AS_GENERATED)
        volumes = [
            _volume6_homogeneous(*(as_gen.coords[v] for v in t.nodes))
            for t in as_gen.tets
        ]
        assert all(abs(v) == 1 for v in volumes)
        assert sum(abs(v) for v in volumes) == 6**3
    print(f"[PASS] {label}: 44100 exact integer determinants checked")


def test_criterion_3_golden_connectivity():
    label = "criterion 3 (golden connectivity for orders 1 and 2)"
    with reported(label):
        one = generate(1, AS_GENERATED)
        assert one.tets == (SubTet((0, 1, 2, 3), "upright", 1),)

        two = generate(2, AS_GENERATED)
        vertex_sets = {frozenset(t.nodes) for t in two.tets}
        assert vertex_sets == {
            frozenset({0, 1, 2, 3}),
            frozenset({1, 4, 5, 7}),
            frozenset({2, 5, 6, 8}),
            frozenset({3, 7, 8, 9}),
            frozenset({1, 8, 2, 5}),
            frozenset({1, 8, 2, 3}),
            frozenset({1, 8, 7, 3}),
            frozenset({1, 8, 7, 5}),
        }
        assert len(two.tets) == 8
        fills = [t for t in two.tets if t.kind == "fill"]
        assert len(fills) == 4
        for t in fills:
            assert {1, 8} <= set(t.nodes)
    print(f"[PASS] {label}: order 1 = corner tet, order 2 = 8 tets around diagonal (1, 8)")


def test_criterion_4_watertight_boundary():
    label = "criterion 4 (face pairing, boundary congruence, Euler, orders 1..12)"
    with reported(label):
        for n in range(1, 13):
            mesh = generate(n)
            census = Counter(
                tuple(sorted(triple))
                for t in mesh.tets
                for triple in combinations(t.nodes, 3)
            )
            assert set(census.values()) <= {1, 2}
            boundary = [f for f, c in census.items() if c == 1]
            assert len(boundary) == 4 * n * n

            plane_tests = {
                "x=0": lambda p: p[0] == 0,
                "y=0": lambda p: p[1] == 0,
                "z=0": lambda p: p[2] == 0,
                "x+y+z=N": lambda p: sum(p) == n,
            }
            per_plane = Counter()
            for face in boundary:
                pts = [mesh.coords[v] for v in face]
                planes = [tag for tag, on in plane_tests.items() if all(map(on, pts))]
                assert len(planes) == 1, f"boundary face {face} on planes {planes}"
                per_plane[planes[0]] += 1
            assert per_plane == Counter(
                {"x=0": n * n, "y=0": n * n, "z=0": n * n, "x+y+z=N": n * n}
            )

            vertices = {v for f in boundary for v in f}
            edges = {e for f in boundary for e in combinations(f, 2)}
            assert len(vertices) - len(edges) + len(boundary) == 2

            assert check_face_pairing(mesh).passed
            assert check_boundary_congruence(mesh).passed
            assert check_euler_characteristic(mesh).passed
    print(f"[PASS] {label}: all boundaries watertight, 4N^2 unit triangles, chi = 2")


def test_criterion_5_disjoint_interiors():
    label = "criterion 5 (pairwise disjoint orders 1..3, containment orders 1..8)"
    with reported(label):
        t0 = time.perf_counter()
        for n in (1, 2, 3):
            result = all_pairs_disjoint(generate(n))
            assert result.passed
            assert result.details["intersecting_pairs"] == []
            assert result.details["pairs"] == n**3 * (n**3 - 1) // 2
        for n in range(1, 9):
            result = check_containment_sampling(generate(n), samples=10_000, seed=0)
            assert result.passed, result.summary
            assert result.details["gaps"] == 0
            assert result.details["overlaps"] == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    print(f"[PASS] {label}: 0 intersections, 80000 sampled points each in exactly one tet, "
          f"in {elapsed:.2f}s")


def test_criterion_6_third_construction_is_necessary():
    label = "criterion 6 (dropping the deep-interior tets leaves one tet-shaped gap)"
    with reported(label):
        partial = without_chunks(3)
        assert len(partial.tets) == 26

        pairing = check_face_pairing(partial)
        assert not pairing.passed
        orphans = pairing.details["unpaired_interior_faces"]
        missing = set(chunk_tets(3)[0].nodes)
        assert missing == {5, 7, 8, 15}
        assert orphans == sorted(combinations(sorted(missing), 3))

        sampling = check_containment_sampling(partial, samples=10_000, seed=0)
        assert not sampling.passed
        assert sampling.details["gaps"] > 0
        assert sampling.details["overlaps"] == 0

        full = validate(generate(3))
        assert full.passed, full.to_text()
    print(f"[PASS] {label}: 26 tets fail exactly at the 4 faces of tet {tuple(sorted(missing))}, "
          f"27 tets pass")


def test_criterion_7_mutation_sensitivity():
    label = "criterion 7 (every check fails on some corrupted mesh)"
    with reported(label):
        mesh = generate(3)
        chunk_at = next(i for i, t in enumerate(mesh.tets) if t.kind == CHUNK)
        chunk = mesh.tets[chunk_at]
        a, b, c, d = mesh.tets[0].nodes
        swapped = SubTet((a, b, d, c), mesh.tets[0].kind, mesh.tets[0].level)

        corrupted = {
            "deleted interior tet": replace_tets(
                mesh, mesh.tets[:chunk_at] + mesh.tets[chunk_at + 1 :]
            ),
            "deleted corner tet": replace_tets(mesh, mesh.tets[1:]),
            "permuted tet nodes": replace_tets(mesh, (swapped,) + mesh.tets[1:]),
            "duplicated tet": replace_tets(mesh, mesh.tets + (chunk,)),
        }

        checks = (
            check_volumes,
            check_face_pairing,
            check_boundary_congruence,
            check_counts,
            check_euler_characteristic,
            lambda m: check_containment_sampling(m, samples=10_000, seed=0),
            check_pairwise_disjoint,
        )
        failures = {}
        for name, bad in corrupted.items():
            failed_here = {r.name for r in (chk(bad) for chk in checks) if not r.passed}
            assert failed_here, f"{name} went undetected"
            failures[name] = failed_here

        all_check_names = {chk(mesh).name for chk in checks}
        uncovered = all_check_names - set().union(*failures.values())
        assert not uncovered, f"no corruption triggers: {uncovered}"
    print(f"[PASS] {label}: {sorted(all_check_names)} all fail somewhere across "
          f"{len(corrupted)} corruptions")


def test_criterion_8_serialization_round_trip_and_goldens():
    label = "criterion 8 (JSON round-trip orders 1..10, frozen VTK bytes orders 1..4)"
    with reported(label):
        for n in range(1, 11):
            mesh = generate(n)
            again, fields = read_json(io.BytesIO(write_json(mesh)))
            assert again == mesh
            assert fields == []
        mesh = generate(2, AS_GENERATED)
        field = FieldData("speed", tuple(float(i) / 4 for i in range(10)))
        again, fields = read_json(io.BytesIO(write_json(mesh, fields=[field])))
        assert (again, fields) == (mesh, [field])

        for n in (1, 2, 3, 4):
            frozen = (GOLDEN_DIR / f"order{n}.vtk").read_bytes()
            assert write_vtk_legacy(generate(n)) == frozen
    print(f"[PASS] {label}: lossless JSON, byte-identical VTK")

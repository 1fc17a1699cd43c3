"""Exact validation checks: pass on honest meshes, fail on corrupted ones."""

import dataclasses
import io
import json
import random
import re
from itertools import combinations

import pytest

from _meshes import (
    replace_tets,
    with_doubled,
    with_moved_node,
    with_repeated_node,
    without_chunks,
)
from _oracle import _LOCAL_FACES, all_pairs_disjoint, bucket_tets_box_loop
from tetsubdiv.connectivity import (
    AS_GENERATED,
    CHUNK,
    POSITIVE,
    SubTet,
    SubdivisionMesh,
    generate,
)
from tetsubdiv.io import apply_ordering_permutation, read_json, write_json
from tetsubdiv.lattice import enumerate_nodes, node_coords, tet_volume6
from tetsubdiv.validation import (
    _MAX_ATTEMPTS,
    _SAMPLE_DENOMINATOR,
    BOUNDARY_PLANES,
    INTERIOR,
    _bucket_tets,
    _side_planes,
    build_face_incidence,
    check_boundary_congruence,
    check_containment_sampling,
    check_counts,
    check_euler_characteristic,
    check_face_pairing,
    check_pairwise_disjoint,
    check_volumes,
    classify_boundary_face,
    signed_volume6,
    validate,
)


def test_validate_passes_for_small_orders():
    for n in range(1, 7):
        report = validate(generate(n), samples=400, seed=1)
        assert report.passed, report.to_text()


def test_validate_passes_for_as_generated_policy():
    report = validate(generate(3, AS_GENERATED), samples=400, seed=1)
    assert report.passed, report.to_text()


def test_report_serialization_shapes():
    report = validate(generate(2), samples=50, seed=0)
    text = report.to_text()
    assert text.splitlines()[0] == "validation of order-2 subdivision: PASS"
    assert len(text.splitlines()) == 1 + len(report.checks)
    doc = json.loads(report.to_json())
    assert doc["order"] == 2
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [c.name for c in report.checks]


def test_signed_volume_accepts_tet_or_ids():
    mesh = generate(2)
    assert signed_volume6(mesh.tets[0], mesh.coords) == 1
    assert signed_volume6(mesh.tets[0].nodes, mesh.coords) == 1


def test_classify_boundary_face():
    mesh = generate(2)
    assert classify_boundary_face((1, 4, 7), mesh) == "x=0"
    assert classify_boundary_face((1, 4, 5), mesh) == "y=0"
    assert classify_boundary_face((4, 5, 7), mesh) == "z=0"
    assert classify_boundary_face((2, 6, 8), mesh) == "x+y+z=N"
    assert classify_boundary_face((1, 2, 3), mesh) == INTERIOR


def test_known_interior_face_incidences():
    mesh = generate(2)
    incidence = build_face_incidence(mesh).opposite
    assert len(incidence[(1, 5, 7)]) == 2
    assert len(incidence[(1, 5, 8)]) == 2
    assert classify_boundary_face((1, 5, 7), mesh) == INTERIOR
    assert classify_boundary_face((1, 5, 8), mesh) == INTERIOR


def _reference_incidence(mesh):
    """The face table as built before it stored opposite nodes: (tet, local face) pairs."""
    incidence = {}
    for t, tet in enumerate(mesh.tets):
        for f, (a, b, c) in enumerate(_LOCAL_FACES):
            key = tuple(sorted((tet.nodes[a], tet.nodes[b], tet.nodes[c])))
            incidence.setdefault(key, []).append((t, f))
    return incidence


def _face_table_meshes():
    meshes = [
        pytest.param(generate(n, policy), id=f"{n}-{policy}")
        for n in range(1, 7)
        for policy in (POSITIVE, AS_GENERATED)
    ]
    mesh = generate(4)
    table = list(range(len(mesh.nodes)))
    random.Random(4).shuffle(table)
    return meshes + [
        pytest.param(apply_ordering_permutation(mesh, table), id="permuted"),
        pytest.param(with_repeated_node(mesh, 5), id="repeated-node"),
        pytest.param(with_doubled(mesh, mesh.tets[9]), id="doubled-tet"),
        pytest.param(with_moved_node(mesh, 12, 0, 1), id="moved-node"),
        pytest.param(without_chunks(3), id="without-chunks"),
    ]


@pytest.mark.parametrize("mesh", _face_table_meshes())
def test_face_table_matches_the_local_face_reference(mesh):
    incidence = build_face_incidence(mesh)
    reference = _reference_incidence(mesh)
    assert incidence.opposite.keys() == reference.keys()
    by_count = {1: [], 2: [], 3: []}  # each key, filed by how many tets share it
    for key, sharing in reference.items():
        assert incidence.opposite[key] == [mesh.tets[t].nodes[f] for t, f in sharing], key
        by_count[min(len(sharing), 3)].append(key)
    assert incidence.boundary == sorted(by_count[1])
    assert sorted(incidence.pairs) == sorted(by_count[2])
    assert incidence.overshared == sorted(by_count[3])


def test_boundary_face_count_and_planes():
    for n in (1, 2, 3, 5):
        mesh = generate(n)
        faces = build_face_incidence(mesh).boundary
        assert len(faces) == 4 * n * n
        by_plane = {p: 0 for p in BOUNDARY_PLANES}
        for f in faces:
            by_plane[classify_boundary_face(f, mesh)] += 1
        assert by_plane == {p: n * n for p in BOUNDARY_PLANES}


def test_congruence_up_down_split():
    n = 3
    result = check_boundary_congruence(generate(n))
    assert result.passed
    for plane in BOUNDARY_PLANES:
        stats = result.details["per_plane"][plane]
        assert stats["up"] == n * (n + 1) // 2
        assert stats["down"] == n * (n - 1) // 2


def test_volumes_detects_misorientation():
    mesh = generate(3)
    a, b, c, d = mesh.tets[0].nodes
    flipped = SubTet((a, b, d, c), mesh.tets[0].kind, mesh.tets[0].level)
    bad = replace_tets(mesh, (flipped,) + mesh.tets[1:])
    result = check_volumes(bad)
    assert not result.passed
    assert result.details["misoriented_tets"] == [0]


def test_volumes_detects_degenerate_tet():
    mesh = generate(3)
    a, b, c, _ = mesh.tets[5].nodes
    squashed = SubTet((a, b, c, a), "upright", mesh.tets[5].level)
    bad = replace_tets(mesh, mesh.tets[:5] + (squashed,) + mesh.tets[6:])
    result = check_volumes(bad)
    assert not result.passed
    assert (5, 0) in result.details["off_unit_tets"]


def test_face_pairing_detects_deleted_tet():
    mesh = generate(3)
    bad = replace_tets(mesh, mesh.tets[:-1])
    result = check_face_pairing(bad)
    assert not result.passed
    assert result.details["unpaired_interior_faces"]


def test_face_pairing_detects_duplicated_tet():
    mesh = generate(3)
    bad = replace_tets(mesh, mesh.tets + (mesh.tets[10],))
    result = check_face_pairing(bad)
    assert not result.passed
    assert result.details["overshared_faces"]


def test_boundary_checks_read_mesh_coords():
    # node 7 of order 2 moves from (0, 1, 0) onto the corner (0, 2, 0); its
    # id still names the old position, which the checks must not use
    moved = with_moved_node(generate(2), 7, 1, 1)
    result = check_boundary_congruence(moved)
    assert not result.passed
    assert {v["plane"] for v in result.details["violations"]} == {"x=0", "z=0"}


def test_congruence_detects_deleted_corner_tet():
    mesh = generate(3)
    bad = replace_tets(mesh, mesh.tets[1:])
    result = check_boundary_congruence(bad)
    assert not result.passed


def test_congruence_detects_oversized_boundary_triangle():
    # one tet spanning the whole order-2 element: boundary triangles of side 2
    nodes = tuple(enumerate_nodes(2))
    coords = tuple(node_coords(v, 2) for v in nodes)
    big = SubTet((0, 4, 6, 9), "upright", 1)
    result = check_boundary_congruence(
        SubdivisionMesh(2, nodes, coords, (big,), AS_GENERATED)
    )
    assert not result.passed
    problems = {v["problem"] for v in result.details["violations"]}
    assert "not a unit lattice triangle" in problems


def test_counts_detects_wrong_totals():
    mesh = generate(3)
    assert not check_counts(replace_tets(mesh, mesh.tets[:-1])).passed
    assert not check_counts(replace_tets(mesh, mesh.tets + (mesh.tets[0],))).passed
    assert check_counts(mesh).passed


def test_counts_detects_foreign_tags():
    mesh = generate(2)
    weird = SubTet(mesh.tets[0].nodes, "upright", 99)
    assert not check_counts(replace_tets(mesh, (weird,) + mesh.tets[1:])).passed


def test_euler_characteristic_good_and_cavity():
    assert check_euler_characteristic(generate(3)).passed
    cavity = check_euler_characteristic(without_chunks(3))
    assert not cavity.passed
    assert cavity.details["chi"] == 0


def _relabelled_positive(n):
    return dataclasses.replace(generate(n, AS_GENERATED), orientation_policy=POSITIVE)


def _doubled_coords(n):
    mesh = generate(n)
    doubled = tuple((2 * x, 2 * y, 2 * z) for x, y, z in mesh.coords)
    return dataclasses.replace(mesh, coords=doubled)


def _every_tet_doubled(n):
    mesh = generate(n)
    return replace_tets(mesh, mesh.tets + mesh.tets)


@pytest.mark.parametrize(
    "make, check, listed, counted",
    [
        (_relabelled_positive, check_volumes, "misoriented_tets", r"(\d+) misoriented"),
        (_doubled_coords, check_volumes, "off_unit_tets", r"(\d+) off-unit"),
        (_doubled_coords, check_boundary_congruence, "violations", r"(\d+) violations"),
        (_every_tet_doubled, check_face_pairing, "overshared_faces", r"(\d+) overshared"),
        (_every_tet_doubled, check_pairwise_disjoint, "folded_faces", r"(\d+) folded"),
    ],
    ids=["misoriented", "off-unit", "congruence", "overshared", "folded"],
)
def test_report_lists_stop_at_16_entries(make, check, listed, counted):
    result = check(make(3))
    assert int(re.search(counted, result.summary).group(1)) > 16
    assert len(result.details[listed]) == 16


def test_sampling_defaults_are_10000_points_from_seed_0():
    direct = check_containment_sampling(generate(1)).details
    (bundled,) = [
        c.details for c in validate(generate(1)).checks if c.name == "containment-sampling"
    ]
    for details in (direct, bundled):
        assert (details["samples"], details["seed"]) == (10_000, 0)


def test_containment_is_deterministic_and_seed_sensitive():
    mesh = generate(2)
    a = check_containment_sampling(mesh, samples=300, seed=7)
    b = check_containment_sampling(mesh, samples=300, seed=7)
    c = check_containment_sampling(mesh, samples=300, seed=8)
    assert a == b
    assert a.passed and c.passed
    assert a.details != c.details


def test_containment_detects_gap():
    result = check_containment_sampling(without_chunks(3), samples=2000, seed=0)
    assert not result.passed
    assert result.details["gaps"] > 0
    assert result.details["overlaps"] == 0


def test_containment_detects_overlap():
    mesh = generate(3)
    doubled = replace_tets(mesh, mesh.tets + (mesh.tets[-1],))
    result = check_containment_sampling(doubled, samples=2000, seed=0)
    assert not result.passed
    assert result.details["overlaps"] > 0


def test_containment_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        check_containment_sampling(generate(1), samples=0)


@pytest.mark.parametrize("order", [0, -1])
def test_containment_rejects_order_below_one(order):
    mesh = SubdivisionMesh(order, (), (), (), AS_GENERATED)
    with pytest.raises(ValueError, match="order"):
        check_containment_sampling(mesh, samples=1)


def _edited_order2(edit):
    """An order-2 document edited as parsed JSON, then read back."""
    doc = json.loads(write_json(generate(2)))
    edit(doc)
    mesh, _ = read_json(io.BytesIO(json.dumps(doc).encode()))
    return mesh


@pytest.mark.parametrize("far", [300, 3000])
def test_buckets_stay_in_the_element_for_a_far_node(far):
    # node 9 is the corner (0, 2, 0); unclipped, its tets' boxes would fill
    # about far^2 cells
    mesh = _edited_order2(lambda doc: doc["nodes"][9].update(x=far, y=far))
    assert len(_bucket_tets(mesh, _SAMPLE_DENOMINATOR)) <= mesh.order**3
    report = validate(mesh, samples=200)
    assert not report.passed


def _bucket_meshes():
    """The face-table meshes, plus boxes that the one-cell fast path must pass on."""
    mesh = generate(4)
    order2 = generate(2)
    # nodes (0, 0, 0), (1, 0, 0), (0, 1, 0) and (1, 1, 0): a box flat in z
    base = [order2.coords.index(p) for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))]
    flat = dataclasses.replace(order2.tets[0], nodes=tuple(base))
    order3 = generate(3)
    shifted = tuple((x - 1, y - 1, z - 1) for x, y, z in order3.coords)
    return _face_table_meshes() + [
        *(
            pytest.param(with_moved_node(mesh, 15, axis, 1), id=f"moved-node-{axis}")
            for axis in range(3)
        ),
        pytest.param(with_moved_node(order2, 9, 0, 300), id="far-node"),
        pytest.param(replace_tets(order2, order2.tets + (flat,)), id="flat-box"),
        # one-cell boxes outside [0, N)^3: below it, and above it under a smaller order
        pytest.param(dataclasses.replace(order3, coords=shifted), id="shifted-by-minus-one"),
        pytest.param(dataclasses.replace(order3, order=2), id="order-3-relabelled-2"),
        pytest.param(dataclasses.replace(generate(1), order=5000), id="order-5000-one-tet"),
    ]


@pytest.mark.parametrize("mesh", _bucket_meshes())
def test_buckets_match_the_box_loop_reference(mesh):
    # equal dicts: the same cells, each listing the same planes in the same order
    assert _bucket_tets(mesh, _SAMPLE_DENOMINATOR) == bucket_tets_box_loop(
        mesh, _SAMPLE_DENOMINATOR
    )


def test_draw_cap_fails_the_check_instead_of_raising():
    # a repeated node id zeroes side 1 everywhere and the box covers the
    # element, so every drawn point is redrawn until the cap
    mesh = _edited_order2(
        lambda doc: doc["tets"].append({"nodes": [0, 6, 0, 9], "kind": "upright", "level": 2})
    )
    report = validate(mesh, samples=200)
    assert not report.passed
    result = next(c for c in report.checks if c.name == "containment-sampling")
    assert not result.passed
    assert "draw cap reached" in result.summary
    assert result.details["draw_cap_reached"] == {"point": 0, "triples": _MAX_ATTEMPTS}


def test_side_planes_match_the_scaled_determinants():
    rng = random.Random(3)
    d = _SAMPLE_DENOMINATOR
    for _ in range(200):
        pts = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4)]
        p = tuple(rng.randint(-4 * d, 4 * d) for _ in range(3))
        planes = _side_planes(pts, d)
        scaled = [tuple(d * c for c in q) for q in pts]
        for side in range(4):
            nx, ny, nz, k = planes[4 * side : 4 * side + 4]
            replaced = scaled[:side] + [p] + scaled[side + 1 :]
            assert d * d * (nx * p[0] + ny * p[1] + nz * p[2] + k) == tet_volume6(*replaced)


def test_pairwise_disjoint_good_meshes():
    for policy in (POSITIVE, AS_GENERATED):
        for n in range(1, 9):
            result = check_pairwise_disjoint(generate(n, policy))
            assert result.passed, result.summary
            assert result.details["pairs"] == 2 * n**3 - 2 * n**2
            assert result.details["folded"] == 0


def _with_doubled_chunk(mesh):
    return with_doubled(mesh, next(t for t in mesh.tets if t.kind == CHUNK))


@pytest.mark.parametrize(
    "build",
    [
        lambda: with_doubled(generate(3), generate(3).tets[0]),
        lambda: _with_doubled_chunk(generate(3)),
        lambda: with_moved_node(generate(2), 7, 1, 1),
        lambda: with_repeated_node(generate(3), 5),
    ],
    ids=["doubled-corner-tet", "doubled-chunk", "moved-node", "repeated-node"],
)
def test_pairwise_certificate_trips_on_folds(build):
    result = check_pairwise_disjoint(build())
    assert not result.passed
    assert result.details["folded"] > 0
    assert result.details["folded_faces"]


def test_pairwise_certificate_names_overshared_faces():
    mesh = generate(3)
    doubled = _with_doubled_chunk(mesh)
    overshared = {face for face, _ in check_face_pairing(doubled).details["overshared_faces"]}
    result = check_pairwise_disjoint(doubled)
    assert set(result.details["folded_faces"]) == overshared
    assert result.details["pairs"] == 2 * 27 - 2 * 9 - 4


def test_pairwise_detects_duplicate():
    mesh = generate(2)
    doubled = with_doubled(mesh, mesh.tets[3])
    result = all_pairs_disjoint(doubled)
    assert not result.passed
    assert (3, 8) in result.details["intersecting_pairs"]
    assert not check_pairwise_disjoint(doubled).passed


def test_pairwise_detects_partial_overlap():
    # second tet is the first one reflected through its base plane z=0, then
    # nudged to overlap: use the big corner tet and a shifted copy
    nodes = tuple(enumerate_nodes(2))
    coords = tuple(node_coords(v, 2) for v in nodes)
    # (0,0,0)-(2,0,0)-(0,2,0)-(0,0,2) and (0,0,0)-(1,0,0)-(0,1,0)-(0,0,1) nest
    big = SubTet((4, 6, 9, 0), "upright", 1)
    small = SubTet((4, 5, 7, 1), "upright", 1)
    nested = SubdivisionMesh(2, nodes, coords, (big, small), AS_GENERATED)
    assert not all_pairs_disjoint(nested).passed
    # the two tets share no face, so the local certificate alone passes; the
    # proof is the conjunction of the checks, and that fails
    assert check_pairwise_disjoint(nested).passed
    assert not validate(nested, samples=50).passed


def test_pairwise_skips_degenerate_tets():
    mesh = generate(2)
    flat = SubTet((0, 1, 2, 2), "upright", 1)
    result = all_pairs_disjoint(replace_tets(mesh, mesh.tets + (flat,)))
    assert result.passed
    assert result.details["degenerate_skipped"] == 1


@pytest.mark.parametrize("n", [4, 8])
def test_validate_runs_every_check_at_every_order(n):
    report = validate(generate(n), samples=50, seed=0)
    assert len(report.checks) == 7
    assert not any("skipped" in c.details for c in report.checks)
    last = report.checks[-1]
    assert last.name == "pairwise-disjoint"
    assert last.passed
    assert last.details["pairs"] == 2 * n**3 - 2 * n**2


def _random_lattice_tet(rng, tet, nodes, unit):
    """Random nodes: any 4, a unit-volume lattice tet, or ``tet`` with one node moved."""
    kind = rng.randrange(3)
    if kind == 0:
        q = rng.sample(nodes, 4)
    elif kind == 1:
        q = list(rng.choice(unit))
    else:
        q = list(tet.nodes)
        q[rng.randrange(4)] = rng.choice(nodes)
    rng.shuffle(q)
    return dataclasses.replace(tet, nodes=tuple(q))


def test_exact_checks_imply_no_overlap():
    # On small meshes with one or two tets replaced by random lattice tets,
    # wherever every exact check passes, the all-pairs oracle finds no overlap.
    rng = random.Random(7)
    all_passed = 0
    for order in (1, 2, 3):
        for policy in (POSITIVE, AS_GENERATED):
            mesh = generate(order, policy)
            nodes = range(len(mesh.nodes))
            unit = [
                q for q in combinations(nodes, 4)
                if abs(tet_volume6(*(mesh.coords[v] for v in q))) == 1
            ]
            for _ in range(300):
                tets = list(mesh.tets)
                for at in rng.sample(range(len(tets)), min(rng.randint(1, 2), len(tets))):
                    tets[at] = _random_lattice_tet(rng, tets[at], nodes, unit)
                mutant = replace_tets(mesh, tets)
                incidence = build_face_incidence(mutant)
                exact = (
                    check_volumes(mutant),
                    check_face_pairing(mutant, incidence),
                    check_boundary_congruence(mutant, incidence),
                    check_counts(mutant),
                    check_euler_characteristic(mutant, incidence),
                    check_pairwise_disjoint(mutant, incidence),
                )
                if all(c.passed for c in exact):
                    assert all_pairs_disjoint(mutant).passed, [t.nodes for t in tets]
                    all_passed += order > 1
    assert all_passed > 0  # the implication was exercised beyond order 1

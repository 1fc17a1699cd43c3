"""Sub-tet construction: per-level counts, golden connectivity, orientation."""

import hashlib
from collections import Counter
from itertools import combinations

import pytest

from tetsubdiv.connectivity import (
    AS_GENERATED,
    CHUNK,
    FILL,
    KINDS,
    POSITIVE,
    UPRIGHT,
    SubTet,
    chunk_tets,
    expected_counts,
    fill_tets,
    generate,
    level_tets,
    upright_tets,
)
from tetsubdiv.io import write_json
from tetsubdiv.lattice import enumerate_nodes, node_coords, tet_volume6

# SHA-256 of write_json(generate(n, policy)), recorded before the
# construction became the Kuhn class table; the golden VTK files stop at order 4
GENERATE_DIGESTS = {
    (5, POSITIVE): "2246adc84f59d07f40c7fe730a053aa2dd269738d993f719689d39ab66d62746",
    (5, AS_GENERATED): "38b21d76ccfe8376b83b20fd6cdba9e01509ce64ac6c9a935ea5eb66690d437f",
    (8, POSITIVE): "e4fa8dff50fbc8e41d20d1a3f559a45312e8df406a0a69d6de14d9876d663d3d",
    (8, AS_GENERATED): "2ca903c6a417895cafe510f76610d6736396e53fb8c993c2bec19380c5656632",
    (16, POSITIVE): "d1f1b54eb99bb1d1d9f65fd38e8decb6764728fe05808f5785fbfe096673a5e5",
    (16, AS_GENERATED): "37d48adec92be27bb186843e767640a1222b582d2eaa2839aa7dfcd693b08224",
}
# SHA-256 of repr([kind_tets(i) for i in 1..12]), recorded with the digests above
KIND_DIGESTS = {
    upright_tets: "39f27b5430335d6e9209cecb99dd0258729ce45eafc8656a6ac3163f1a544ff8",
    fill_tets: "813280f06acd2da9ababaa984ccd5774853816f943dc3551ad0686a22da41506",
    chunk_tets: "fca389c3bd397ed5739c387c96fa653fcccd294548b51d1b93439ad38305b40f",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("order, policy", sorted(GENERATE_DIGESTS))
def test_generate_matches_recorded_digest(order, policy):
    data = write_json(generate(order, policy))
    assert _sha256(data) == GENERATE_DIGESTS[order, policy]


@pytest.mark.parametrize("kind_tets", list(KIND_DIGESTS), ids=lambda f: f.__name__)
def test_kind_tets_match_recorded_digest(kind_tets):
    text = repr([kind_tets(i) for i in range(1, 13)])
    assert _sha256(text.encode()) == KIND_DIGESTS[kind_tets]


def test_per_level_counts():
    for i in range(1, 9):
        assert len(upright_tets(i)) == i * (i + 1) // 2
        assert len(fill_tets(i)) == 2 * i * (i - 1)
        assert len(chunk_tets(i)) == (i - 1) * (i - 2) // 2
        assert len(level_tets(i)) == 3 * i * i - 3 * i + 1


def test_low_levels_have_no_fill_or_chunk():
    assert fill_tets(1) == []
    assert chunk_tets(1) == []
    assert chunk_tets(2) == []
    with pytest.raises(ValueError):
        level_tets(0)


def test_order_1_single_tet():
    mesh = generate(1, AS_GENERATED)
    assert mesh.tets == (SubTet((0, 1, 2, 3), UPRIGHT, 1),)
    pts = [mesh.coords[v] for v in mesh.tets[0].nodes]
    assert tet_volume6(*pts) == -1

    positive = generate(1)
    assert positive.tets == (SubTet((0, 1, 3, 2), UPRIGHT, 1),)
    pts = [positive.coords[v] for v in positive.tets[0].nodes]
    assert tet_volume6(*pts) == 1


def test_order_2_golden_connectivity():
    mesh = generate(2, AS_GENERATED)
    assert [t.nodes for t in mesh.tets] == [
        (0, 1, 2, 3),
        (1, 4, 5, 7),
        (2, 5, 6, 8),
        (3, 7, 8, 9),
        (1, 8, 2, 5),
        (1, 8, 2, 3),
        (1, 8, 7, 3),
        (1, 8, 7, 5),
    ]
    assert [t.kind for t in mesh.tets] == [UPRIGHT] * 4 + [FILL] * 4


def test_order_2_fill_tets_share_one_diagonal():
    for tet in fill_tets(2):
        assert tet.nodes[:2] == (1, 8)
        assert tet.kind == FILL
        assert tet.level == 2
    assert [t.fill_slot for t in fill_tets(2)] == [0, 1, 2, 3]


def test_order_3_single_chunk_tet():
    assert chunk_tets(3) == [SubTet((5, 8, 7, 15), CHUNK, 3)]


def test_generate_counts():
    for n in range(1, 11):
        mesh = generate(n)
        assert len(mesh.tets) == n**3
        assert list(mesh.nodes) == enumerate_nodes(n)
        assert list(mesh.coords) == [node_coords(v, n) for v in mesh.nodes]


def test_expected_counts_match_generated_tets():
    for n in range(1, 13):
        tets = generate(n).tets
        levels, kinds = expected_counts(n)
        assert levels == dict(sorted(Counter(t.level for t in tets).items()))
        assert kinds == {kind: sum(t.kind == kind for t in tets) for kind in KINDS}
        assert sum(levels.values()) == sum(kinds.values()) == n**3
    assert expected_counts(0) == ({}, {UPRIGHT: 0, FILL: 0, CHUNK: 0})
    with pytest.raises(ValueError):
        expected_counts(-1)


def test_generate_is_deterministic():
    assert generate(4) == generate(4)
    assert generate(4, AS_GENERATED) == generate(4, AS_GENERATED)


def test_positive_policy_orients_every_tet():
    mesh = generate(5)
    assert mesh.orientation_policy == POSITIVE
    for tet in mesh.tets:
        pts = [mesh.coords[v] for v in tet.nodes]
        assert tet_volume6(*pts) == 1


def test_as_generated_policy_keeps_signs():
    mesh = generate(5, AS_GENERATED)
    signs = {tet_volume6(*(mesh.coords[v] for v in tet.nodes)) for tet in mesh.tets}
    assert signs == {-1, 1}


def test_orientation_is_one_sign_per_class():
    expected = {
        (UPRIGHT, None): -1,
        (FILL, 0): 1,
        (FILL, 1): -1,
        (FILL, 2): 1,
        (FILL, 3): -1,
        (CHUNK, None): -1,
    }
    for n in range(1, 9):
        mesh = generate(n, AS_GENERATED)
        for tet in mesh.tets:
            sign = tet_volume6(*(mesh.coords[v] for v in tet.nodes))
            assert sign == expected[tet.kind, tet.fill_slot]


def test_policies_preserve_vertex_sets():
    a = generate(4)
    b = generate(4, AS_GENERATED)
    assert [frozenset(t.nodes) for t in a.tets] == [frozenset(t.nodes) for t in b.tets]


def test_unknown_policy_and_bad_order_rejected():
    with pytest.raises(ValueError):
        generate(0)
    with pytest.raises(ValueError):
        generate(2, "clockwise")


def test_tets_stay_within_one_lattice_cell():
    mesh = generate(5)
    for tet in mesh.tets:
        pts = [mesh.coords[v] for v in tet.nodes]
        for axis in range(3):
            values = [p[axis] for p in pts]
            assert max(values) - min(values) <= 1


def test_kind_and_slot_tagging():
    mesh = generate(4)
    for tet in mesh.tets:
        assert (tet.fill_slot is not None) == (tet.kind == FILL)
        if tet.kind == FILL:
            assert tet.fill_slot in (0, 1, 2, 3)
        assert 1 <= tet.level <= 4


def test_level_tag_matches_deepest_node():
    mesh = generate(6)
    for tet in mesh.tets:
        assert tet.level == max(mesh.nodes[v].i for v in tet.nodes)


def test_every_node_belongs_to_some_tet():
    for n in (1, 2, 5, 8):
        mesh = generate(n)
        used = {v for t in mesh.tets for v in t.nodes}
        assert used == set(range(len(mesh.nodes)))


def test_level_2_fill_union_is_an_octahedron():
    # the 4 fill tets share the diagonal (1, 8) and their union is bounded
    # by 8 triangles over 6 vertices, a closed surface with chi = 2
    census = Counter(
        tuple(sorted(f))
        for t in fill_tets(2)
        for f in combinations(t.nodes, 3)
    )
    surface = [f for f, c in census.items() if c == 1]
    assert len(surface) == 8
    vertices = {v for f in surface for v in f}
    assert vertices == {1, 2, 3, 5, 7, 8}
    edges = {e for f in surface for e in combinations(f, 2)}
    assert len(edges) == 12
    assert (1, 8) not in edges
    assert len(vertices) - len(edges) + len(surface) == 2

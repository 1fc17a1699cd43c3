"""Node lattice indexing, coordinates, and exact volume primitives."""

import re
from fractions import Fraction

import pytest

from tetsubdiv.lattice import (
    NodeIndex,
    corner_nodes,
    enumerate_nodes,
    linear_to_node,
    node_barycentric,
    node_coords,
    node_count,
    node_id,
    node_to_linear,
    tet_volume6,
)


def test_node_count_small_orders():
    assert [node_count(n) for n in range(6)] == [1, 4, 10, 20, 35, 56]


def test_node_count_matches_enumeration():
    for n in range(9):
        assert len(enumerate_nodes(n)) == node_count(n)


def test_node_count_rejects_negative_order():
    with pytest.raises(ValueError):
        node_count(-1)


def test_enumeration_order_is_level_then_row_then_column():
    assert enumerate_nodes(2) == [
        NodeIndex(0, 0, 0),
        NodeIndex(1, 0, 0),
        NodeIndex(1, 1, 0),
        NodeIndex(1, 0, 1),
        NodeIndex(2, 0, 0),
        NodeIndex(2, 1, 0),
        NodeIndex(2, 2, 0),
        NodeIndex(2, 0, 1),
        NodeIndex(2, 1, 1),
        NodeIndex(2, 0, 2),
    ]


def test_node_id_known_values():
    assert node_id(0, 0, 0) == 0
    assert node_id(1, 0, 0) == 1
    assert node_id(1, 1, 0) == 2
    assert node_id(1, 0, 1) == 3
    assert node_id(2, 1, 1) == 8
    assert node_id(3, 1, 1) == 15


def test_node_id_matches_enumeration_position():
    nodes = enumerate_nodes(6)
    for pos, node in enumerate(nodes):
        assert node_id(node.i, node.j, node.k) == pos
        with pytest.deprecated_call():
            assert node_to_linear(node, 6) == pos


def test_node_id_is_order_independent():
    order9 = enumerate_nodes(9)
    for node in enumerate_nodes(4):
        assert order9.index(node) == node_id(*node)
        with pytest.deprecated_call():
            assert node_to_linear(node, 4) == node_to_linear(node, 9)


def test_linear_to_node_inverts_node_to_linear():
    for n in (1, 3, 7):
        for pos, node in enumerate(enumerate_nodes(n)):
            with pytest.deprecated_call():
                assert linear_to_node(pos, n) == node


def test_linear_to_node_range_errors():
    with pytest.deprecated_call(), pytest.raises(ValueError):
        linear_to_node(-1, 2)
    with pytest.deprecated_call(), pytest.raises(ValueError):
        linear_to_node(node_count(2), 2)


@pytest.mark.parametrize(
    "call, expected, replacement",
    [
        (lambda: node_to_linear(NodeIndex(2, 1, 1), 3), 8, "use node_id(*node)"),
        (lambda: linear_to_node(8, 3), NodeIndex(2, 1, 1), "use enumerate_nodes(order)[i]"),
    ],
    ids=["node_to_linear", "linear_to_node"],
)
def test_deprecated_names_warn_at_the_caller_and_name_their_replacement(
    call, expected, replacement
):
    with pytest.warns(DeprecationWarning, match=re.escape(replacement)) as record:
        assert call() == expected
    assert record[0].filename == __file__


def test_invalid_node_indices_rejected():
    with pytest.raises(ValueError):
        node_id(1, 2, 0)
    with pytest.raises(ValueError):
        node_id(2, 1, 2)
    with pytest.raises(ValueError):
        node_id(1, -1, 0)
    with pytest.deprecated_call(), pytest.raises(ValueError):
        node_to_linear(NodeIndex(3, 0, 0), 2)


def test_node_coords_embedding():
    n = 3
    assert node_coords(NodeIndex(0, 0, 0), n) == (0, 0, 3)
    assert node_coords(NodeIndex(3, 0, 0), n) == (0, 0, 0)
    assert node_coords(NodeIndex(3, 3, 0), n) == (3, 0, 0)
    assert node_coords(NodeIndex(3, 0, 3), n) == (0, 3, 0)
    assert node_coords(NodeIndex(2, 1, 1), n) == (1, 1, 1)


def test_node_coords_cover_corner_tetrahedron_exactly():
    n = 5
    coords = {node_coords(v, n) for v in enumerate_nodes(n)}
    expected = {
        (x, y, z)
        for x in range(n + 1)
        for y in range(n + 1)
        for z in range(n + 1)
        if x + y + z <= n
    }
    assert coords == expected
    assert len(coords) == node_count(n)


def test_corner_nodes():
    assert corner_nodes(4) == (
        NodeIndex(0, 0, 0),
        NodeIndex(4, 0, 0),
        NodeIndex(4, 4, 0),
        NodeIndex(4, 0, 4),
    )
    with pytest.raises(ValueError):
        corner_nodes(0)


def test_barycentric_weights_at_corners_are_unit_vectors():
    n = 4
    for c, corner in enumerate(corner_nodes(n)):
        weights = node_barycentric(corner, n)
        assert sum(weights) == 1
        assert weights[c] == 1


def test_barycentric_weights_reconstruct_coordinates():
    n = 5
    corners = [node_coords(c, n) for c in corner_nodes(n)]
    for node in enumerate_nodes(n):
        weights = node_barycentric(node, n)
        assert sum(weights) == 1
        assert all(0 <= w <= 1 for w in weights)
        rebuilt = tuple(
            sum(w * Fraction(c[axis]) for w, c in zip(weights, corners))
            for axis in range(3)
        )
        assert rebuilt == node_coords(node, n)


def test_barycentric_rejects_order_zero():
    with pytest.raises(ValueError):
        node_barycentric(NodeIndex(0, 0, 0), 0)


def test_tet_volume6_unit_and_orientation():
    o, ex, ey, ez = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert tet_volume6(o, ex, ey, ez) == 1
    assert tet_volume6(o, ex, ez, ey) == -1
    assert tet_volume6(o, ex, ey, (1, 1, 0)) == 0
    assert tet_volume6(o, (2, 0, 0), (0, 2, 0), (0, 0, 2)) == 8

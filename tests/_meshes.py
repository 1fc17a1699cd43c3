"""Shared builders for corrupted and partial meshes used across test modules."""

import dataclasses

from tetsubdiv.connectivity import (
    AS_GENERATED,
    SubdivisionMesh,
    fill_tets,
    upright_tets,
)
from tetsubdiv.lattice import enumerate_nodes, node_coords


def replace_tets(mesh, tets):
    """Same lattice, different tet list; used to build corrupted meshes."""
    return SubdivisionMesh(
        mesh.order, mesh.nodes, mesh.coords, tuple(tets), mesh.orientation_policy
    )


def without_chunks(order):
    """The first two constructions only; leaves one interior cavity per chunk."""
    nodes = tuple(enumerate_nodes(order))
    coords = tuple(node_coords(v, order) for v in nodes)
    tets = tuple(
        t
        for i in range(1, order + 1)
        for t in upright_tets(i) + fill_tets(i)
    )
    return SubdivisionMesh(order, nodes, coords, tets, AS_GENERATED)


def with_moved_node(mesh, node, axis, delta):
    """Same tets, one node's coordinate shifted by ``delta`` along ``axis``."""
    moved = list(mesh.coords[node])
    moved[axis] += delta
    coords = mesh.coords[:node] + (tuple(moved),) + mesh.coords[node + 1 :]
    return SubdivisionMesh(
        mesh.order, mesh.nodes, coords, mesh.tets, mesh.orientation_policy
    )


def with_doubled(mesh, tet):
    """Same mesh with ``tet`` appended once more."""
    return replace_tets(mesh, mesh.tets + (tet,))


def with_repeated_node(mesh, at):
    """Tet ``at`` squashed to nodes (a, a, c, d).

    In (a, a, c, d) sides 0 and 1 have opposite signs and sides 2 and 3 are
    zero everywhere: tested in order, a point is outside; a sampler that
    looked for zeros first would redraw it.
    """
    a, _, c, d = mesh.tets[at].nodes
    squashed = dataclasses.replace(mesh.tets[at], nodes=(a, a, c, d))
    return replace_tets(mesh, mesh.tets[:at] + (squashed,) + mesh.tets[at + 1 :])

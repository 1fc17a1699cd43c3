"""Mesh and field serialization: legacy VTK, OFF boundary surfaces, JSON.

Formats
-------
* Legacy ASCII VTK unstructured grid (``DATASET UNSTRUCTURED_GRID``,
  cell type 10): the primary visualization target, with optional per-node
  scalar fields and an optional affine embedding into physical space.
* OFF: the boundary triangles only, outward-oriented, with vertices
  re-indexed densely.
* JSON: a lossless round-trippable document (``format_version`` 1) with
  the node lattice, tagged tets, and optional fields.

Field inputs are newline-separated decimals or a JSON array, one value
per lattice node in canonical order.  Because subdivision introduces no
new nodes, resampling a nodal field onto the sub-tet mesh is the
identity on values.

Node-ordering interop with external conventions is handled by
user-supplied permutation tables (JSON array or whitespace-separated
ints), never by built-in convention lists.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Any, Sequence, Union

from .connectivity import KINDS, ORIENTATION_POLICIES, SubTet, SubdivisionMesh
from .lattice import Coords, NodeIndex, node_count, tet_volume6
from .validation import build_face_incidence

JSON_FORMAT_VERSION = 1

Destination = Union[str, os.PathLike, IO[bytes], None]
Source = Union[str, os.PathLike, IO]


@dataclass(frozen=True)
class FieldData:
    """A nodal scalar field, one finite value per node in canonical order."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field name must be non-empty")
        bad = [v for v in self.values if not math.isfinite(v)]
        if bad:
            raise ValueError(f"field {self.name!r} has non-finite values: {bad[:4]}")


@dataclass(frozen=True)
class PhysicalEmbedding:
    """Affine image of the reference element, given by 4 corner positions.

    Corners correspond, in order, to the element corners returned by
    :func:`tetsubdiv.lattice.corner_nodes`: the apex, then the base
    corners.  The corners must be finite and affinely independent.
    """

    corners: tuple[
        tuple[float, float, float],
        tuple[float, float, float],
        tuple[float, float, float],
        tuple[float, float, float],
    ]

    def __post_init__(self) -> None:
        for pos, corner in enumerate(self.corners):
            for axis, c in zip("xyz", corner):
                if isinstance(c, float) and not math.isfinite(c):
                    raise ValueError(f"embedding corner {pos} {axis} must be finite, got {c!r}")
        if tet_volume6(*self.corners) == 0:
            raise ValueError("degenerate embedding: the 4 corners are coplanar")
        # decided once per embedding; see node_position
        floats = all(type(c) is float for corner in self.corners for c in corner)
        object.__setattr__(self, "_float_weights", floats)

    def node_position(self, point: Coords, order: int) -> tuple[float, float, float]:
        """Affine image of the lattice point (x, y, z), such as ``mesh.coords[v]``.

        The corners' barycentric weights are (z, N-x-y-z, x, y)/N, the
        weights :func:`tetsubdiv.lattice.node_barycentric` gives node
        (i, j, k) at (j, k, N-i).  Each coordinate is ``sum`` over the
        corners, in order, of weight times corner coordinate.  The weights
        are float quotients when every corner coordinate is a float, and
        Fractions otherwise, whose products stay exact until the final
        rounding.  On float corners both give the same floats: Python
        evaluates ``Fraction * float`` as ``float(fraction) * float``, and
        ``float(Fraction(a, n))`` is the correctly rounded ``a / n``.
        """
        x, y, z = point
        if self._float_weights:
            w0, w1, w2, w3 = z / order, (order - x - y - z) / order, x / order, y / order
        else:
            w0, w1, w2, w3 = (Fraction(v, order) for v in (z, order - x - y - z, x, y))
        a, b, c, d = self.corners
        # sum(), not a chain of +: from Python 3.12 it compensates float sums
        return (
            float(sum((w0 * a[0], w1 * b[0], w2 * c[0], w3 * d[0]))),
            float(sum((w0 * a[1], w1 * b[1], w2 * c[1], w3 * d[1]))),
            float(sum((w0 * a[2], w1 * b[2], w2 * c[2], w3 * d[2]))),
        )


def _check_fields(mesh: SubdivisionMesh, fields: Sequence[FieldData]) -> None:
    for pos, f in enumerate(fields):
        if len(f.values) != len(mesh.nodes):
            raise ValueError(
                f"fields[{pos}] ({f.name!r}) has {len(f.values)} values, "
                f"expected {len(mesh.nodes)} for order {mesh.order}"
            )


def _deliver(destination: Destination, data: bytes) -> bytes:
    """Write ``data`` to a path or writable object and return it.

    This is the one place a path is opened for writing.
    """
    if destination is None:
        return data
    if hasattr(destination, "write"):
        destination.write(data)
        return data
    with open(destination, "wb") as handle:
        handle.write(data)
    return data


def _read_text(source: Source) -> str:
    if hasattr(source, "read"):
        content = source.read()
        return content.decode() if isinstance(content, bytes) else content
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def write_vtk_legacy(
    mesh: SubdivisionMesh,
    destination: Destination = None,
    fields: Sequence[FieldData] | None = None,
    embedding: PhysicalEmbedding | None = None,
) -> bytes:
    """Serialize the mesh as a legacy ASCII VTK unstructured grid.

    Points are ``mesh.coords``, or their affine image under ``embedding``
    when it is given; cells are the N^3 sub-tets as VTK cell type 10; each
    field becomes a SCALARS block named after the field, with whitespace
    runs joined by ``_``.  A name that is blank or not printable ASCII once
    joined, or that joins to the name of an earlier field, raises a
    ``ValueError`` naming the field as ``fields[pos]``.
    Returns the bytes and, if ``destination`` is a path or writable
    object, also writes them.
    """
    fields = list(fields or ())
    _check_fields(mesh, fields)
    names = ["_".join(f.name.split()) for f in fields]
    for pos, (f, name) in enumerate(zip(fields, names)):
        if not name or not (name.isascii() and name.isprintable()):
            raise ValueError(
                f"fields[{pos}] ({f.name!r}) cannot name a VTK SCALARS block: "
                "it needs a non-blank printable ASCII name"
            )
        # a reader looks point arrays up by name
        first = names.index(name)
        if first < pos:
            raise ValueError(
                f"fields[{pos}] ({f.name!r}) has the same VTK name as fields[{first}]"
            )
    if embedding is None:
        points: Sequence[tuple[float, float, float]] = mesh.coords
    else:
        points = [embedding.node_position(p, mesh.order) for p in mesh.coords]
    lines = [
        "# vtk DataFile Version 3.0",
        f"tetsubdiv order-{mesh.order} subdivision",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} double",
    ]
    lines += [" ".join(str(float(c)) for c in p) for p in points]
    lines.append(f"CELLS {len(mesh.tets)} {5 * len(mesh.tets)}")
    lines += ["4 {} {} {} {}".format(*t.nodes) for t in mesh.tets]
    lines.append(f"CELL_TYPES {len(mesh.tets)}")
    lines += ["10"] * len(mesh.tets)
    if fields:
        lines.append(f"POINT_DATA {len(points)}")
        for f, name in zip(fields, names):
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += [str(float(v)) for v in f.values]
    data = ("\n".join(lines) + "\n").encode("ascii")
    return _deliver(destination, data)


# The items of the nodes and tets arrays as json.dumps(doc, indent=2) writes
# them, each followed by a comma that _close_json_array drops from the last.
_JSON_NODE = (
    '\n    {{\n      "i": {},\n      "j": {},\n      "k": {},'
    '\n      "x": {},\n      "y": {},\n      "z": {}\n    }},'
)
_JSON_TET = (
    '\n    {{\n      "nodes": [\n        {},\n        {},\n        {},\n        {}\n      ],'
    '\n      "kind": {},\n      "level": {}{}\n    }},'
)
_JSON_FILL_SLOT = ',\n      "fill_slot": {}'
_KIND_JSON = {kind: json.dumps(kind) for kind in KINDS}


def _close_json_array(pieces: list[str], tail: str) -> None:
    """End the top-level array whose items were just appended to ``pieces``.

    The piece before the first item ends with ``[``; each item ends with a
    comma.  ``tail`` follows the closing bracket.
    """
    if pieces[-1].endswith(","):
        pieces[-1] = pieces[-1][:-1] + "\n  ]" + tail
    else:
        pieces.append("]" + tail)


def write_json(
    mesh: SubdivisionMesh,
    destination: Destination = None,
    fields: Sequence[FieldData] | None = None,
) -> bytes:
    """Serialize the mesh (and optional fields) as a JSON document.

    The document round-trips losslessly through :func:`read_json`.  Its
    bytes are those of ``json.dumps(doc, indent=2)`` plus a newline, where
    ``doc`` holds ``format_version``, ``order``, ``orientation_policy``,
    ``nodes`` (objects with keys i, j, k, x, y, z), ``tets`` (objects with
    keys nodes, kind, level and, when it is not None, fill_slot) and, when
    there are fields, ``fields`` (objects with keys name and values).
    Nodes and tets are formatted from templates, because ``indent`` makes
    ``json.dumps`` fall back to its pure-Python encoder.
    """
    fields = list(fields or ())
    _check_fields(mesh, fields)
    # one flat list, joined once: joining each section apart costs more memory
    pieces = [
        f'{{\n  "format_version": {JSON_FORMAT_VERSION},\n  "order": {mesh.order},\n'
        f'  "orientation_policy": {json.dumps(mesh.orientation_policy)},\n  "nodes": ['
    ]
    node = _JSON_NODE.format
    pieces += [node(*n, *c) for n, c in zip(mesh.nodes, mesh.coords)]
    _close_json_array(pieces, ',\n  "tets": [')
    tet = _JSON_TET.format
    kind_json = _KIND_JSON.get
    pieces += [
        tet(
            *t.nodes,
            kind_json(t.kind) or json.dumps(t.kind),
            t.level,
            "" if t.fill_slot is None else _JSON_FILL_SLOT.format(t.fill_slot),
        )
        for t in mesh.tets
    ]
    if fields:
        shifted = json.dumps(
            [{"name": f.name, "values": list(f.values)} for f in fields], indent=2
        ).replace("\n", "\n  ")
        _close_json_array(pieces, f',\n  "fields": {shifted}\n}}\n')
    else:
        _close_json_array(pieces, "\n}\n")
    data = "".join(pieces).encode("ascii")
    return _deliver(destination, data)


def _loads(text: str) -> Any:
    """``json.loads``, refusing a document too deeply nested to parse with a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


# Plain ASCII decimal tokens: (pattern, conversion, description).  float()
# and int() alone also take '1_0', non-ASCII digits and words such as 'inf'.
_DECIMAL = (
    re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"),
    float,
    "a plain decimal number",
)
_INTEGER = (re.compile(r"[+-]?[0-9]+"), int, "a plain decimal integer")


def _tokens(text: str, token_type: tuple, where: str) -> list:
    """The whitespace-separated tokens of ``text``, converted by ``token_type``.

    A token that does not match raises a ``ValueError`` naming its position
    as ``where[pos]``.
    """
    pattern, convert, description = token_type
    tokens = text.split()
    for pos, token in enumerate(tokens):
        if pattern.fullmatch(token) is None:
            raise ValueError(f"{where}[{pos}] must be {description}, got {token!r:.40}")
    return [convert(token) for token in tokens]


def _strict_int(value: Any, section: str, pos: int, key: str) -> int:
    """``value`` if it is a JSON integer; bools, floats and strings are refused.

    The error names the position as ``section[pos].key``.
    """
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"{section}[{pos}].{key} must be an integer, got {value!r:.40}")
    return value


def _field_values(raw: Any, where: str) -> tuple[float, ...]:
    """``raw`` as floats if it is a JSON array of finite numbers.

    Bools, strings, nulls and nested arrays are refused, and so are values
    that do not fit a float; the error names the position as ``where[pos]``.
    """
    if not isinstance(raw, list):
        raise ValueError(f"{where} must be a JSON array of numbers, got {raw!r:.40}")
    values = []
    for pos, v in enumerate(raw):
        try:
            # type(), not isinstance(): bool is a subclass of int
            value = float(v) if type(v) in (int, float) else None
        except OverflowError:  # an int beyond the float range
            value = None
        if value is None or not math.isfinite(value):
            raise ValueError(f"{where}[{pos}] must be a finite number, got {v!r:.40}")
        values.append(value)
    return tuple(values)


def read_json(source: Source) -> tuple[SubdivisionMesh, list[FieldData]]:
    """Parse a mesh document written by :func:`write_json`.

    Raises ``ValueError`` (with position information for malformed JSON)
    on any structural problem.  Integer fields must be JSON integers, the
    order must be >= 1, and each field needs a name and one finite number
    per node; the error names the offending position.
    """
    doc = _loads(_read_text(source))
    if not isinstance(doc, dict):
        raise ValueError("mesh document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != JSON_FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    try:
        order = doc["order"]
        policy = doc["orientation_policy"]
        raw_nodes = doc["nodes"]
        raw_tets = doc["tets"]
    except KeyError as exc:
        raise ValueError(f"mesh document missing key {exc.args[0]!r}") from exc
    raw_fields = doc.get("fields", [])
    if type(order) is not int or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r:.40}")
    for key, value in (("nodes", raw_nodes), ("tets", raw_tets), ("fields", raw_fields)):
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a JSON array, got {value!r:.40}")
    if policy not in ORIENTATION_POLICIES:
        raise ValueError(f"unknown orientation policy {policy!r}")
    # bounds the order, and so every check's work, by the document's size
    if len(raw_nodes) != node_count(order):
        raise ValueError(
            f"nodes has {len(raw_nodes)} entries, expected {node_count(order)} "
            f"for order {order}"
        )
    nodes = []
    coords = []
    for pos, n in enumerate(raw_nodes):
        try:
            i, j, k, x, y, z = (_strict_int(n[key], "nodes", pos, key) for key in "ijkxyz")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad node entry at nodes[{pos}]") from exc
        nodes.append(NodeIndex(i, j, k))
        coords.append((x, y, z))
    tets = []
    for pos, t in enumerate(raw_tets):
        try:
            ids = tuple(_strict_int(v, "tets", pos, "nodes") for v in t["nodes"])
            kind = t["kind"]
            level = _strict_int(t["level"], "tets", pos, "level")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad tet entry at tets[{pos}]") from exc
        if len(ids) != 4:
            raise ValueError(f"tets[{pos}] must have 4 node ids, got {len(ids)}")
        if kind not in KINDS:
            raise ValueError(f"tets[{pos}] has unknown kind {kind!r}")
        if any(not 0 <= v < len(nodes) for v in ids):
            raise ValueError(f"tets[{pos}] references a node id out of range")
        slot = t.get("fill_slot")
        if slot is not None:
            slot = _strict_int(slot, "tets", pos, "fill_slot")
        tets.append(SubTet(ids, kind, level, slot))
    mesh = SubdivisionMesh(order, tuple(nodes), tuple(coords), tuple(tets), policy)
    fields = []
    for pos, f in enumerate(raw_fields):
        if not isinstance(f, dict):
            raise ValueError(f"fields[{pos}] must be a JSON object, got {f!r:.40}")
        name = f.get("name")
        if type(name) is not str or not name:
            raise ValueError(
                f"fields[{pos}].name must be a non-empty string, got {name!r:.40}"
            )
        fields.append(FieldData(name, _field_values(f.get("values"), f"fields[{pos}].values")))
    _check_fields(mesh, fields)
    return mesh, fields


def write_off_boundary(mesh: SubdivisionMesh, destination: Destination = None) -> bytes:
    """Serialize the boundary surface as an OFF polygon file.

    Only the 4N^2 boundary triangles are written, outward-oriented, over
    the boundary nodes re-indexed densely.  Refuses meshes whose face
    incidence is not watertight.
    """
    incidence = build_face_incidence(mesh)
    if incidence.overshared:
        raise ValueError(
            "mesh is not watertight (a face is shared by more than two tets); "
            "run validation for details"
        )
    faces = incidence.boundary
    used = sorted({v for f in faces for v in f})
    dense = {v: idx for idx, v in enumerate(used)}
    lines = ["OFF", f"{len(used)} {len(faces)} {3 * len(faces) // 2}"]
    lines += ["{} {} {}".format(*mesh.coords[v]) for v in used]
    for face in faces:
        opposite = mesh.coords[incidence.opposite[face][0]]
        a, b, c = face
        # outward normal: the owning tet's 4th vertex lies on the negative side
        if tet_volume6(mesh.coords[a], mesh.coords[b], mesh.coords[c], opposite) > 0:
            b, c = c, b
        lines.append(f"3 {dense[a]} {dense[b]} {dense[c]}")
    data = ("\n".join(lines) + "\n").encode("ascii")
    return _deliver(destination, data)


def read_field(source: Source, order: int, name: str | None = None) -> FieldData:
    """Read a nodal field: a JSON array of numbers or whitespace-separated decimals.

    Decimal tokens must be plain ASCII, such as ``-1.5e3`` or ``.5``.  The
    value count must equal ``node_count(order)``; the mismatch error names
    the expected count.  Anything else raises ``ValueError``, naming the
    position of a bad value as ``field[pos]``.
    """
    text = _read_text(source).strip()
    if name is None:
        if hasattr(source, "read"):
            name = "field"
        else:
            name = os.path.splitext(os.path.basename(os.fspath(source)))[0] or "field"
    if text.startswith("["):
        values = _field_values(_loads(text), "field")
    else:
        values = _field_values(_tokens(text, _DECIMAL, "field"), "field")
    expected = node_count(order)
    if len(values) != expected:
        raise ValueError(
            f"field has {len(values)} values but order {order} requires {expected}"
        )
    return FieldData(name, values)


def load_permutation(source: Source) -> list[int]:
    """Read a node-ordering permutation table: JSON array or whitespace ints.

    JSON entries must be integers and whitespace tokens plain ASCII decimal
    integers; a bad entry raises ``ValueError`` naming it as
    ``permutation[pos]``.
    """
    text = _read_text(source).strip()
    if text.startswith("["):
        raw = _loads(text)  # a JSON text that starts with "[" is an array
        for pos, v in enumerate(raw):
            if type(v) is not int:  # bool is a subclass of int
                raise ValueError(f"permutation[{pos}] must be an integer, got {v!r:.40}")
        return raw
    return _tokens(text, _INTEGER, "permutation")


def _check_permutation(table: Sequence[int], n: int) -> None:
    if sorted(table) != list(range(n)):
        raise ValueError(
            f"permutation table is not a bijection on 0..{n - 1} "
            f"(got {len(table)} entries)"
        )


def apply_ordering_permutation(
    target: FieldData | SubdivisionMesh, table: Sequence[int]
) -> FieldData | SubdivisionMesh:
    """Reorder nodal data by a permutation table (``table[old_id] = new_id``).

    For a field the values move to their new positions; for a mesh the
    nodes and coordinates are reordered and every tet's node ids are
    remapped.  Permuted meshes no longer follow the canonical lattice
    order, so they are meant for export interop, not further validation.
    """
    if isinstance(target, FieldData):
        _check_permutation(table, len(target.values))
        out = [0.0] * len(target.values)
        for old, new in enumerate(table):
            out[new] = target.values[old]
        return FieldData(target.name, tuple(out))
    if isinstance(target, SubdivisionMesh):
        _check_permutation(table, len(target.nodes))
        nodes: list[NodeIndex] = [NodeIndex(0, 0, 0)] * len(target.nodes)
        coords = [(0, 0, 0)] * len(target.coords)
        for old, new in enumerate(table):
            nodes[new] = target.nodes[old]
            coords[new] = target.coords[old]
        tets = []
        for t in target.tets:
            a, b, c, d = t.nodes
            ids = (table[a], table[b], table[c], table[d])
            tets.append(SubTet(ids, t.kind, t.level, t.fill_slot))
        return SubdivisionMesh(
            target.order, tuple(nodes), tuple(coords), tuple(tets), target.orientation_policy
        )
    raise TypeError(f"cannot permute object of type {type(target).__name__}")

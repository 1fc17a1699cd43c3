"""Serialization: VTK legacy, JSON round-trip, OFF boundary, fields, permutations."""

import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import stat
import threading

import pytest

from _meshes import replace_tets, without_chunks
from tetsubdiv.connectivity import AS_GENERATED, POSITIVE, SubTet, generate
from tetsubdiv.io import (
    FieldData,
    PhysicalEmbedding,
    apply_ordering_permutation,
    load_permutation,
    read_field,
    read_json,
    write_json,
    write_off_boundary,
    write_vtk_legacy,
)
from tetsubdiv.lattice import (
    enumerate_nodes,
    node_barycentric,
    node_count,
    tet_volume6,
)

UNIT_CORNERS = ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_field_data_rejects_bad_input():
    with pytest.raises(ValueError):
        FieldData("", (1.0,))
    with pytest.raises(ValueError):
        FieldData("f", (1.0, math.nan))
    with pytest.raises(ValueError):
        FieldData("f", (math.inf,))


def test_embedding_rejects_coplanar_corners():
    with pytest.raises(ValueError):
        PhysicalEmbedding(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_embedding_rejects_non_finite_corners(value):
    # NaN and infinite volumes are never == 0, so the coplanarity test lets them through
    corners = [list(corner) for corner in UNIT_CORNERS]
    corners[2][1] = value
    with pytest.raises(ValueError, match=r"embedding corner 2 y must be finite"):
        PhysicalEmbedding(tuple(tuple(corner) for corner in corners))


def test_embedding_maps_corners_and_midpoints():
    # lattice points of nodes (0, 0, 0), (2, 2, 0), (1, 0, 0) and (2, 1, 1)
    scaled = PhysicalEmbedding(((0, 0, 2), (0, 0, 0), (2, 0, 0), (0, 2, 0)))
    assert scaled.node_position((0, 0, 2), 2) == (0.0, 0.0, 2.0)
    assert scaled.node_position((2, 0, 0), 2) == (2.0, 0.0, 0.0)
    assert scaled.node_position((0, 0, 1), 2) == (0.0, 0.0, 1.0)
    assert scaled.node_position((1, 1, 0), 2) == (1.0, 1.0, 0.0)


def test_embedding_int_corners_stay_exact():
    # float weights would give 0.8 * 3 = 2.4000000000000004 here
    exact = PhysicalEmbedding(((0, 0, 3), (0, 0, 0), (3, 0, 0), (0, 3, 0)))
    assert exact.node_position((0, 0, 4), 5) == (0.0, 0.0, 2.4)


def _seeded_float_corners(rng):
    """Random float corners; some coordinates are -0.0, a few are huge."""
    while True:
        corners = [[rng.uniform(-10.0, 10.0) for _ in range(3)] for _ in range(4)]
        for corner in corners:
            for axis in range(3):
                roll = rng.random()
                if roll < 0.2:
                    corner[axis] = -0.0
                elif roll < 0.25:
                    corner[axis] = rng.choice((1e308, -1e308, 5e-324))
        corners = tuple(tuple(c) for c in corners)
        if tet_volume6(*corners) != 0:
            return corners


@pytest.mark.parametrize("order", range(1, 13))
def test_vtk_points_equal_the_exact_weighted_sum(order):
    # reference: exact barycentric weights, combined as Fraction * float
    rng = random.Random(order)
    mesh = generate(order)
    weights = [node_barycentric(n, order) for n in enumerate_nodes(order)]
    signed_zero = (
        (-0.0, -0.0, -1.0), (0.0, -0.0, -0.0), (-1.0, -0.0, -0.0), (-0.0, -1.0, -0.0)
    )
    for corners in [_seeded_float_corners(rng) for _ in range(3)] + [signed_zero]:
        data = write_vtk_legacy(mesh, embedding=PhysicalEmbedding(corners))
        lines = data.decode().splitlines()
        start = lines.index(f"POINTS {len(mesh.nodes)} double") + 1
        expected = [
            " ".join(
                str(float(sum(w * c[axis] for w, c in zip(ws, corners))))
                for axis in range(3)
            )
            for ws in weights
        ]
        assert lines[start : start + len(expected)] == expected


def test_vtk_order_1_exact_bytes():
    expected = (
        "# vtk DataFile Version 3.0\n"
        "tetsubdiv order-1 subdivision\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        "POINTS 4 double\n"
        "0.0 0.0 1.0\n"
        "0.0 0.0 0.0\n"
        "1.0 0.0 0.0\n"
        "0.0 1.0 0.0\n"
        "CELLS 1 5\n"
        "4 0 1 3 2\n"
        "CELL_TYPES 1\n"
        "10\n"
    )
    assert write_vtk_legacy(generate(1)) == expected.encode()


def test_vtk_structure_for_larger_order():
    n = 3
    mesh = generate(n)
    lines = write_vtk_legacy(mesh).decode().splitlines()
    points_at = lines.index(f"POINTS {node_count(n)} double")
    cells_at = lines.index(f"CELLS {n ** 3} {5 * n ** 3}")
    types_at = lines.index(f"CELL_TYPES {n ** 3}")
    assert points_at < cells_at < types_at
    for row, tet in zip(lines[cells_at + 1 : cells_at + 1 + n**3], mesh.tets):
        assert row == "4 {} {} {} {}".format(*tet.nodes)
    assert lines[types_at + 1 :] == ["10"] * n**3


def test_vtk_fields_and_name_sanitization():
    mesh = generate(1)
    field = FieldData("my field", (0.0, 1.5, 2.0, 3.25))
    text = write_vtk_legacy(mesh, fields=[field]).decode()
    assert "POINT_DATA 4" in text
    assert "SCALARS my_field double 1" in text
    assert "LOOKUP_TABLE default" in text
    assert text.splitlines()[-4:] == ["0.0", "1.5", "2.0", "3.25"]


@pytest.mark.parametrize("name", ["données", " ", "\t\n", "a\x00b", "a\x7fb"])
def test_vtk_refuses_a_field_name_it_cannot_write(name):
    mesh = generate(1)
    good = FieldData("u", (0.0, 1.0, 2.0, 3.0))
    bad = FieldData(name, good.values)
    with pytest.raises(ValueError, match=r"fields\[1\] \(" + re.escape(repr(name))):
        write_vtk_legacy(mesh, fields=[good, bad])
    # JSON escapes any name
    assert read_json(io.BytesIO(write_json(mesh, fields=[good, bad])))[1][1] == bad


@pytest.mark.parametrize("first, second", [("u", "u"), ("a b", "a_b")])
def test_vtk_refuses_two_fields_of_one_name(first, second):
    mesh = generate(1)
    values = (0.0, 1.0, 2.0, 3.0)
    fields = [FieldData("v", values), FieldData(first, values), FieldData(second, values)]
    message = f"fields[2] ({second!r}) has the same VTK name as fields[1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_vtk_legacy(mesh, fields=fields)
    # JSON keeps both
    assert read_json(io.BytesIO(write_json(mesh, fields=fields)))[1] == fields


def test_vtk_embedding_replaces_points():
    mesh = generate(1)
    text = write_vtk_legacy(mesh, embedding=PhysicalEmbedding(UNIT_CORNERS)).decode()
    lines = text.splitlines()
    at = lines.index("POINTS 4 double")
    assert lines[at + 1 : at + 5] == [
        "0.0 0.0 1.0",
        "0.0 0.0 0.0",
        "1.0 0.0 0.0",
        "0.0 1.0 0.0",
    ]


def test_vtk_points_follow_mesh_coords():
    # node 7 of order 2 moves from (0, 1, 0) to (1, 1, 0); ids stay as they were
    mesh = generate(2)
    coords = list(mesh.coords)
    coords[7] = (1, 1, 0)
    moved = dataclasses.replace(mesh, coords=tuple(coords))
    embedding = PhysicalEmbedding(
        ((0.5, 0.0, 3.0), (0.0, -1.0, 0.0), (2.0, 0.0, 0.25), (0.0, 2.0, 1.0))
    )
    position = embedding.node_position((1, 1, 0), 2)
    assert position != embedding.node_position(mesh.coords[7], 2)
    for emb, row in ((None, "1.0 1.0 0.0"), (embedding, "{} {} {}".format(*position))):
        lines = write_vtk_legacy(moved, embedding=emb).decode().splitlines()
        assert lines[lines.index("POINTS 10 double") + 1 + 7] == row


def test_vtk_rejects_wrong_field_length():
    with pytest.raises(ValueError, match="expected 4"):
        write_vtk_legacy(generate(1), fields=[FieldData("f", (1.0, 2.0))])


def test_vtk_writes_to_path_and_handle(tmp_path):
    mesh = generate(2)
    path = tmp_path / "mesh.vtk"
    data = write_vtk_legacy(mesh, path)
    assert path.read_bytes() == data
    sink = io.BytesIO()
    write_vtk_legacy(mesh, sink)
    assert sink.getvalue() == data


def test_overwrite_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "mesh.json"
    write_json(generate(4), path)
    inode = path.stat().st_ino
    data = write_json(generate(1), path)
    assert path.read_bytes() == data
    assert path.stat().st_ino == inode


def test_overwrite_keeps_the_file_mode_and_hard_links(tmp_path):
    path = tmp_path / "mesh.vtk"
    path.write_bytes(b"old bytes " * 1000)
    path.chmod(0o600)
    linked = tmp_path / "linked.vtk"
    os.link(path, linked)
    data = write_vtk_legacy(generate(2), path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_bytes() == linked.read_bytes() == data


def test_writes_to_the_null_device():
    mesh = generate(2)
    assert write_off_boundary(mesh, os.devnull) == write_off_boundary(mesh)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_writes_to_a_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    data = write_off_boundary(generate(2), fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [data]


def test_json_round_trip_identity():
    for n in (1, 3, 5):
        mesh = generate(n)
        again, fields = read_json(io.BytesIO(write_json(mesh)))
        assert again == mesh
        assert fields == []


def test_json_round_trip_preserves_policy_and_fields():
    mesh = generate(2, AS_GENERATED)
    field = FieldData("temp", tuple(float(i) for i in range(10)))
    again, fields = read_json(io.BytesIO(write_json(mesh, fields=[field])))
    assert again == mesh
    assert fields == [field]


def test_json_kind_census():
    doc2 = json.loads(write_json(generate(2)).decode())
    doc3 = json.loads(write_json(generate(3)).decode())
    census2 = {k: sum(t["kind"] == k for t in doc2["tets"]) for k in ("upright", "fill", "chunk")}
    census3 = {k: sum(t["kind"] == k for t in doc3["tets"]) for k in ("upright", "fill", "chunk")}
    assert census2 == {"upright": 4, "fill": 4, "chunk": 0}
    assert census3 == {"upright": 10, "fill": 16, "chunk": 1}


def test_json_file_round_trip(tmp_path):
    path = tmp_path / "mesh.json"
    mesh = generate(4)
    write_json(mesh, path)
    again, _ = read_json(path)
    assert again == mesh


def _json_dumps_oracle(mesh, fields=()):
    """The document write_json encoded before it formatted nodes and tets itself."""
    doc = {
        "format_version": 1,
        "order": mesh.order,
        "orientation_policy": mesh.orientation_policy,
        "nodes": [
            {"i": n.i, "j": n.j, "k": n.k, "x": c[0], "y": c[1], "z": c[2]}
            for n, c in zip(mesh.nodes, mesh.coords)
        ],
        "tets": [
            {
                "nodes": list(t.nodes),
                "kind": t.kind,
                "level": t.level,
                **({"fill_slot": t.fill_slot} if t.fill_slot is not None else {}),
            }
            for t in mesh.tets
        ],
    }
    if fields:
        doc["fields"] = [{"name": f.name, "values": list(f.values)} for f in fields]
    return (json.dumps(doc, indent=2) + "\n").encode("ascii")


@pytest.mark.parametrize("order", range(1, 13))
@pytest.mark.parametrize("policy", [POSITIVE, AS_GENERATED])
def test_write_json_equals_json_dumps(order, policy):
    rng = random.Random(f"{order}:{policy}")
    mesh = generate(order, policy)
    table = list(range(len(mesh.nodes)))
    rng.shuffle(table)
    values = [rng.uniform(-1.0, 1.0) for _ in mesh.nodes]
    values[:4] = [-0.0, 5e-324, 1e307, 3]  # an int value stays an int
    fields = [
        FieldData("température 温度", tuple(values)),
        FieldData("u", tuple(range(len(mesh.nodes)))),
    ]
    # 0 is a real fill slot; a kind outside KINDS is still escaped as JSON
    odd = SubTet((0, 0, 0, 0), "w\u00e9ird \"kind\"", 1, 0)
    meshes = [
        mesh,
        apply_ordering_permutation(mesh, table),
        replace_tets(mesh, mesh.tets[:1]),
        replace_tets(mesh, ()),
        replace_tets(mesh, (odd,) + mesh.tets[1:]),
    ]
    for variant in meshes:
        for given in ((), fields[:1], fields):
            assert write_json(variant, fields=given) == _json_dumps_oracle(variant, given)


def test_read_json_error_positions():
    with pytest.raises(ValueError, match="line"):
        read_json(io.StringIO("{not json"))


def test_read_json_structural_errors():
    doc = json.loads(write_json(generate(2)).decode())

    def broken(**changes):
        bad = {**doc, **changes}
        return io.StringIO(json.dumps(bad))

    with pytest.raises(ValueError, match="format_version"):
        read_json(broken(format_version=99))
    with pytest.raises(ValueError, match="format_version"):
        read_json(broken(format_version=True))
    with pytest.raises(ValueError, match="format_version"):
        read_json(broken(format_version=1.0))
    with pytest.raises(ValueError, match="nodes must be a JSON array"):
        read_json(broken(nodes=5))
    with pytest.raises(ValueError, match="tets must be a JSON array"):
        read_json(broken(tets=None))
    with pytest.raises(ValueError, match="orientation policy"):
        read_json(broken(orientation_policy="widdershins"))
    with pytest.raises(ValueError, match="missing key"):
        bad = dict(doc)
        del bad["tets"]
        read_json(io.StringIO(json.dumps(bad)))
    with pytest.raises(ValueError, match="kind"):
        bad_tets = [dict(t) for t in doc["tets"]]
        bad_tets[0]["kind"] = "wobbly"
        read_json(broken(tets=bad_tets))
    with pytest.raises(ValueError, match="out of range"):
        bad_tets = [dict(t) for t in doc["tets"]]
        bad_tets[0]["nodes"] = [0, 1, 2, 99]
        read_json(broken(tets=bad_tets))
    with pytest.raises(ValueError, match="4 node ids"):
        bad_tets = [dict(t) for t in doc["tets"]]
        bad_tets[0]["nodes"] = [0, 1, 2]
        read_json(broken(tets=bad_tets))
    with pytest.raises(ValueError, match="JSON object"):
        read_json(io.StringIO("[1, 2]"))
    with pytest.raises(ValueError, match="bad node entry"):
        bad_nodes = [dict(n) for n in doc["nodes"]]
        del bad_nodes[0]["x"]
        read_json(broken(nodes=bad_nodes))


@pytest.mark.parametrize(
    "where, value",
    [
        ("order", 0),
        ("order", -3),
        ("order", True),
        ("order", 2.0),
        ("nodes[3].j", 0.7),
        ("nodes[3].i", True),
        ("nodes[3].x", 1.0),
        ("nodes[3].z", "2"),
        ("tets[2].nodes", 0.7),
        ("tets[2].nodes", True),
        ("tets[2].level", 1.5),
        ("tets[2].fill_slot", False),
    ],
)
def test_read_json_rejects_non_integer_fields(where, value):
    doc = json.loads(write_json(generate(2)).decode())
    if where == "order":
        doc["order"] = value
    elif where.startswith("nodes"):
        doc["nodes"][3][where.rsplit(".", 1)[1]] = value
    elif where == "tets[2].nodes":
        doc["tets"][2]["nodes"][1] = value
    else:
        doc["tets"][2][where.rsplit(".", 1)[1]] = value
    with pytest.raises(ValueError, match=re.escape(where)):
        read_json(io.StringIO(json.dumps(doc)))


GOOD_VALUES = [0.5] * 10


@pytest.mark.parametrize(
    "fields, where",
    [
        (5, "fields must be"),
        ([5], "fields[0] must be"),
        ([{"name": "u", "values": 5}], "fields[0].values must be"),
        ([{"values": GOOD_VALUES}], "fields[0].name"),
        ([{"name": 3, "values": GOOD_VALUES}], "fields[0].name"),
        ([{"name": "", "values": GOOD_VALUES}], "fields[0].name"),
        ([{"name": "u", "values": [True] + GOOD_VALUES[1:]}], "fields[0].values[0]"),
        ([{"name": "u", "values": GOOD_VALUES[:3] + ["1.5"]}], "fields[0].values[3]"),
        ([{"name": "u", "values": GOOD_VALUES[:9] + [None]}], "fields[0].values[9]"),
        (
            [{"name": "u", "values": GOOD_VALUES}, {"name": "v", "values": [10**400]}],
            "fields[1].values[0]",
        ),
        ([{"name": "u", "values": GOOD_VALUES[1:]}], "fields[0] ('u') has 9 values"),
    ],
)
def test_read_json_rejects_bad_fields(fields, where):
    doc = json.loads(write_json(generate(2)).decode())
    doc["fields"] = fields
    with pytest.raises(ValueError, match=re.escape(where)):
        read_json(io.StringIO(json.dumps(doc)))


def test_off_order_2_counts_and_shape():
    lines = write_off_boundary(generate(2)).decode().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "10 16 24"
    vertex_rows = lines[2:12]
    face_rows = lines[12:]
    assert all(len(r.split()) == 3 for r in vertex_rows)
    assert all(r.startswith("3 ") for r in face_rows)
    assert len(face_rows) == 16


def test_off_faces_are_outward_oriented():
    # divergence theorem: sum of det(a, b, c) over an outward closed surface
    # equals 6x the enclosed volume, here N^3
    for n in (1, 2, 4):
        lines = write_off_boundary(generate(n)).decode().splitlines()
        nv, nf, _ = (int(v) for v in lines[1].split())
        verts = [tuple(int(x) for x in r.split()) for r in lines[2 : 2 + nv]]
        total = 0
        for r in lines[2 + nv :]:
            _, a, b, c = (int(x) for x in r.split())
            (ax, ay, az), (bx, by, bz), (cx, cy, cz) = verts[a], verts[b], verts[c]
            total += (
                ax * (by * cz - bz * cy)
                - ay * (bx * cz - bz * cx)
                + az * (bx * cy - by * cx)
            )
        assert len(lines) == 2 + nv + nf
        assert total == n**3


# SHA-256 of write_off_boundary(generate(n, policy)), recorded before the face
# table stored opposite nodes; both policies give the same outward surface
OFF_DIGESTS = {
    1: "5a84e6f11589e6f4d64f2a5407b6754659418b103edc9cbe4d79ef85cf03cf42",
    2: "d08cefe7eb109ce303c9e03d39df2cd227c6687db6cc79f5957cbbdd1b3b10ca",
    3: "39f4304eb52e4f9a09f85561d396611506eb99e5ab656736a6fb1415ed4a83bc",
    4: "544ffcd65cd8ef11543ce62a8e6d1ffd78468d0560ac6d1e743c4782e825375f",
    5: "ca914d22538ab7ed19752dde80148260c37944c47b68719cc2f6e78e683cc2f3",
    6: "f883de8038dd42b1710b07d73676cbda1805c0a83132186b93860386f735e0c7",
    7: "7da96899fbcbd13741f7cc09e0f0c7a33a5dff7f646f818bed22bb92c8b453e0",
    8: "00d7c7d17d5b94f083da1f51a131c7baaf9e820448a0508e385e314c1f398242",
}


@pytest.mark.parametrize("order", sorted(OFF_DIGESTS))
@pytest.mark.parametrize("policy", [POSITIVE, AS_GENERATED])
def test_off_matches_recorded_digest(order, policy):
    data = write_off_boundary(generate(order, policy))
    assert hashlib.sha256(data).hexdigest() == OFF_DIGESTS[order]


def test_off_refuses_overshared_faces():
    mesh = generate(2)
    doubled = replace_tets(mesh, mesh.tets + (mesh.tets[0],))
    with pytest.raises(ValueError, match="watertight"):
        write_off_boundary(doubled)


def test_off_accepts_cavity_mesh():
    # a cavity keeps incidence within {1, 2}; the extra inner faces show up
    lines = write_off_boundary(without_chunks(3)).decode().splitlines()
    assert lines[1].split()[1] == str(4 * 9 + 4)


def test_read_field_whitespace_and_json(tmp_path):
    path = tmp_path / "temps.txt"
    path.write_text("0 1 2\n3\n")
    field = read_field(path, 1)
    assert field.name == "temps"
    assert field.values == (0.0, 1.0, 2.0, 3.0)

    jpath = tmp_path / "t.json"
    jpath.write_text("[0, 1, 2, 3]")
    assert read_field(jpath, 1).values == (0.0, 1.0, 2.0, 3.0)

    assert read_field(io.StringIO("0 1 2 3"), 1).name == "field"
    assert read_field(io.StringIO("0 1 2 3"), 1, name="given").name == "given"


def test_read_field_count_mismatch_names_expected():
    with pytest.raises(ValueError, match="requires 10"):
        read_field(io.StringIO("1 2 3"), 2)


def test_read_field_rejects_json_non_array():
    with pytest.raises(ValueError):
        read_field(io.StringIO('{"a": 1}'), 1)


@pytest.mark.parametrize("text", ["[[1]]", "[null, 1, 2, 3]", "[true, 1, 2, 3]", '[0, 1, "2", 3]'])
def test_read_field_rejects_json_non_numbers(text):
    with pytest.raises(ValueError, match=r"field\[\d\] must be a finite number"):
        read_field(io.StringIO(text), 1)


def test_load_permutation_forms():
    assert load_permutation(io.StringIO("[2, 0, 1]")) == [2, 0, 1]
    assert load_permutation(io.StringIO("2 0 1")) == [2, 0, 1]
    with pytest.raises(ValueError):
        load_permutation(io.StringIO("[true, false]"))
    with pytest.raises(ValueError):
        load_permutation(io.StringIO("[1.5]"))


@pytest.mark.parametrize(
    "text, where",
    [
        ("0 1_0 2 3", "field[1]"),
        ("0 1 2 abc", "field[3]"),
        ("0 \u0661 2 3", "field[1]"),  # ARABIC-INDIC DIGIT ONE
        ("0 1 nan 3", "field[2]"),
        ("0x1 1 2 3", "field[0]"),
    ],
)
def test_read_field_accepts_only_plain_decimal_tokens(text, where):
    with pytest.raises(ValueError, match=re.escape(where) + " must be a plain decimal number"):
        read_field(io.StringIO(text), 1)


def test_read_field_plain_decimal_forms():
    field = read_field(io.StringIO("-1.5e3 .5 5. +2E-1"), 1)
    assert field.values == (-1500.0, 0.5, 5.0, 0.2)
    with pytest.raises(ValueError, match=r"field\[1\] must be a finite number"):
        read_field(io.StringIO("0 1e999 2 3"), 1)


@pytest.mark.parametrize(
    "text, where", [("0 1_0 2", "permutation[1]"), ("0 1 2.0", "permutation[2]")]
)
def test_load_permutation_accepts_only_plain_decimal_tokens(text, where):
    with pytest.raises(ValueError, match=re.escape(where) + " must be a plain decimal integer"):
        load_permutation(io.StringIO(text))


@pytest.mark.parametrize(
    "text, where",
    [("[0, 1.5, 2]", "permutation[1]"), ("[true, 0]", "permutation[0]"), ('[0, 1, "2"]', "permutation[2]")],
)
def test_load_permutation_names_a_bad_json_entry(text, where):
    with pytest.raises(ValueError, match=re.escape(where) + " must be an integer"):
        load_permutation(io.StringIO(text))


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "read",
    [read_json, lambda source: read_field(source, 1), load_permutation],
    ids=["read_json", "read_field", "load_permutation"],
)
def test_deeply_nested_json_is_a_value_error(read):
    with pytest.raises(ValueError, match="nested too deeply"):
        read(io.StringIO(DEEP))


@pytest.mark.parametrize("order", [1, 3, 10_000])
def test_read_json_refuses_a_node_count_other_than_the_orders(order):
    # an order-2 body: 10 nodes
    doc = json.loads(write_json(generate(2)).decode())
    doc["order"] = order
    with pytest.raises(ValueError, match=f"nodes has 10 entries, expected {node_count(order)}"):
        read_json(io.StringIO(json.dumps(doc)))


def test_apply_permutation_to_field():
    field = FieldData("f", (10.0, 11.0, 12.0, 13.0))
    moved = apply_ordering_permutation(field, [3, 2, 1, 0])
    assert moved.values == (13.0, 12.0, 11.0, 10.0)
    with pytest.raises(ValueError, match="bijection"):
        apply_ordering_permutation(field, [0, 0, 1, 2])


def test_apply_permutation_to_mesh_preserves_geometry():
    mesh = generate(2)
    table = list(reversed(range(len(mesh.nodes))))
    moved = apply_ordering_permutation(mesh, table)
    assert moved.order == mesh.order
    for old, new in enumerate(table):
        assert moved.nodes[new] == mesh.nodes[old]
        assert moved.coords[new] == mesh.coords[old]
    for before, after in zip(mesh.tets, moved.tets):
        assert after.nodes == tuple(table[v] for v in before.nodes)
        original = [mesh.coords[v] for v in before.nodes]
        remapped = [moved.coords[v] for v in after.nodes]
        assert original == remapped


def test_apply_identity_permutation_is_noop():
    mesh = generate(3)
    assert apply_ordering_permutation(mesh, list(range(len(mesh.nodes)))) == mesh


def test_permutation_composed_with_inverse_is_identity():
    mesh = generate(2)
    table = [(7 * v + 3) % len(mesh.nodes) for v in range(len(mesh.nodes))]
    inverse = [0] * len(table)
    for old, new in enumerate(table):
        inverse[new] = old
    assert apply_ordering_permutation(
        apply_ordering_permutation(mesh, table), inverse
    ) == mesh
    field = FieldData("f", tuple(float(v) for v in range(len(table))))
    assert apply_ordering_permutation(
        apply_ordering_permutation(field, table), inverse
    ) == field


def test_apply_permutation_rejects_other_types():
    with pytest.raises(TypeError):
        apply_ordering_permutation([1.0, 2.0], [1, 0])

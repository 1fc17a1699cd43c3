"""The three benchmark workloads, built on the package's public API.

A workload makes its inputs from the seed: ``setup`` builds what a run
shares, ``prepare(i)`` builds the inputs of operation ``i`` (outside the
timed region), ``op`` is the timed operation and ``check`` is the
correctness gate on its output.  ``op`` gets a ``lap`` callable that a long
operation calls between its steps, so that the harness can measure the host
speed there, outside the timed region.  The seed changes only values (field
values, embeddings, permutation tables, which tet or node a mutation hits,
sampling seeds), never the orders or the mix, so every seed does the same
amount of work.

Operations call the package through module attributes (``tio.read_json``,
not a name imported once), so the traced run can swap in span-recording
wrappers by patching those attributes.
"""

from __future__ import annotations

import dataclasses
import io
import os
import random
import shutil
import tempfile
from collections.abc import Callable

from tetsubdiv import cli, connectivity, lattice, validation
from tetsubdiv import io as tio

from checks import check_off, check_vtk, sha256


def _no_lap() -> None:
    pass


def _random_corners(rng: random.Random) -> tuple:
    while True:
        corners = tuple(tuple(rng.uniform(-10.0, 10.0) for _ in range(3)) for _ in range(4))
        if abs(lattice.tet_volume6(*corners)) > 1.0:
            return corners


class ExportMany:
    """Post-process one order-8 element per operation: generate, permute, write VTK."""

    name = "export-many"
    cycle = 1
    # set-ups per run, of which setup_s is the median; each takes tens of ms
    setup_reps = 15
    # calibration kernel (items, repetitions) with a working set like this workload's
    calibration = (500, 5)

    def __init__(self, smoke: bool):
        self.order = 2 if smoke else 8
        self.trace_ops = 20 if smoke else 100
        self.memory_ops = 3
        self.n_nodes = lattice.node_count(self.order)

    def setup(self, seed: int, scratch: str) -> None:
        self.seed = seed
        # one node-ordering convention per run, as when exporting to one tool
        self.table = list(range(self.n_nodes))
        random.Random(f"{self.name}:{seed}").shuffle(self.table)
        # barycentric weights of the nodes in canonical order, for the gate
        self.weights = [tuple(float(w) for w in lattice.node_barycentric(node, self.order))
                        for node in lattice.enumerate_nodes(self.order)]

    def prepare(self, i: int) -> tuple:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        field = tio.FieldData("u", tuple(rng.uniform(-1.0, 1.0) for _ in range(self.n_nodes)))
        return field, tio.PhysicalEmbedding(_random_corners(rng))

    def op(self, inputs: tuple, lap: Callable[[], None]) -> bytes:
        field, embedding = inputs
        mesh = tio.apply_ordering_permutation(connectivity.generate(self.order), self.table)
        field = tio.apply_ordering_permutation(field, self.table)
        return tio.write_vtk_legacy(mesh, fields=[field], embedding=embedding)

    def tets(self, inputs: tuple) -> int:
        return self.order**3

    def check(self, inputs: tuple, data: bytes) -> list[str]:
        # The expected output is rebuilt from the seeded input: canonical node
        # ``old`` lands at ``table[old]``, both its value and its position.
        field, embedding = inputs
        values = [0.0] * self.n_nodes
        points = [(0.0, 0.0, 0.0)] * self.n_nodes
        for old, new in enumerate(self.table):
            values[new] = field.values[old]
            points[new] = tuple(sum(w * c[axis] for w, c in zip(self.weights[old], embedding.corners))
                                for axis in range(3))
        return check_vtk(data, self.n_nodes, self.order**3, values, points)

    def reference_streams(self) -> list[bytes]:
        return [self.op(self.prepare(i), _no_lap) for i in range(8)]

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class ExportLarge:
    """One order-32 element per operation through the CLI: gen to VTK, JSON and OFF."""

    name = "export-large"
    cycle = 1
    setup_reps = 3  # each set-up includes a warm-up operation at order 32
    fields = 4

    def __init__(self, smoke: bool):
        self.order = 3 if smoke else 32
        self.calibration = (500, 5) if smoke else (100_000, 1)
        self.trace_ops = 2
        self.memory_ops = 1
        self.n_nodes = lattice.node_count(self.order)
        # recorded reference digests: VTK, JSON, OFF of the reference operation
        self.recorded: list[str] = []

    def setup(self, seed: int, scratch: str) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.tmp = tempfile.mkdtemp(prefix="export-large-", dir=scratch)
        self.pool = []
        for slot in range(self.fields):
            values = tuple(rng.uniform(-1.0, 1.0) for _ in range(self.n_nodes))
            path = os.path.join(self.tmp, f"field{slot}.txt")
            with open(path, "w", encoding="ascii") as handle:
                handle.write("\n".join(repr(v) for v in values) + "\n")
            embedding = [f"{c:.6f}" for corner in _random_corners(rng) for c in corner]
            self.pool.append((path, embedding, values))
        self.out = {fmt: os.path.join(self.tmp, f"mesh.{fmt}") for fmt in ("vtk", "json", "off")}
        self.last_json = None

    def prepare(self, i: int) -> tuple:
        return self.pool[i % self.fields]

    def op(self, inputs: tuple, lap: Callable[[], None]) -> tuple[int, ...]:
        field_path, embedding, _ = inputs
        order, out = str(self.order), self.out
        codes = [cli.run(["gen", "--order", order, "--format", "vtk", "--field", field_path,
                          "--embedding", *embedding, "--out", out["vtk"]])]
        lap()
        codes.append(cli.run(["gen", "--order", order, "--format", "json", "--out", out["json"]]))
        lap()
        codes.append(cli.run(["gen", "--order", order, "--format", "off", "--out", out["off"]]))
        return tuple(codes)

    def tets(self, inputs: tuple) -> int:
        return self.order**3

    def _read(self) -> dict[str, bytes]:
        data = {}
        for fmt, path in self.out.items():
            with open(path, "rb") as handle:
                data[fmt] = handle.read()
        return data

    def check(self, inputs: tuple, codes: tuple[int, ...]) -> list[str]:
        if codes != (0, 0, 0):
            return [f"cli exit codes {codes}"]
        data = self._read()
        problems = check_vtk(data["vtk"], self.n_nodes, self.order**3, inputs[2])
        problems += check_off(data["off"], self.order)
        # The JSON and OFF bytes do not depend on the seed, so their recorded
        # digests check every operation; final_check adds one full round trip.
        for fmt, digest in zip(("json", "off"), self.recorded[1:]):
            if sha256(data[fmt]) != digest:
                problems.append(f"{fmt} bytes differ from the recorded digest")
        self.last_json = data["json"]
        return problems

    def reference_streams(self) -> list[bytes]:
        if self.op(self.prepare(0), _no_lap) != (0, 0, 0):
            return []
        data = self._read()
        return [data["vtk"], data["json"], data["off"]]

    def final_check(self) -> list[str]:
        if self.last_json is None:
            return []
        mesh, fields = tio.read_json(io.BytesIO(self.last_json))
        if (mesh, fields) != (connectivity.generate(self.order), []):
            return ["read_json(write_json(mesh)) does not give back the mesh"]
        return []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


@dataclasses.dataclass(frozen=True)
class Document:
    data: bytes
    mesh: connectivity.SubdivisionMesh
    honest: bool


def _without(mesh, at):
    return dataclasses.replace(mesh, tets=mesh.tets[:at] + mesh.tets[at + 1 :])


def _duplicate_tet(mesh, rng):
    return dataclasses.replace(mesh, tets=mesh.tets + (rng.choice(mesh.tets),))


def _permute_tet_nodes(mesh, rng):
    at = rng.randrange(len(mesh.tets))
    tet = mesh.tets[at]
    a, b, c, d = tet.nodes
    swapped = dataclasses.replace(tet, nodes=(a, b, d, c))
    return dataclasses.replace(mesh, tets=mesh.tets[:at] + (swapped,) + mesh.tets[at + 1 :])


def _delete_corner_tet(mesh, rng):
    corners = {lattice.node_id(*c) for c in lattice.corner_nodes(mesh.order)}
    return _without(mesh, rng.choice([t for t, tet in enumerate(mesh.tets) if corners & set(tet.nodes)]))


def _delete_interior_tet(mesh, rng):
    return _without(mesh, rng.choice([t for t, tet in enumerate(mesh.tets) if tet.kind == connectivity.CHUNK]))


def _move_node(mesh, rng):
    node = rng.randrange(len(mesh.coords))
    moved = list(mesh.coords[node])
    moved[rng.randrange(3)] += rng.choice((-2, -1, 1, 2))
    coords = mesh.coords[:node] + (tuple(moved),) + mesh.coords[node + 1 :]
    return dataclasses.replace(mesh, coords=coords)


# The corruption applied at each position of the order cycle: the four of
# acceptance criterion 7 plus a node moved by 1-2 lattice units.  Position 4
# has order >= 3 in both sizes, so a chunk (interior) tet exists there.
_MUTATIONS = (
    _duplicate_tet,
    _permute_tet_nodes,
    _delete_corner_tet,
    _move_node,
    _delete_interior_tet,
    _move_node,
)


class ValidateMix:
    """read_json then validate over a fixed order cycle, one document in four mutated."""

    name = "validate-mix"
    setup_reps = 5

    def __init__(self, smoke: bool):
        self.orders = (1, 2, 3, 2, 3, 4) if smoke else (2, 3, 4, 8, 16, 24)
        self.calibration = (500, 5) if smoke else (20_000, 1)
        self.validate_args = {"samples": 500} if smoke else {}
        self.cycle = len(self.orders)
        # Four passes over the cycle make one period; position p is mutated on
        # pass p % 4, so each position is mutated once per period (6 of 24).
        self.period = 4 * self.cycle
        self.trace_ops = self.period
        self.memory_ops = self.cycle

    def setup(self, seed: int, scratch: str) -> None:
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        honest: dict[int, Document] = {}
        self.docs = []
        for rep in range(4):
            for pos, order in enumerate(self.orders):
                if order not in honest:
                    mesh = connectivity.generate(order)
                    honest[order] = Document(tio.write_json(mesh), mesh, True)
                if pos % 4 == rep:
                    mesh = _MUTATIONS[pos](honest[order].mesh, rng)
                    self.docs.append(Document(tio.write_json(mesh), mesh, False))
                else:
                    self.docs.append(honest[order])

    def prepare(self, i: int) -> tuple[Document, int]:
        sample_seed = random.Random(f"{self.name}:{self.seed}:{i}").randrange(2**31)
        return self.docs[i % self.period], sample_seed

    def op(self, inputs: tuple[Document, int], lap: Callable[[], None]) -> tuple:
        doc, sample_seed = inputs
        mesh, _ = tio.read_json(io.BytesIO(doc.data))
        lap()
        return mesh, validation.validate(mesh, seed=sample_seed, **self.validate_args)

    def tets(self, inputs: tuple[Document, int]) -> int:
        return inputs[0].mesh.order ** 3

    def check(self, inputs: tuple[Document, int], output: tuple) -> list[str]:
        doc = inputs[0]
        mesh, report = output
        problems = []
        if mesh != doc.mesh:
            problems.append("read_json(write_json(mesh)) does not give back the mesh")
        if report.passed != doc.honest:
            kind = "honest" if doc.honest else "mutated"
            verdict = "passed" if report.passed else "failed"
            problems.append(f"{kind} order-{mesh.order} document {verdict} validation")
        return problems

    def reference_streams(self) -> list[bytes]:
        return [doc.data for doc in self.docs]

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (ExportMany, ExportLarge, ValidateMix)}

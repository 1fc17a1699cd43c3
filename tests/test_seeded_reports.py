"""Seeded validation reports stay byte-identical to the recorded goldens.

The containment sampler's points depend only on the seed, so a report is a
pure function of (mesh, samples, seed).  The goldens under
``tests/golden/reports/`` pin honest meshes and one mutant per failure
mode of the sampler: a gap, an overlap, redraws (a moved node makes two
nodes coincide, so sample points land on degenerate tets' boundaries) and
a tet with a repeated node, whose result depends on the side-test order.

Regenerate them with ``PYTHONPATH=src python tests/test_seeded_reports.py``
only when a report is meant to change, and say why in the change log.
"""

import pathlib
import random
import sys

import pytest

from _meshes import with_doubled, with_moved_node, with_repeated_node, without_chunks
from tetsubdiv.connectivity import AS_GENERATED, generate
from tetsubdiv.validation import _SAMPLE_DENOMINATOR, _element_points, validate

GOLDEN = pathlib.Path(__file__).parent / "golden" / "reports"
SAMPLES = 2000


# name -> (mesh builder, sampling seed)
CASES = {
    "order1": (lambda: generate(1), 1),
    "order2": (lambda: generate(2), 2),
    "order3": (lambda: generate(3), 3),
    "order4": (lambda: generate(4), 4),
    "order8": (lambda: generate(8), 8),
    "order3-as-generated": (lambda: generate(3, AS_GENERATED), 5),
    "gap-without-chunks3": (lambda: without_chunks(3), 0),
    "overlap-doubled-tet3": (lambda: with_doubled(generate(3), generate(3).tets[-1]), 0),
    # the repeated-node result depends on the side-test order, so it pins it
    "side-order-repeated-node3": (lambda: with_repeated_node(generate(3), 5), 0),
    "redraw-moved-node2": (lambda: with_moved_node(generate(2), 7, 1, 1), 0),
}


def _report(name):
    build, seed = CASES[name]
    return validate(build(), samples=SAMPLES, seed=seed).to_json() + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="ascii")
    assert _report(name) == expected


class _Scripted(random.Random):
    """A generator whose ``getrandbits`` replays ``script`` before going random.

    Overriding ``getrandbits`` makes ``randrange`` draw through it too.
    """

    def getrandbits(self, k):
        return self.script.pop(0) if self.script else super().getrandbits(k)


def _scripted(seed, script):
    rng = _Scripted(seed)
    rng.script = list(script)
    return rng


@pytest.mark.parametrize("order", [1, 2, 24])
def test_draws_match_randrange(order):
    # The sampler's points are the triples of 10,000 randrange(1, nd) draws
    # that fall inside the element.  The script starts with the edges: raw
    # bits at and around the rejection bound nd - 1 and at the top of the
    # bit width, then triples summing to nd (outside) and nd - 1 (inside).
    nd = order * _SAMPLE_DENOMINATOR
    top = 2 ** (nd - 1).bit_length() - 1
    script = [nd - 1, nd - 2, nd, top, 0, nd - 2, nd - 3, 1, 0]
    script += [0, 0, nd - 3, 0, 0, nd - 4]
    reference = _scripted(order, script)
    expected, tries = [], 0
    for _ in range(10_000 // 3 + 1):
        u, v, w = (reference.randrange(1, nd) for _ in range(3))
        tries += 1
        if u + v + w < nd:
            expected.append((u, v, w, tries))
            tries = 0
    points = _element_points(_scripted(order, script), nd)
    assert [next(points) for _ in expected] == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        (GOLDEN / f"{case}.json").write_text(_report(case), encoding="ascii")

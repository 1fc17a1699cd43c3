"""Hostile JSON: a mutated mesh document is refused by read_json or gets a report.

Each example takes the document ``write_json`` gives for order 1, 2 or 3 and
replaces one to three of its values, containers included, with an int, a
bool, null, a float, a string or a list.  ``read_json`` must then raise a
``ValueError``, or ``validate`` must return a report; any other exception
fails the test.
"""

import io
import json

import pytest

from tetsubdiv.connectivity import KINDS, ORIENTATION_POLICIES, generate
from tetsubdiv.io import read_json, write_json
from tetsubdiv.validation import ValidationReport, validate

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_TEXTS = {n: write_json(generate(n)).decode() for n in (1, 2, 3)}


def _positions(value, path=()):
    """The key path of every value below ``value``, containers included."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _positions(child, path + (key,))


_POSITIONS = {n: list(_positions(json.loads(text))) for n, text in _TEXTS.items()}

_VALUES = st.one_of(
    st.integers(min_value=-2, max_value=25),  # near the node ids, levels and slots in use
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from(KINDS + ORIENTATION_POLICIES),
    st.text(max_size=8),
    st.lists(st.integers(min_value=-1, max_value=25), max_size=5),
)


@st.composite
def _mutated_documents(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    doc = json.loads(_TEXTS[n])
    edited = []
    for path in draw(st.lists(st.sampled_from(_POSITIONS[n]), min_size=1, max_size=3)):
        if any(path[: len(done)] == done for done in edited):
            continue  # an earlier edit replaced this position
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = draw(_VALUES)
        edited.append(path)
    return json.dumps(doc)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_mutated_documents())
def test_hostile_document_is_refused_or_reported(text):
    try:
        mesh, _ = read_json(io.StringIO(text))
    except ValueError:
        return
    assert isinstance(validate(mesh, samples=50), ValidationReport)

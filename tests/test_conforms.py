"""The scenario check, which words its rejections without jsonschema.

``cli._validate_scenario`` must reject exactly what jsonschema 4.26 rejects,
with the message of the error that jsonschema's ``best_match`` picks, and a
cold ``run`` or ``verify`` must work where jsonschema cannot be imported.
"""

import copy
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import Draft202012Validator, validator_for

import zitterkit
from zitterkit import cli
from zitterkit.cli import _INITIAL_SCHEMAS, SCENARIO_SCHEMA, _errors, load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SHIPPED = [load_scenario(os.path.join(SCENARIO_DIR, name))
           for name in sorted(os.listdir(SCENARIO_DIR))]

# the shipped scenarios, a hamilton run on free_cmf's settings (no shipped
# scenario is of that kind), and the scenario of each `zitterkit verify` suite
DOCUMENTS = [
    *SHIPPED,
    {**SHIPPED[1], "kind": "hamilton",
     "initial": {"x": [0, 0, 0, 0], "p": [1, 0, 0, 0], "q": [1, 0.1, 0, 0],
                 "pi": [0, 0, -0.05, 0],
                 "potential": {"type": "linear", "b": [0, 0.01, 0, 0], "k": 0.05}}},
    *({"kind": "verify", "verify": {"suite": suite, "seed": 1, "points": 100}}
      for suite in cli._SUITES),
]

POOL = [True, False, None, 0, -1, -0.0, 0.5, 3.0, math.nan, math.inf, -math.inf,
        2**64, 2**64 - 1, 1e300, "", "free", "harmonic", "csv", "all", [], {},
        [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0, 4.0], [True, False, True],
        [True, False, True, False], [[0.0, 1.0, 2.0, 3.0]]]
NAMES = ["extra", "type", "k", "path", "x0", "seed"]


def _paths(node, prefix=()):
    """Every path below ``node``, as a tuple of keys and indices."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A document with one to three edits.  Each edit walks down from the
    top, picking a key or index at every level, so that a field weighs as
    much as a whole list; there it sets a pool value, deletes the key, or
    adds a name to the object it reached (or to the object holding it)."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        path = ()
        while isinstance(node := _at(doc, path), (dict, list)) and node:
            if path and draw(st.booleans()):
                break
            path += (draw(st.sampled_from(list(node) if isinstance(node, dict)
                                          else range(len(node)))),)
        if not path:  # the document lost its last key
            break
        parent, key = _at(doc, path[:-1]), path[-1]
        how = draw(st.sampled_from(["set", "delete", "add"]))
        if how == "set":
            parent[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
        elif isinstance(parent, dict) and how == "delete":
            del parent[key]
        elif how == "add":
            target = parent[key] if isinstance(parent[key], dict) else parent
            if isinstance(target, dict):
                target[draw(st.sampled_from(NAMES))] = copy.deepcopy(draw(st.sampled_from(POOL)))
    return doc


# one validator per schema, in the dialect that jsonschema.validate picks
VALIDATORS = {kind: validator_for(schema)(schema) for kind, schema in
              [(None, SCENARIO_SCHEMA), *_INITIAL_SCHEMAS.items()]}


def _jsonschema_message(doc):
    """The message of the error that jsonschema reports for ``doc``: the
    best match of the whole, else of the initial section against the schema
    of its kind; None if both conform."""
    error = best_match(VALIDATORS[None].iter_errors(doc))
    section = ()
    if error is None:
        error = best_match(VALIDATORS[doc["kind"]].iter_errors(doc.get("initial", {})))
        section = ("initial",)
    if error is None:
        return None
    path = "/".join(str(p) for p in (*section, *error.absolute_path)) or "(top level)"
    return f"scenario field {path}: {error.message}"


def _found(validator, value):
    """jsonschema's errors of ``value`` in its order, as (path, message)."""
    return [(tuple(error.absolute_path), error.message) for error in validator.iter_errors(value)]


def _assert_agrees(doc, initial_too=True):
    """Every error of ``doc``, and of its initial section against the schema
    of every kind, in jsonschema's order, and then the message of the one
    reported, are jsonschema's."""
    assert list(_errors(doc, SCENARIO_SCHEMA)) == _found(VALIDATORS[None], doc)
    initial = doc.get("initial", {})
    for kind, schema in _INITIAL_SCHEMAS.items() if initial_too else ():
        assert list(_errors(initial, schema)) == _found(VALIDATORS[kind], initial), kind
    expected = _jsonschema_message(doc)
    if expected is None:  # the checks after the schema may still reject it
        return
    with pytest.raises(cli.ValidationFailure) as failure:
        cli._validate_scenario(copy.deepcopy(doc))
    assert str(failure.value) == expected


def _single_edits():
    """Each document with one edit: every pool value set at, and the key
    deleted from, every place in it, and every name added to every object.
    The first item of a list stands for all, and a place already edited in a
    document of the same kind is skipped."""
    seen = set()
    for doc in DOCUMENTS:
        places = [()] + [path for path in _paths(doc) if not any(
            isinstance(key, int) and key > 0 for key in path)]
        for path in places:
            if (doc["kind"], path) in seen:
                continue
            seen.add((doc["kind"], path))
            node = _at(doc, path)
            for value in POOL if path else ():
                edited = copy.deepcopy(doc)
                _at(edited, path[:-1])[path[-1]] = copy.deepcopy(value)
                yield edited
            if path and isinstance(_at(doc, path[:-1]), dict):
                edited = copy.deepcopy(doc)
                del _at(edited, path[:-1])[path[-1]]
                yield edited
            for name in NAMES if isinstance(node, dict) else ():
                for value in (0.5, "x"):
                    edited = copy.deepcopy(doc)
                    _at(edited, path)[name] = value
                    yield edited


def test_conforms_decides_as_jsonschema_on_every_single_edit():
    count, initials = 0, set()  # most edits leave an initial section checked before
    for count, doc in enumerate(_single_edits(), start=1):
        initial = repr(doc.get("initial", {}))
        _assert_agrees(doc, initial not in initials)
        initials.add(initial)
    assert count > 2000


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_conforms_decides_as_jsonschema(doc):
    _assert_agrees(doc)


@pytest.mark.parametrize("value, schema, valid", [
    (True, {"type": "number"}, False),
    (False, {"type": "integer"}, False),
    (3.0, {"type": "integer"}, True),
    (3.5, {"type": "integer"}, False),
    (math.nan, {"type": "number", "exclusiveMinimum": 0}, True),
    (-0.0, {"type": "number", "exclusiveMinimum": 0}, False),
    ("seven", {"minimum": 8, "maxItems": 0, "required": ["x"]}, True),
    ({"a": 1}, {"items": {"type": "string"}, "minimum": 2}, True),
    (1, {"enum": [True]}, False),
    ({"a": 1}, {"additionalProperties": False, "properties": {"a": {"type": "integer"}}}, True),
])
def test_conforms_keeps_jsonschemas_semantics(value, schema, valid):
    # a bool is no number, an integral float is an integer, NaN passes a
    # bound and -0.0 fails exclusiveMinimum 0; each keyword applies only to
    # its own type of value
    expected = [error.message for error in Draft202012Validator(schema).iter_errors(value)]
    assert (expected == []) is valid
    assert [message for _, message in _errors(value, schema)] == expected


def test_conforms_raises_on_a_keyword_it_does_not_check():
    with pytest.raises(KeyError, match="pattern"):
        list(_errors("x", {"type": "string", "pattern": "^x$"}))
    # additionalProperties is checked only as false, whatever the value
    for rule in ({"type": "integer"}, True, {}):
        with pytest.raises(KeyError, match="additionalProperties"):
            list(_errors(0, {"additionalProperties": rule}))


def test_a_cold_start_runs_without_jsonschema():
    code = f"""
import contextlib, io, json, os, sys
sys.modules["jsonschema"] = None  # any import of it raises ImportError
import zitterkit.cli as cli
for name in sorted(os.listdir({SCENARIO_DIR!r})):
    cli._validate_scenario(cli.load_scenario(os.path.join({SCENARIO_DIR!r}, name)))
with contextlib.redirect_stdout(io.StringIO()) as out:
    verified = cli.main(["verify", "--suite", "dirac", "--points", "1"])
with contextlib.redirect_stderr(io.StringIO()) as err:
    rejected = cli.main(["verify", "--suite", "dirac", "--points", "0"])
print(json.dumps([verified, "PASS" in out.getvalue(), rejected, err.getvalue()]))
"""
    src = os.path.dirname(os.path.dirname(zitterkit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    verified, passed, rejected, err = json.loads(out.stdout)
    assert (verified, passed) == (0, True)
    assert rejected == 2
    assert err == "error: scenario field verify/points: 0 is less than the minimum of 1\n"

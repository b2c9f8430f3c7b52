"""Fuzz every subcommand that reads JSON: malformed input must exit 1 with a message.

Each example runs ``cli.main`` in-process on one JSON document, either an
arbitrary JSON value or a valid document with one mutation (a key dropped, a
field retyped, a value wrapped in a list, or ``true``, ``2.7`` or ``1e400``
swapped in).  The property: exit 0, or exit 1 with ``error:`` on stderr and
nothing on stdout.  Never a traceback, never a wrong answer printed before the
error.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from affine_schur.cli import main

# Examples per subcommand in tier-1; the module stays well under 10 s.
FUZZ_EXAMPLES = 60

# Every integer is drawn from this small range.  The affine determinant
# (`det`, and the membership check of `eval-semigroup`) is a Leibniz sum of
# n! terms, so a fuzzed period in the thousands would run for ever; that cost
# is known and is not the defect under test.
INTS = st.integers(-3, 6)

KEYS = st.sampled_from(["n", "r", "terms", "coeff", "pairs", "tuple", "entries"])
SCALARS = (
    st.none()
    | st.booleans()
    | INTS
    | st.sampled_from([2.7, 1e400, -0.0, float("nan")])
    | st.text(max_size=4)
    | st.sampled_from(["1", "1/2", "-3/4", "1/0", "2.5", " 1"])
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)

RATIONAL = INTS | st.sampled_from(["1", "-1", "1/2", "-3/4", "5"])
LAURENT = st.lists(st.tuples(INTS, RATIONAL).map(list), max_size=2)
PAIR = st.tuples(INTS, INTS).map(list)


@st.composite
def element_doc(draw):
    n, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    term = st.fixed_dictionaries(
        {"coeff": LAURENT, "pairs": st.lists(PAIR, min_size=r, max_size=r)}
    )
    return {"n": n, "r": r, "terms": draw(st.lists(term, max_size=2))}


# vectors for the `act` element xi[(1,1)|(1,2)], so n = 1 and r = 2
VECTOR_DOC = st.fixed_dictionaries({
    "n": st.just(1),
    "r": st.just(2),
    "terms": st.lists(
        st.fixed_dictionaries(
            {"coeff": LAURENT, "tuple": st.lists(INTS, min_size=2, max_size=2)}
        ),
        max_size=2,
    ),
})
MATRIX_DOC = st.fixed_dictionaries({
    "n": st.integers(1, 3),
    "entries": st.lists(
        st.tuples(INTS, INTS, RATIONAL | LAURENT).map(list), max_size=4
    ),
})
POLY_DOC = st.lists(
    st.fixed_dictionaries(
        {"pairs": st.lists(st.tuples(st.just(1), INTS).map(list), min_size=1, max_size=1),
         "coeff": RATIONAL}
    ),
    min_size=1,
    max_size=2,
)


def _paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _paths(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


@st.composite
def mutated(draw, valid):
    """A valid document with one value dropped, wrapped or replaced."""
    doc = copy.deepcopy(draw(valid))
    path = draw(st.sampled_from(list(_paths(doc))))
    how = draw(st.sampled_from(["drop", "wrap", "replace"]))
    if not path:
        return [doc] if how == "wrap" else draw(SCALARS)
    outer = doc
    for step in path[:-1]:
        outer = outer[step]
    last = path[-1]
    if how == "drop":
        del outer[last]
    elif how == "wrap":
        outer[last] = [outer[last]]
    else:
        outer[last] = draw(st.sampled_from([True, 2.7, 1e400, None, "x", [], {}]) | INTS)
    return doc


@pytest.fixture(scope="module")
def vector_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "v.json"
    path.write_text('{"n":1,"r":2,"terms":[{"coeff":[[0,"1"]],"tuple":[1,2]}]}')
    return str(path)


# (argv, valid documents); "-" is where the fuzzed document is read
COMMANDS = {
    "act-element": (["act", "-", "VECTOR"], element_doc()),
    "act-vector": (["act", "xi[(1,1)|(1,2)]", "-", "-n", "1"], VECTOR_DOC),
    "hom": (["hom", "apply", "--kind", "psi_a", "--element", "-"], element_doc()),
    "weyl": (["weyl", "-", "--rho"], element_doc()),
    "eval-semigroup": (["eval-semigroup", "--matrix", "-", "--r", "1"], MATRIX_DOC),
    "det": (["det", "--matrix", "-"], MATRIX_DOC),
    "witness": (["witness", "--poly", "-", "--n", "1"], POLY_DOC),
}


def run_main(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(stdin))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=FUZZ_EXAMPLES)
@given(data=st.data())
def test_json_input_exits_zero_or_one_with_message(command, vector_file, data):
    argv, valid = COMMANDS[command]
    argv = [vector_file if a == "VECTOR" else a for a in argv]
    doc = data.draw(ANY_JSON | mutated(valid) | valid, label="document")
    code, out, err = run_main(argv, json.dumps(doc))
    if code != 0:
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith("error: "), err

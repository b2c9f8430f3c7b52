import json
import os
import subprocess
import sys

import pytest

from affine_schur import expr
from affine_schur.cli import main
from affine_schur.laurent import Laurent
from affine_schur.looplie import decompose_y
from affine_schur.schur import AlgebraElement, basis_indices, structure_constants
from affine_schur import cache as cache_mod
from affine_schur import schur


def test_parse_product_of_atoms():
    node = expr.parse("xi[(1,1)|(1,2)] * xi[(1,1)|(1,2)]")
    assert node.kind == "product"
    assert [c.kind for c in node.children] == ["atom", "atom"]


def test_parse_scalar_term():
    node = expr.parse("2*a * xi[(1)|(2)] + xi[(1)|(1)]")
    assert node.kind == "sum"
    value = expr.evaluate(node, 1)
    want = AlgebraElement.basis(1, (1,), (2,)).scale(Laurent.gen(1, 2)) + AlgebraElement.basis(
        1, (1,), (1,)
    )
    assert value == want


def test_parse_error_column():
    with pytest.raises(expr.ParseError) as err:
        expr.parse("xi[(1,1)|(1,2)")
    assert "column" in str(err.value)
    assert err.value.column == 15


def test_mixed_context_rejected():
    node = expr.parse("xi[(1)|(2)] + xi[(1,1)|(1,2)]")
    with pytest.raises(expr.ParseError):
        expr.evaluate(node, 2)


def test_print_parse_round_trip():
    corpus = [
        "xi[(1,1)|(1,2)]*xi[(1,1)|(1,2)]",
        "2*xi[(1)|(2)] + xi[(1)|(1)]",
        "a^-1*xi[(1,2)|(3,0)] - 1/2*xi[(1,1)|(1,1)]",
        "(xi[(1)|(1)] + xi[(1)|(2)])*xi[(1)|(3)]",
    ]
    for text in corpus:
        node = expr.parse(text)
        printed = expr.print_node(node)
        again = expr.parse(printed)
        assert expr.print_node(again) == printed
        assert expr.evaluate(again, 1) == expr.evaluate(node, 1)


def test_decompositions_print_and_parse_back():
    # a negative scale inside a sum must print as a factor parse reads back
    for n in (1, 2):
        for r in (1, 2, 3):
            for pairs in basis_indices(n, r, 1):
                tree = decompose_y(pairs, n)
                again = expr.parse(expr.print_node(tree))
                assert expr.evaluate(again, n) == expr.evaluate(tree, n)


def test_scalar_parsing():
    assert expr.parse_scalar("4 + 12*a + 9*a^2") == Laurent({0: 4, 1: 12, 2: 9})
    assert expr.parse_scalar("1/2*a^-1") == Laurent({-1: __import__("fractions").Fraction(1, 2)})


def run_cli(args, stdin=None):
    import io
    from contextlib import redirect_stdout

    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def test_cli_specialize():
    code, out = run_cli(
        ["hom", "apply", "--kind", "psi_a", "--element", "-", "--text", "--spec-a", "3"],
        stdin=json.dumps(AlgebraElement.basis(2, (1, 1), (3, 1)).to_json()),
    )
    assert code == 0
    assert out.strip() == "6*xi[(1,1)|(1,1)]"


def test_cli_weyl_and_lie(tmp_path):
    code, out = run_cli(["multiply", "-n", "2", "xi[(1,2)|(1,4)]"])
    code, out = run_cli(["weyl", "-", "--rho", "--text"], stdin=out)
    assert code == 0 and out.strip() == "xi[(1,2)|(3,2)]"
    code, out = run_cli(["lie", "pi", "--s", "1", "--t", "2", "--n", "2", "--r", "2", "--text"])
    assert code == 0 and out.strip() == "xi[(1,1)|(1,2)] + xi[(1,2)|(2,2)]"


def test_cli_semigroup_commands(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text('{"n":1,"entries":[[1,1,"2"],[1,2,"3"]]}')
    code, out = run_cli(["eval-semigroup", "--matrix", str(mpath), "--r", "1", "--text"])
    assert code == 0 and out.strip() == "2*xi[(1)|(1)] + 3*xi[(1)|(2)]"


def test_cli_decompose_and_witness(tmp_path):
    code, out = run_cli(["decompose", "--index", "[(1,1)|(2,2)]", "--n", "2"])
    assert code == 0
    tree = json.loads(out)
    assert tree["op"] in ("scale", "add", "mul", "atom")
    ppath = tmp_path / "p.json"
    ppath.write_text('[{"pairs":[[1,3]],"coeff":"1"}]')
    code, out = run_cli(["witness", "--poly", str(ppath), "--n", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] != "0"
    code, out = run_cli(
        ["witness", "--poly", str(ppath), "--n", "1", "--special", "--a0", "2"]
    )
    assert code == 0
    from affine_schur.semigroup import PeriodicMatrix, membership

    data = json.loads(out)
    data.pop("value")
    assert membership(PeriodicMatrix.from_json(data), "SL-at", 2)


# Exact `decompose` output, byte for byte: its JSON trees are an interface.
_PINNED_DECOMPOSITIONS = [
    (
        ("[(1,1)|(2,2)]", "2", "Y"),
        '{"op": "scale", "coeff": "1/2", "child": '
        '{"op": "add", "children": [{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [1, 2]]}, '
        '{"op": "atom", "pairs": [[1, 2], [2, 2]]}]}]}}\n',
    ),
    (
        ("[(1,2)|(1,2)]", "3", "X"),
        '{"op": "add", "children": [{"op": "scale", "coeff": "1", "child": '
        '{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [2, 1]]}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 2]]}]}}, '
        '{"op": "scale", "coeff": "1", "child": {"op": "add", "children": ['
        '{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [2, 3]]}, '
        '{"op": "atom", "pairs": [[1, 1], [3, 2]]}]}, '
        '{"op": "scale", "coeff": "-1", "child": '
        '{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [2, 1]]}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 2]]}]}}]}}]}\n',
    ),
    (
        ("[(1)|(5)]", "3", "X"),
        '{"op": "mul", "children": [{"op": "atom", "pairs": [[1, 2]]}, '
        '{"op": "mul", "children": [{"op": "atom", "pairs": [[2, 3]]}, '
        '{"op": "mul", "children": [{"op": "atom", "pairs": [[3, 4]]}, '
        '{"op": "atom", "pairs": [[1, 2]]}]}]}]}\n',
    ),
    (
        ("[(1)|(2)]", "3", "X"),
        '{"op": "atom", "pairs": [[1, 2]]}\n',
    ),
    (
        ("[(1,1)|(0,4)]", "1", "Y"),
        '{"op": "scale", "coeff": "1", "child": {"op": "add", "children": ['
        '{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [1, 4]]}, '
        '{"op": "atom", "pairs": [[1, 0], [1, 1]]}]}, '
        '{"op": "scale", "coeff": "-1", "child": '
        '{"op": "atom", "pairs": [[1, 1], [1, 3]]}}]}}\n',
    ),
    (
        ("[(1,2,3)|(2,3,1)]", "3", "Y"),
        '{"op": "scale", "coeff": "1", "child": {"op": "add", "children": ['
        '{"op": "mul", "children": [{"op": "scale", "coeff": "1", "child": '
        '{"op": "add", "children": [{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [2, 2], [3, 1]]}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 1], [2, 3]]}]}]}}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 2], [3, 3]]}]}, '
        '{"op": "scale", "coeff": "-1", "child": '
        '{"op": "scale", "coeff": "1", "child": {"op": "add", "children": ['
        '{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [2, 2], [3, 2]]}, '
        '{"op": "atom", "pairs": [[1, 1], [2, 2], [2, 3]]}]}, '
        '{"op": "scale", "coeff": "-1", "child": '
        '{"op": "atom", "pairs": [[1, 1], [2, 2], [3, 3]]}}]}}}]}}\n',
    ),
    (
        # The Green product of this label's first split lists its terms out of
        # sorted order, and the tree follows that order: pinned, so that the
        # key order of ``structure_constants`` cannot change unnoticed.
        ("[(1,2,2,2)|(3,1,1,3)]", "2", "Y"),
        '{"op": "scale", "coeff": "1", "child": {"op": "add", "children": ['
        '{"op": "mul", "children": [{"op": "scale", "coeff": "1/2", "child": '
        '{"op": "add", "children": [{"op": "mul", "children": ['
        '{"op": "scale", "coeff": "1", "child": {"op": "add", "children": ['
        '{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [2, 2], [2, 2], [2, 3]]}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 1], [2, 1], [2, 2]]}]}]}}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 1], [1, 1], [2, 1]]}]}]}}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 1], [1, 1], [1, 3]]}]}, '
        '{"op": "scale", "coeff": "-2", "child": '
        '{"op": "scale", "coeff": "1", "child": {"op": "add", "children": ['
        '{"op": "mul", "children": [{"op": "scale", "coeff": "1/2", "child": '
        '{"op": "add", "children": [{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [2, 2], [2, 2], [2, 3]]}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 1], [2, 2], [2, 3]]}]}]}}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 1], [1, 1], [2, 1]]}]}]}}}, '
        '{"op": "scale", "coeff": "-1", "child": '
        '{"op": "scale", "coeff": "1/2", "child": {"op": "add", "children": ['
        '{"op": "mul", "children": [{"op": "scale", "coeff": "1", "child": '
        '{"op": "add", "children": [{"op": "mul", "children": ['
        '{"op": "atom", "pairs": [[1, 1], [2, 2], [2, 2], [2, 5]]}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 1], [2, 1], [2, 2]]}]}]}}, '
        '{"op": "atom", "pairs": [[1, 1], [1, 1], [1, 1], [2, 1]]}]}]}}}]}}\n',
    ),
]


@pytest.mark.parametrize(
    "args, want",
    _PINNED_DECOMPOSITIONS,
    ids=["%s-n%s-%s" % args for args, _ in _PINNED_DECOMPOSITIONS],
)
def test_cli_decompose_output_is_pinned(args, want):
    index, n, using = args
    code, out = run_cli(["decompose", "--index", index, "--n", n, "--using", using])
    assert code == 0
    assert out == want


def test_cli_errors_exit_one():
    code, _ = run_cli(["multiply", "-n", "2", "xi[(1,1)|(1,2)"])
    assert code == 1
    code, _ = run_cli(["multiply", "-n", "2", "2*a"])
    assert code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "no-such-suite"])
    assert exc.value.code == 1


def test_cli_act():
    from affine_schur.tensor import TensorVector

    vec = json.dumps(TensorVector.basis(1, (1, 2)).to_json())
    code, out = run_cli(
        ["act", "xi[(1,1)|(1,2)]", "-", "-n", "1"], stdin=vec
    )
    assert code == 0
    got = TensorVector.from_json(json.loads(out))
    assert got == TensorVector.basis(1, (1, 1)) + TensorVector.basis(1, (0, 2))


def test_cli_verify_exit_codes():
    code, out = run_cli(
        ["verify", "oracle-equivalence", "--n", "1", "--r", "2", "--window", "1", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_element_text_reparses():
    from affine_schur.expr import evaluate, parse
    from fractions import Fraction

    el = (
        AlgebraElement.basis(2, (1, 1), (1, 2)).scale(Laurent.gen(1, -1))
        + AlgebraElement.basis(2, (1, 2), (3, 0)).scale(Laurent({0: 1, -1: Fraction(-1, 2)}))
        - AlgebraElement.basis(2, (2, 2), (2, 2))
    )
    assert evaluate(parse(str(el)), 2) == el


def test_corrupted_cache_fails_spot_check(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"format": 1})
        + "\n"
        + json.dumps(
            {"n": 1, "left": [[1, 2]], "right": [[1, 2]], "value": [[[[1, 99]], 7]]}
        )
        + "\n"
    )
    code, out = run_cli(
        ["--cache", str(path), "multiply", "-n", "1", "xi[(1)|(2)]*xi[(2)|(3)]"]
    )
    schur.set_persistent_cache(None)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "record",
    [
        {"n": 1},
        {"n": 0, "left": [[1, 2]], "right": [[1, 2]], "value": []},
        {"n": 1, "left": "x", "right": [[1, 2]], "value": []},
        {"n": 1, "left": [[1, 2]], "right": [[1, 2]], "value": [[[[1, 3]], "x"]]},
    ],
)
def test_malformed_cache_record_exits_one(tmp_path, capsys, record):
    path = tmp_path / "mal.jsonl"
    path.write_text(json.dumps({"format": 1}) + "\n" + json.dumps(record) + "\n")
    code, out = run_cli(
        ["--cache", str(path), "multiply", "-n", "1", "xi[(1)|(2)]*xi[(1)|(3)]"]
    )
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "%s line 2" % path in err


def test_malformed_cache_header_exits_one(tmp_path, capsys):
    path = tmp_path / "head.jsonl"
    path.write_text("[1]\n")
    code, out = run_cli(
        ["--cache", str(path), "multiply", "-n", "1", "xi[(1)|(2)]*xi[(1)|(3)]"]
    )
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err == "error: %s line 1: $: expected an object, got [1]\n" % path


def test_poisoned_later_cache_record_exits_two(tmp_path):
    path = tmp_path / "two.jsonl"
    for product in ("xi[(1)|(2)]*xi[(1)|(3)]", "xi[(1)|(2)]*xi[(1)|(4)]"):
        assert run_cli(["--cache", str(path), "multiply", "-n", "1", product])[0] == 0
    header, first, second = path.read_text().splitlines()
    record = json.loads(second)
    record["value"][0][1] = 99
    path.write_text("\n".join([header, first, json.dumps(record)]) + "\n")
    code, out = run_cli(
        ["--cache", str(path), "multiply", "-n", "1", "xi[(1)|(2)]*xi[(1)|(4)]", "--text"]
    )
    assert code == 2
    assert out == ""


def test_cli_act_malformed_coefficient_exits_one(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(
        json.dumps({"n": 1, "r": 2, "terms": [{"coeff": {"1": 1}, "tuple": [1, 2]}]})
    )
    code, out = run_cli(["act", "xi[(1,1)|(1,2)]", str(path), "-n", "1"])
    assert code == 1 and out == ""
    assert 'a coefficient is a list of [exponent, "p/q"] pairs' in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "xi[(1,2)|(1,2)]", "-n", "2", "--window", "(1,1)"],
        ["weyl", "xi[(1,2)|(1,2)]", "-n", "2", "--si", "5"],
        ["lie", "pi", "--s", "5", "--t", "1", "--n", "2", "--r", "1"],
        ["lie", "pi", "--s", "1", "--t", "2", "--n", "1", "--r", "0"],
        # (argv, standard input): an r = 3 element whose label has two pairs
        (
            ["weyl", "-", "--rho", "--text"],
            '{"n":1,"r":3,"terms":[{"coeff":[[0,"1"]],"pairs":[[1,1],[1,2]]}]}',
        ),
        # a tensor tuple shorter than r
        (
            ["act", "xi[(1,1,1)|(1,1,2)]", "-", "-n", "1"],
            '{"n":1,"r":3,"terms":[{"coeff":[[0,"1"]],"tuple":[1,2]}]}',
        ),
        # witness terms of two degrees
        (
            ["witness", "--poly", "-", "--n", "1"],
            '[{"pairs":[[1,3]],"coeff":"1"},{"pairs":[[1,1],[1,2]],"coeff":"1"}]',
        ),
        (
            ["witness", "--poly", "-", "--n", "1", "--special", "--a0", "0"],
            '[{"pairs":[[1,3]],"coeff":"1"}]',
        ),
        # (argv, standard input, the JSON path the error names): documents of
        # the wrong shape
        (["weyl", "-", "--rho"], "[1,2]", "$: "),
        (["det", "--matrix", "-"], '{"n":1,"entries":[5]}', "$.entries[0]: "),
        (["weyl", "-", "--rho"], '{"n":1,"r":1,"terms":[5]}', "$.terms[0]: "),
        (["weyl", "-", "--rho"], '{"n":1,"r":1,"terms":{"a":1}}', "$.terms: "),
        (["witness", "--poly", "-", "--n", "1"], "[5]", "$[0]: "),
        (["weyl", "-", "--rho"], '{"n":1e400,"r":1,"terms":[]}', "$.n: "),
        (
            ["weyl", "-", "--rho"],
            '{"n":1,"r":1,"terms":[{"coeff":[[1e400,"1"]],"pairs":[[1,1]]}]}',
            "$.terms[0].coeff[0][0]: ",
        ),
        # a fractional n is rejected, not truncated to 2 (xi[(1)|(1)] printed)
        (
            ["weyl", "-", "--rho", "--text"],
            '{"n":2.7,"r":1,"terms":[{"pairs":[[2,2]],"coeff":[[0,"1"]]}]}',
            "$.n: ",
        ),
        (
            ["act", "xi[(1,1)|(1,2)]", "-", "-n", "1"],
            '{"n":1,"r":2,"terms":[{"coeff":[[0,"1"]],"tuple":[true,2]}]}',
            "$.terms[0].tuple[0]: ",
        ),
        (
            ["weyl", "-", "--rho"],
            '{"n":1,"r":1,"terms":[{"pairs":[[1,1]]}]}',
            "$.terms[0].coeff: ",
        ),
        # (argv, standard input, the message): verify sizes below their least
        # value, which would fail inside a check or run none and pass
        (["verify", "mackey", "--r", "0"], "", "r must be at least 1, got 0\n"),
        (["verify", "mackey", "--r", "-1"], "", "r must be at least 1, got -1\n"),
        (["verify", "hom-laws", "--window", "-2"], "", "window must be at least 0, got -2\n"),
        (
            ["verify", "ring-axioms", "--n", "2", "--r", "2", "--window", "-1"],
            "",
            "window must be at least 0, got -1\n",
        ),
        (
            ["verify", "oracle-equivalence", "--n", "2", "--r", "2", "--window", "-1"],
            "",
            "window must be at least 0, got -1\n",
        ),
        (
            ["verify", "oracle-equivalence", "--n", "2", "--r", "2", "--budget", "-1"],
            "",
            "budget must be at least 0, got -1\n",
        ),
        (
            ["verify", "ring-axioms", "--n", "1", "--r", "1", "--triples", "-1"],
            "",
            "triples must be at least 0, got -1\n",
        ),
        (["verify", "semigroup-laws", "--count", "-1"], "", "count must be at least 0, got -1\n"),
        (["verify", "lie", "--offset", "-1"], "", "offset must be at least 0, got -1\n"),
        # a parameter the suite does not take, and n without r
        (
            ["verify", "lie", "--n", "5"],
            "",
            "suite lie takes no parameter n; it takes offset, seed\n",
        ),
        (
            ["verify", "lie", "--window", "9"],
            "",
            "suite lie takes no parameter window; it takes offset, seed\n",
        ),
        (
            ["verify", "oracle-equivalence", "--n", "2"],
            "",
            "n and r must be given together\n",
        ),
        (
            ["verify", "generators", "--seed", "3"],
            "",
            "suite generators takes no parameter seed; it takes window\n",
        ),
        # an option the kind or the symmetry does not read
        (
            ["hom", "apply", "--kind", "psi_a", "--window", "x"],
            '{"n":1,"r":1,"terms":[]}',
            "--window is for --kind weyl only\n",
        ),
        (
            ["hom", "apply", "--kind", "transpose", "--window", "(1,1)"],
            '{"n":1,"r":1,"terms":[]}',
            "--window is for --kind weyl only\n",
        ),
        (
            ["hom", "apply", "--kind", "psi_a", "--s", "3"],
            '{"n":1,"r":1,"terms":[]}',
            "--s is for --kind psi_as only\n",
        ),
        (
            ["weyl", "-", "--rho", "--window", "x"],
            '{"n":1,"r":1,"terms":[]}',
            "argument --window: not allowed with argument --rho\n",
        ),
        # a zero denominator, in expression text and in a rational flag
        (["multiply", "-n", "1", "1/0*xi[(1)|(2)]"], "", "zero denominator at column 3\n"),
        (
            ["decompose", "--index", "xi[(1)|(2)]*1/0", "--n", "1"],
            "",
            "zero denominator at column 15\n",
        ),
        (
            ["multiply", "-n", "1", "xi[(1)|(2)]", "--spec-a", "1/0"],
            "",
            "zero denominator in '1/0'\n",
        ),
        (
            ["det", "--matrix", "-", "--at", "1/0"],
            '{"n":1,"entries":[[1,1,"2"],[1,2,"3"]]}',
            "zero denominator in '1/0'\n",
        ),
        (
            ["witness", "--poly", "-", "--n", "1", "--special", "--a0", "1/0"],
            '[{"pairs":[[1,3]],"coeff":"1"}]',
            "zero denominator in '1/0'\n",
        ),
        # expression text nested past the recursion limit
        (
            ["multiply", "-n", "1", "(" * 3000 + "xi[(1)|(1)]" + ")" * 3000],
            "",
            "expression nested too deeply at column ",
        ),
    ],
)
def test_invalid_input_exits_one_under_optimize(argv):
    # -O strips assert statements, so input checks must not be asserts
    argv, stdin, path = (*argv, "")[:3] if isinstance(argv, tuple) else (argv, "", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "affine_schur.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    err = proc.stderr
    if err.startswith("usage: "):  # an argument error prints the usage first
        err = err[err.index("\nerror: ") + 1:]
    assert err.startswith("error: " + path)


@pytest.mark.parametrize(
    "flags, entries",
    [
        ([], '[[1, 1, "7"], [1, 3, "7"], [2, 2, "1"], [2, 4, "5"]]'),
        (
            ["--special"],
            '[[1, 1, "7"], [1, 3, "7"], [1, 5, "-83/6"], [2, 2, "1"], [2, 4, "5"]]',
        ),
    ],
    ids=["plain", "special"],
)
def test_cli_witness_for_a_binomial_under_optimize(flags, entries):
    # the two monomials have the same residues and offsets, so they cancel on
    # every block-scaled finite matrix; a seeded random point separates them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "affine_schur.cli", "witness", "--n", "2",
         "--poly", "-", *flags],
        input='[{"pairs":[[1,1],[2,4]],"coeff":"1"},{"pairs":[[1,3],[2,2]],"coeff":"-1"}]',
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"n": 2, "entries": %s, "value": "28"}\n' % entries


_LIBRARY_CHECKS = """
from affine_schur.dual import phi_as_map
from affine_schur.laurent import Laurent
from affine_schur.looplie import decompose_x, decompose_y, lie_bracket_law
from affine_schur.semigroup import PeriodicMatrix
from affine_schur.transfer import OperatorSum, mackey_product, zero_shift
from affine_schur.weyl import AffineWeylElement, all_perms, young_subgroup


def mackey_with_a_wrong_inverse():
    AffineWeylElement.inverse = lambda self: self
    unit = OperatorSum.unit(1, (1, 1, 1), (1, 1, 1))
    mackey_product(
        unit, zero_shift(young_subgroup(((1, 2), (3,)))),
        unit, zero_shift(young_subgroup(((1,), (2, 3)))), zero_shift(all_perms(3)),
    )


for call in (
    lambda: phi_as_map(1, 0).apply(((1, 2),)),
    lambda: Laurent.gen(1).constant_value(),
    lambda: Laurent.gen(1) ** -1,
    lambda: lie_bracket_law(
        (PeriodicMatrix.unit(1, 1, 2), PeriodicMatrix.unit(2, 1, 2)), (1,))(0, 1, 1),
    lambda: AffineWeylElement((1, 1), (0,)),
    lambda: AffineWeylElement((2, 1), (0,)),
    lambda: AffineWeylElement((1,), (0,)).compose(AffineWeylElement.identity(2)),
    lambda: AffineWeylElement.from_window((1, 3)),
    lambda: OperatorSum(2, {(1, 2): 1}),
    lambda: decompose_y(((3, 1),), 2),
    lambda: decompose_y(((2, 2), (1, 1)), 2),
    lambda: decompose_x(((3, 1),), 2),
    lambda: decompose_x(((2, 2), (1, 1)), 2),
    mackey_with_a_wrong_inverse,
):
    try:
        call()
    except (ValueError, ArithmeticError) as ex:
        print(type(ex).__name__ + ":", ex)
    else:
        print("returned")
"""


def test_library_checks_raise_under_optimize():
    # -O strips assert statements; without a raise, a zero offset multiplier
    # divides by zero, a negative power of a never returns and a
    # non-permutation builds an affine Weyl element, an operator index of
    # bare integers is kept, a label that is not canonical is split, and a
    # wrong Mackey sum is returned unchecked
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _LIBRARY_CHECKS],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: the offset multiplier s must be nonzero",
        "ValueError: not a constant: a",
        "ValueError: exponent must be an integer >= 0, got -1",
        "ValueError: context mismatch: (1,) vs (2,)",
        "ValueError: sigma must be a permutation of 1..2, got (1, 1)",
        "ValueError: eps has 1 entries, sigma has 2",
        "ValueError: cannot compose ranks 1 and 2",
        "ValueError: window residues must be a permutation of 1..2, got (1, 3)",
        "ValueError: an operator index is a pair of integer tuples of one length"
        " r >= 1, got (1, 2)",
        "ValueError: label ((3, 1),) is not canonical for n=2",
        "ValueError: label ((2, 2), (1, 1)) is not canonical for n=2",
        "ValueError: label ((3, 1),) is not canonical for n=2",
        "ValueError: the X generating set requires r < n",
        "ArithmeticError: double-coset sum disagrees with the transfer product",
    ]


def test_cli_period_below_one_exits_one(capsys):
    for argv in (
        ["multiply", "-n", "0", "xi[(1)|(2)]*xi[(1)|(3)]"],
        ["lie", "pi", "--s", "1", "--t", "2", "--n", "-1", "--r", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 1
        assert "at least 1" in capsys.readouterr().err


def test_spot_check_rederives_only_records_read_from_file(tmp_path, monkeypatch):
    path = str(tmp_path / "sc.jsonl")
    derived = []
    green = schur._green_product

    def counting(x, y, n):
        derived.append((x, y))
        return green(x, y, n)

    monkeypatch.setattr(schur, "_green_product", counting)
    args = ["--cache", path, "multiply", "-n", "1", "xi[(1,1,1)|(0,1,2)]*xi[(1,1,1)|(1,2,3)]"]
    try:
        schur.structure_constants.cache_clear()
        cold = run_cli(args)
        assert len(derived) == 1  # the product itself, no spot check
        schur.structure_constants.cache_clear()
        warm = run_cli(args)
        assert len(derived) == 2  # read from the file, then spot-checked
        assert cold == warm and cold[0] == 0
    finally:
        schur.set_persistent_cache(None)
        schur.structure_constants.cache_clear()


def test_cli_multiply_past_rank_eight():
    ones = ",".join(["1"] * 9)
    x = "xi[(%s)|(%s)]" % (ones, ",".join(["1"] * 8 + ["2"]))
    code, out = run_cli(["multiply", "-n", "1", "%s*%s" % (x, x), "--text"])
    assert code == 0
    # (x_1 + ... + x_9)^2 = m_(2) + 2 m_(1,1)
    want = "xi[(%s)|(%s)] + 2*xi[(%s)|(%s)]" % (
        ones, ",".join(["1"] * 8 + ["3"]), ones, ",".join(["1"] * 7 + ["2", "2"])
    )
    assert out.strip() == want


def test_persistent_cache(tmp_path):
    path = str(tmp_path / "sc.jsonl")
    store = cache_mod.StructureConstantCache(path)
    schur.set_persistent_cache(store)
    try:
        x = ((1, 1), (1, 2))
        schur.structure_constants.cache_clear()
        first = structure_constants(x, x, 1)
        # a fresh process state must reproduce the cached values exactly
        schur.structure_constants.cache_clear()
        store2 = cache_mod.StructureConstantCache(path)
        schur.set_persistent_cache(store2)
        cached = structure_constants(x, x, 1)
        assert cached == first
        schur.structure_constants.cache_clear()
        schur.set_persistent_cache(None)
        fresh = structure_constants(x, x, 1)
        assert fresh == first
        assert store2.stats()["records"] >= 1
        store2.clear()
        assert not os.path.exists(path)
    finally:
        schur.set_persistent_cache(None)
        schur.structure_constants.cache_clear()


def test_cli_cache_commands(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    code, _ = run_cli(["--cache", path, "multiply", "-n", "1", "xi[(1,1)|(1,2)]*xi[(1,1)|(1,2)]"])
    assert code == 0
    schur.set_persistent_cache(None)
    code, out = run_cli(["cache", "stats", "--path", path])
    assert code == 0
    stats = json.loads(out)
    assert stats["records"] >= 1
    code, out = run_cli(["cache", "clear", "--path", path])
    assert code == 0
    assert not os.path.exists(path)


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "affine_schur.cli", "multiply", "-n", "1",
         "xi[(1)|(2)]*xi[(2)|(3)]", "--text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "xi[(1)|(3)]"


def test_closed_stdout_is_not_reported_as_an_error():
    # a later pipeline stage that exits early closes the pipe; the stage
    # before it prints no error of its own and exits 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "affine_schur.cli", "multiply", "-n", "2",
             "xi[(1,2)|(1,4)]"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""

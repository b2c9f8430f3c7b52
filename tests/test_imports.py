"""What a process loads: the lazy package surface and each subcommand's modules."""

import ast
import importlib
import inspect
import json
import pathlib
import subprocess
import sys

import pytest

import affine_schur
from affine_schur import cli

MATRIX = '{"n":1,"entries":[[1,1,"2"],[1,2,"3"]]}'
ELEMENT = '{"n":2,"r":1,"terms":[{"coeff":[[0,"1"]],"pairs":[[1,3]]}]}'

# Runs cli.main on the arguments, with standard input as given, and prints the
# sorted affine_schur submodules the process loaded.
_FOOTPRINT = """
import contextlib, io, json, sys
from affine_schur.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("affine_schur."))
print(json.dumps([code, loaded]))
"""

_BASE = {"cli", "combination", "laurent", "weyl"}


@pytest.mark.parametrize(
    "argv, stdin, modules",
    [
        (["det", "--matrix", "-"], MATRIX, {"semigroup"}),
        (["det", "--matrix", "-", "--at", "1/2"], MATRIX, {"semigroup"}),
        (["eval-semigroup", "--matrix", "-", "--r", "1"], MATRIX, {"semigroup", "schur"}),
        (
            ["lie", "pi", "--s", "1", "--t", "3", "--n", "2", "--r", "2"],
            "",
            {"expr", "looplie", "schur", "semigroup"},
        ),
        (["weyl", "-", "--rho"], ELEMENT, {"schur"}),
        (["hom", "apply", "--kind", "psi_a"], ELEMENT, {"homs", "schur"}),
        (["multiply", "-n", "1", "xi[(1,1)|(1,2)] * xi[(1,1)|(1,2)]"], "", {"expr", "schur"}),
        (
            ["decompose", "--index", "[(1,1)|(2,2)]", "--n", "2"],
            "",
            {"expr", "looplie", "schur"},
        ),
        (["verify", "hom-laws"], "", {"verify", "schur", "homs"}),
    ],
    ids=["det", "det-at", "eval-semigroup", "lie-pi", "weyl-rho", "hom-psi_a",
         "multiply", "decompose", "verify-hom-laws"],
)
def test_subcommand_loads_only_the_modules_it_reaches(argv, stdin, modules):
    # a light command loads neither oracle, nor verify, cache or transfer, and
    # verify loads only what its suite reaches: a process compiles only its
    # own path when no bytecode files are at hand
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert set(loaded) == _BASE | modules


def test_every_public_name_is_its_defining_module_attribute():
    for name in affine_schur.__all__:
        value = getattr(affine_schur, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert affine_schur.__all__ == sorted(affine_schur.__all__)


def test_package_import_loads_no_module_and_lists_every_name():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, affine_schur as p; print(json.dumps("
         "[sorted(m for m in sys.modules if m.startswith('affine_schur.')),"
         " sorted(set(p.__all__) - set(dir(p)))]))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from affine_schur import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(affine_schur.__all__)
    for name in affine_schur.__all__:
        assert namespace[name] is getattr(affine_schur, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        affine_schur.no_such_name


def test_parser_copies_match_their_sources():
    from affine_schur import cache, verify

    assert cli._VERIFY_SUITES == tuple(verify.SUITES)
    assert cli._CACHE_ENV_VAR == cache.ENV_VAR
    for engine in cli._ENGINES.values():
        assert engine in affine_schur.__all__


def test_every_suite_parameter_is_a_verify_flag():
    from affine_schur import verify

    unflagged = sorted(
        (name, param)
        for name, suite in verify.SUITES.items()
        for param in inspect.signature(suite).parameters
        if param not in cli._VERIFY_FLAGS
    )
    assert unflagged == []


# What each oracle takes from Green's module and from the group: the canonical
# labelling, the bilinear extension and the matching kernel, never the code
# it exists to check.
_ORACLE_IMPORTS = {
    "dual": {
        "schur": {"bilinear", "canonicalize", "index_bottoms", "index_tops",
                  "split_offsets"},
        "weyl": {"affine_images", "all_perms", "perm_sign", "stabilizer_order"},
    },
    "tensor": {
        "schur": {"bilinear", "canonicalize", "index_bottoms", "index_tops",
                  "middle_orbit_rep"},
        "weyl": {"affine_images", "stabilizer_order"},
    },
}
_GREEN = {"structure_constants", "multiply", "_green_product", "_row_types",
          "_column_types", "_spreads"}


@pytest.mark.parametrize("oracle", sorted(_ORACLE_IMPORTS))
def test_oracles_import_nothing_of_greens_engine(oracle):
    tree = ast.parse(inspect.getsource(importlib.import_module("affine_schur." + oracle)))
    taken = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("affine_schur") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            # the package itself, or a sibling module bound by name, would
            # reach any attribute
            assert node.module is not None and not node.module.startswith("affine_schur")
            taken.setdefault(node.module, set()).update(a.name for a in node.names)
    assert {m: taken.get(m) for m in ("schur", "weyl")} == _ORACLE_IMPORTS[oracle]
    assert not _GREEN & (taken["schur"] | taken["weyl"])


# Every process-wide memo in the package: a module-level function decorated
# with lru_cache, or a module-level name bound to one.  A new memo, or the
# return of one that was deleted, needs an edit here.
_MEMOS = {
    "dual": {"_schur_basis_product"},
    "expr": {"_basis_element"},
    "looplie": {"pi_tilde", "_y_atom_over_x", "_finite_closure"},
    "schur": {"split_offsets", "structure_constants", "_row_types", "_column_types",
              "_spreads"},
    "tensor": {"_action_basis_product"},
    "weyl": {"young_subgroup", "double_cosets", "_place_maps"},
}


def _is_memo(node):
    """Whether an expression is lru_cache or cache, or a call of one."""
    if isinstance(node, ast.Call):
        return _is_memo(node.func)
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in ("lru_cache", "cache")


def test_module_level_memos_are_the_listed_ones():
    found = {}
    for path in sorted(pathlib.Path(affine_schur.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name] if any(map(_is_memo, node.decorator_list)) else []
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if isinstance(node.value, ast.Call) and _is_memo(node.value.func):
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names:
                found.setdefault(path.stem, set()).update(names)
    assert found == _MEMOS
    assert "_decompose_y" not in found["looplie"]

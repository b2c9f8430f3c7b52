"""The README's CLI pipelines, the cached heavy product, and their checks.

Each stage of a pipeline is its own process, started only after the previous
stage ended, with that stage's standard output as its standard input; so at
most one CLI process is alive and a pipeline's time is the sum of its stages.
Expected values are the README's where it documents one, and otherwise are
computed here without the package, except the decomposition tree, which is
evaluated with the middle-tuple engine rather than the double-coset engine
the CLI used.
"""

import json
import os
from fractions import Fraction

import inputs
import symfunc

MATRIX = '{"n":1,"entries":[[1,1,"2"],[1,2,"3"]]}'
POLY = '[{"pairs":[[1,3]],"coeff":"1"}]'


def write_inputs(work, seed):
    with open(os.path.join(work, "m.json"), "w", encoding="utf-8") as fh:
        fh.write(MATRIX + "\n")
    with open(os.path.join(work, "p.json"), "w", encoding="utf-8") as fh:
        fh.write(POLY + "\n")
    left, right = inputs.cli_heavy_product(seed)
    with open(os.path.join(work, "heavy.json"), "w", encoding="utf-8") as fh:
        json.dump({"left": left, "right": right}, fh)


def read_heavy(work):
    with open(os.path.join(work, "heavy.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    return tuple(map(tuple, data["left"])), tuple(map(tuple, data["right"]))


def readme_pipelines(work):
    """[(name, [argv of each stage])] for the README examples."""
    m = os.path.join(work, "m.json")
    p = os.path.join(work, "p.json")
    return [
        ("multiply-all", [["multiply", "-n", "1", "xi[(1,1)|(1,2)] * xi[(1,1)|(1,2)]",
                           "--engine", "all", "--text"]]),
        ("multiply-psi_a", [["multiply", "-n", "2", "xi[(1,1)|(3,1)]"],
                            ["hom", "apply", "--kind", "psi_a", "--element", "-", "--text"]]),
        ("multiply-weyl-rho", [["multiply", "-n", "2", "xi[(1,2)|(1,4)]"],
                               ["weyl", "-", "--rho", "--text"]]),
        ("det", [["det", "--matrix", m]]),
        ("det-at", [["det", "--matrix", m, "--at", "1/2"]]),
        ("eval-semigroup", [["eval-semigroup", "--matrix", m, "--r", "1", "--text"]]),
        ("lie-pi", [["lie", "pi", "--s", "1", "--t", "3", "--n", "2", "--r", "2", "--text"]]),
        ("decompose", [["decompose", "--index", "[(1,1)|(2,2)]", "--n", "2", "--using", "Y"]]),
        ("witness", [["witness", "--poly", p, "--n", "1"]]),
        ("verify-hom-laws", [["verify", "hom-laws"]]),
    ]


def cached_product_argv(work, cache_path):
    left, right = read_heavy(work)
    expression = "%s * %s" % (inputs.format_label(left), inputs.format_label(right))
    return ["--cache", cache_path, "multiply", "-n", "1", expression]


# -- expected values, computed without the package ---------------------------

def _label(tops, bottoms, n):
    """Canonical label: each top moved into {1..n}, its bottom moved with it."""
    pairs = []
    for t, b in zip(tops, bottoms):
        top = (t - 1) % n + 1
        pairs.append((top, b + top - t))
    return tuple(sorted(pairs))


def _format(terms):
    """Text of {label: coefficient} as the CLI prints it."""
    parts = []
    for label in sorted(terms):
        c = Fraction(terms[label])
        body = inputs.format_label(label)
        parts.append(body if c == 1 else "%s*%s" % (c, body))
    return " + ".join(parts)


def _weyl_rho(label, n):
    """The rotation z -> z - 1 applied to both tuples of a label."""
    return _label([t - 1 for t, _ in label], [b - 1 for _, b in label], n)


def _expected_text():
    # multiply -n 2 'xi[(1,2)|(1,4)]' emits the label of ((1,2),(1,4)).
    rho = {_weyl_rho(_label((1, 2), (1, 4), 2), 2): 1}
    # Degree-1 evaluation of a periodic matrix is the matrix itself.
    entries = json.loads(MATRIX)["entries"]
    degree_one = {_label((i,), (j,), 1): Fraction(c) for i, j, c in entries}
    # pi(E_{s,t}) in degree 2 is the sum over k of xi[(s,k)|(t,k)].
    s, t, n = 1, 3, 2
    loop = {_label((s, k), (t, k), n): 1 for k in range(1, n + 1)}
    return {
        # README values.
        "multiply-all": "xi[(1,1)|(1,3)] + 2*xi[(1,1)|(2,2)]",
        "multiply-psi_a": "2*a*xi[(1,1)|(1,1)]",
        "det": "2 + 3*a",
        "det-at": "7/2",
        # Computed here.
        "multiply-weyl-rho": _format(rho),
        "eval-semigroup": _format(degree_one),
        "lie-pi": _format(loop),
    }


def _element_terms(text):
    """{label: int} from the CLI's element JSON with integer constant coefficients."""
    data = json.loads(text)
    out = {}
    for term in data["terms"]:
        (exp, coeff), = term["coeff"]
        if exp != 0 or Fraction(coeff).denominator != 1:
            return None
        out[tuple(tuple(p) for p in term["pairs"])] = int(Fraction(coeff))
    return out


def _decomposition_holds(tree_text, index_text, n):
    from affine_schur import AlgebraElement, multiply_schur_oracle

    def value(node):
        op = node["op"]
        if op == "atom":
            return AlgebraElement.from_pairs(n, node["pairs"])
        if op == "scale":
            return value(node["child"]).scale(Fraction(node["coeff"]))
        children = [value(c) for c in node["children"]]
        out = children[0]
        for child in children[1:]:
            out = out + child if op == "add" else multiply_schur_oracle(out, child)
        return out

    tops, bottoms = (tuple(int(v) for v in part.strip("()").split(","))
                     for part in index_text.strip("[]").split("|"))
    return value(json.loads(tree_text)) == AlgebraElement.basis(n, tops, bottoms)


def check_round(outputs, work):
    """Failures found in one round's outputs {name: (exit code, stdout)}."""
    failures = []
    for name, (code, _) in outputs.items():
        if code != 0:
            failures.append("%s exited %d" % (name, code))
    text = {name: out.strip() for name, (_, out) in outputs.items()}
    for name, want in _expected_text().items():
        if text[name] != want:
            failures.append("%s printed %r, expected %r" % (name, text[name], want))
    if not _decomposition_holds(text["decompose"], "[(1,1)|(2,2)]", 2):
        failures.append("decomposition tree does not evaluate to xi[(1,1)|(2,2)]")
    witness = json.loads(text["witness"])
    entries = {(i, j): Fraction(c) for i, j, c in witness["entries"]}
    coordinate = sum(
        Fraction(e["coeff"]) * entries.get(tuple(e["pairs"][0]), 0) for e in json.loads(POLY)
    )
    if coordinate == 0 or Fraction(witness["value"]) != coordinate:
        failures.append("witness value %r is not the nonzero coordinate" % witness["value"])
    if text["verify-hom-laws"].splitlines()[-1] != "suite hom-laws: PASS":
        failures.append("verify hom-laws did not pass")
    if text["cache-cold"] != text["cache-warm"]:
        failures.append("cold- and warm-cache outputs differ")
    left, right = read_heavy(work)
    if _element_terms(text["cache-cold"]) != symfunc.label_product(left, right):
        failures.append("cached product differs from m_alpha*m_beta")
    return failures

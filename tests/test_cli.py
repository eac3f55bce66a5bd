"""End-to-end tests of the command line interface."""
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from functools import reduce
from importlib.metadata import EntryPoint
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import pytest
from sampling import invariant_corpus, random_one_ideal_graph

import kclass
import kclass.cli
import kclass.graphalg
import kclass.surd
from kclass.cli import main
from kclass.graphalg import DirectedGraph, one_ideal_invariant
from kclass.matrix import IntMatrix
from kclass.sixterm import SixTermInvariant

GOLDEN_A = "(-1+1*sqrt(5))/2"
GOLDEN_B = "(3-1*sqrt(5))/2"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def dump(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def graph_file(tmp_path, name, vertices, adjacency):
    g = DirectedGraph(vertices, IntMatrix(adjacency))
    return dump(tmp_path / name, g.to_json()), g


def subst_json(F, A, p):
    n, m = len(p), len(A)
    upper = [[1 if j == i else 0 for j in range(n)] + list(F[i]) for i in range(n)]
    lower = [[0] * n + list(A[i]) for i in range(m)]
    return {"n": n, "p": list(p), "A": A, "A_tilde": upper + lower}


def test_sturmian_compare_golden_pair(capsys):
    rc, out, _ = run_cli(capsys, "sturmian", "compare", GOLDEN_A, GOLDEN_B)
    assert rc == 0
    assert out.strip() == '{"verdict":"isomorphic"}'


def test_sturmian_compare_inequivalent(capsys):
    rc, out, _ = run_cli(capsys, "sturmian", "compare", "sqrt(2)", "sqrt(3)")
    assert rc == 0
    data = json.loads(out)
    assert data["verdict"] == "not_isomorphic"
    assert "certificate" in data


def test_pretty_flag_indents(capsys):
    rc, out, _ = run_cli(capsys, "sturmian", "compare", "--pretty", GOLDEN_A, GOLDEN_B)
    assert rc == 0
    assert out == '{\n  "verdict": "isomorphic"\n}\n'


def test_snf_decomposition_is_valid(capsys, tmp_path):
    M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    f = dump(tmp_path / "m.json", {"matrix": M})
    rc, out, _ = run_cli(capsys, "snf", f)
    assert rc == 0
    data = json.loads(out)
    U, D, V = (IntMatrix(data[k]) for k in ("U", "D", "V"))
    assert U @ IntMatrix(M) @ V == D
    assert data["diagonal"] == [2, 2, 156]
    # a bare matrix list works as well
    f2 = dump(tmp_path / "m2.json", M)
    rc, out2, _ = run_cli(capsys, "snf", f2)
    assert rc == 0 and json.loads(out2)["diagonal"] == [2, 2, 156]


def test_ext_of_cyclic_by_mixed_group(capsys, tmp_path):
    a = dump(tmp_path / "a.json", {"rank": 0, "torsion": [12]})
    b = dump(tmp_path / "b.json", {"rank": 1, "torsion": [18]})
    rc, out, _ = run_cli(capsys, "ext", a, b)
    assert rc == 0
    data = json.loads(out)
    # Ext(Z/12, Z + Z/18) = Z/12 + Z/gcd(12,18)
    assert data["ext"] == {"rank": 0, "torsion": [6, 12]}
    assert data["order"] == 72


def test_graph_kth_ideals_invariant(capsys, tmp_path):
    f, g = graph_file(tmp_path, "g.json", ["v", "w"], [[4, 1], [0, 0]])
    rc, out, _ = run_cli(capsys, "graph", "kth", f)
    assert rc == 0
    data = json.loads(out)
    assert data["K0"] == {"rank": 1, "torsion": []}
    assert data["K1"] == {"rank": 0, "torsion": []}

    rc, out, _ = run_cli(capsys, "graph", "ideals", f)
    assert rc == 0
    data = json.loads(out)
    assert data["nontrivial_count"] == 1
    assert {"vertices": ["w"], "nontrivial": True} in data["ideals"]

    rc, out, _ = run_cli(capsys, "graph", "invariant", f)
    assert rc == 0
    data = json.loads(out)
    assert data["validation"] == {"valid": True, "failures": []}
    again = SixTermInvariant.from_json(data["invariant"])
    assert again == one_ideal_invariant(g)


def test_graph_compare_extension_family(capsys, tmp_path):
    f1, _ = graph_file(tmp_path, "g1.json", ["v", "w"], [[4, 1], [0, 0]])
    f2, _ = graph_file(tmp_path, "g2.json", ["v", "w"], [[4, 2], [0, 0]])
    f3, _ = graph_file(tmp_path, "g3.json", ["v", "w"], [[4, 3], [0, 0]])
    rc, out, _ = run_cli(capsys, "graph", "compare", f1, f2)
    assert rc == 0 and json.loads(out)["verdict"] == "isomorphic"
    rc, out, _ = run_cli(capsys, "graph", "compare", f1, f3)
    assert rc == 0 and json.loads(out)["verdict"] == "not_isomorphic"


def test_sixterm_check_and_compare(capsys, tmp_path):
    paths = []
    for k in (1, 2, 3):
        g = DirectedGraph(["v", "w"], IntMatrix([[4, k], [0, 0]]))
        paths.append(dump(tmp_path / f"inv{k}.json", one_ideal_invariant(g).to_json()))
    rc, out, _ = run_cli(capsys, "sixterm", "check", paths[0])
    assert rc == 0 and json.loads(out) == {"valid": True, "failures": []}
    rc, out, _ = run_cli(capsys, "sixterm", "compare", paths[0], paths[1])
    assert rc == 0
    data = json.loads(out)
    assert data["verdict"] == "isomorphic" and "witness" in data
    rc, out, _ = run_cli(capsys, "sixterm", "compare", paths[0], paths[2])
    assert rc == 0 and json.loads(out)["verdict"] == "not_isomorphic"


def test_sixterm_check_reports_failures(capsys, tmp_path):
    g = DirectedGraph(["v", "w"], IntMatrix([[4, 1], [0, 0]]))
    data = one_ideal_invariant(g).to_json()
    data["maps"]["K0B->K0E"] = [[5]]
    f = dump(tmp_path / "broken.json", data)
    rc, out, _ = run_cli(capsys, "sixterm", "check", f)
    assert rc == 0
    report = json.loads(out)
    assert report["valid"] is False and report["failures"]


def test_subst_compare(capsys, tmp_path):
    fib4 = [[5, 3], [3, 2]]
    s1 = dump(tmp_path / "s1.json", subst_json([[1, 1]], fib4, [0]))
    s2 = dump(tmp_path / "s2.json", subst_json([[2, 3]], fib4, [0]))
    s3 = dump(tmp_path / "s3.json", subst_json([[1, 1]], [[5, 3], [3, 3]], [0]))
    rc, out, _ = run_cli(capsys, "subst", "compare", s1, s2)
    assert rc == 0 and json.loads(out)["verdict"] == "isomorphic"
    rc, out, _ = run_cli(capsys, "subst", "compare", s1, s3)
    assert rc == 0 and json.loads(out)["verdict"] == "not_isomorphic"


def test_batch_results_follow_manifest_order(capsys, tmp_path):
    graph_file(tmp_path, "g1.json", ["v", "w"], [[4, 1], [0, 0]])
    graph_file(tmp_path, "g2.json", ["v", "w"], [[4, 2], [0, 0]])
    graph_file(tmp_path, "g3.json", ["v", "w"], [[4, 3], [0, 0]])
    # relative entries resolve against the manifest directory
    manifest = dump(tmp_path / "man.json",
                    {"pairs": [["g1.json", "g3.json"], ["g1.json", "g2.json"],
                               ["g3.json", "g3.json"]]})
    rc, out, _ = run_cli(capsys, "graph", "compare", "--batch", manifest)
    assert rc == 0
    verdicts = [r["verdict"] for r in json.loads(out)["results"]]
    assert verdicts == ["not_isomorphic", "isomorphic", "isomorphic"]
    # a bare list manifest is accepted too
    manifest2 = dump(tmp_path / "man2.json", [["g2.json", "g1.json"]])
    rc, out, _ = run_cli(capsys, "graph", "compare", "--batch", manifest2)
    assert rc == 0
    assert [r["verdict"] for r in json.loads(out)["results"]] == ["isomorphic"]


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["sixterm", "graph"])
def test_batch_loads_each_distinct_input_once(capsys, tmp_path, monkeypatch, kind):
    names = []
    for k in (1, 2, 3):
        g = DirectedGraph(["v", "w"], IntMatrix([[4, k], [0, 0]]))
        data = one_ideal_invariant(g).to_json() if kind == "sixterm" else g.to_json()
        dump(tmp_path / f"in{k}.json", data)
        names.append(f"in{k}.json")
    # in1.json is named five times, once by its absolute path
    pairs = [[names[0], names[1]], [names[0], names[0]], [names[2], names[0]],
             [names[1], names[2]], [str(tmp_path / names[0]), names[1]]]
    single = []
    for x, y in pairs:
        rc, out, _ = run_cli(capsys, kind, "compare", str(tmp_path / x), str(tmp_path / y))
        assert rc == 0
        single.append(json.loads(out))
    if kind == "sixterm":
        calls = count_calls(monkeypatch, SixTermInvariant, "from_json")
    else:
        calls = count_calls(monkeypatch, kclass.graphalg, "one_ideal_invariant")
    manifest = dump(tmp_path / "man.json", pairs)
    rc, out, _ = run_cli(capsys, kind, "compare", "--batch", manifest)
    assert rc == 0
    assert len(calls) == 3
    assert json.loads(out)["results"] == single


def test_sturmian_batch_takes_literals(capsys, tmp_path):
    manifest = dump(tmp_path / "man.json",
                    [[GOLDEN_A, GOLDEN_B], ["sqrt(2)", "sqrt(3)"]])
    rc, out, _ = run_cli(capsys, "sturmian", "compare", "--batch", manifest)
    assert rc == 0
    verdicts = [r["verdict"] for r in json.loads(out)["results"]]
    assert verdicts == ["isomorphic", "not_isomorphic"]


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"oops')
    rc, out, err = run_cli(capsys, "graph", "kth", str(bad))
    assert rc == 2 and out == "" and "malformed JSON" in err
    rc, _, err = run_cli(capsys, "snf", str(tmp_path / "nosuch.json"))
    assert rc == 2 and "cannot read" in err
    rc, _, err = run_cli(capsys, "sturmian", "compare", "sqrt(2)", "garbage")
    assert rc == 2
    wrong_shape = dump(tmp_path / "notgraph.json", {"vertices": ["v"]})
    rc, _, err = run_cli(capsys, "graph", "kth", wrong_shape)
    assert rc == 2
    rc, _, err = run_cli(capsys, "subst", "compare", "--batch", wrong_shape)
    assert rc == 2 and "manifest" in err
    # a cycle that is not exact is malformed input, like any other
    # refusal of the six-term constructor
    g = DirectedGraph(["v", "w"], IntMatrix([[4, 1], [0, 0]]))
    data = one_ideal_invariant(g).to_json()
    good = dump(tmp_path / "good.json", data)
    data["maps"]["K0B->K0E"] = [[5]]
    broken = dump(tmp_path / "broken.json", data)
    expected = f"error: bad six-term invariant in {broken}: not exact at K0E\n"
    rc, out, err = run_cli(capsys, "sixterm", "compare", good, broken)
    assert (rc, out, err) == (2, "", expected)
    manifest = dump(tmp_path / "man.json", [["good.json", "good.json"],
                                            ["broken.json", "good.json"]])
    rc, out, err = run_cli(capsys, "sixterm", "compare", "--batch", manifest)
    assert (rc, out, err) == (2, "", expected)
    # map entries, ranks and torsion must be JSON integers: 1.5, "1" and
    # true are refused, not read as 1
    inexact_values = [("maps", "K0E->K0A", [[1.5]]), ("maps", "K0E->K0A", [["1"]]),
                      ("maps", "K0E->K0A", [[True]]),
                      ("groups", "K0A", {"rank": 0, "torsion": [2.5]}),
                      ("groups", "K0B", {"rank": True, "torsion": []})]
    for section, key, value in inexact_values:
        data = one_ideal_invariant(g).to_json()
        data[section][key] = value
        inexact = dump(tmp_path / "inexact.json", data)
        reason = ("matrix entries must be integers" if section == "maps"
                  else "rank and torsion must be integers")
        expected = f"error: bad six-term invariant in {inexact}: {reason}\n"
        rc, out, err = run_cli(capsys, "sixterm", "compare", good, inexact)
        assert (rc, out, err) == (2, "", expected)
        manifest = dump(tmp_path / "man.json", [["good.json", "inexact.json"]])
        rc, out, err = run_cli(capsys, "sixterm", "compare", "--batch", manifest)
        assert (rc, out, err) == (2, "", expected)


OVERSIZED_JSON = {
    # past the interpreter's 4,300-digit limit on converting a string to int
    "long_integer": "[[" + "7" * 5000 + "]]",
    # deeper than the decoder's recursion limit
    "deep_nesting": "[" * 200000 + "]" * 200000,
}


@pytest.mark.parametrize("payload", sorted(OVERSIZED_JSON))
def test_oversized_json_exits_2(capsys, tmp_path, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(OVERSIZED_JSON[payload])
    g = DirectedGraph(["v", "w"], IntMatrix([[4, 1], [0, 0]]))
    good = dump(tmp_path / "good.json", one_ideal_invariant(g).to_json())
    manifest = dump(tmp_path / "man.json", [["good.json", "bad.json"]])
    for argv in (["snf", str(bad)], ["sixterm", "compare", good, str(bad)],
                 ["sixterm", "compare", "--batch", manifest],
                 ["sturmian", "compare", "--batch", str(bad)]):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert "malformed JSON" in err and "Traceback" not in err


PAST_DIGIT_LIMIT = "7" * 5000
DIGIT_LIMIT_MESSAGE = ("an integer of 5,000 digits is past the 4,300-digit limit "
                       "on reading integers")


def test_literal_past_the_digit_limit_names_it(capsys):
    # Python's own message asks for sys.set_int_max_str_digits(), which a
    # command line user cannot call
    rc, out, err = run_cli(capsys, "sturmian", "compare", f"sqrt({PAST_DIGIT_LIMIT})", "sqrt(2)")
    assert (rc, out, err) == (2, "", f"error: {DIGIT_LIMIT_MESSAGE}\n")


def test_json_integer_past_the_digit_limit_names_it(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(f"[[{PAST_DIGIT_LIMIT}]]")
    rc, out, err = run_cli(capsys, "snf", str(bad))
    assert (rc, out, err) == (2, "", f"error: malformed JSON in {bad}: {DIGIT_LIMIT_MESSAGE}\n")


def test_output_integer_past_the_digit_limit_exits_3(capsys, tmp_path):
    # U and V of a 40 x 40 Smith form outgrow a 640-digit limit, as those
    # of an 80 x 80 one outgrow the default 4,300 digits
    rng = random.Random(1)
    path = dump(tmp_path / "m.json", [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, out, err = run_cli(capsys, "snf", path)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, out, err) == (
        3, "", "error: an output integer is past the 640-digit limit on writing integers\n")


@pytest.mark.parametrize("vertices", ["ab", {"a": 0, "b": 1}])
def test_vertices_that_are_not_a_list_exit_2(capsys, tmp_path, vertices):
    # a string or an object would otherwise be read as its characters or keys
    path = dump(tmp_path / "g.json", {"vertices": vertices, "adjacency": [[0, 1], [1, 0]]})
    rc, out, err = run_cli(capsys, "graph", "kth", path)
    assert (rc, out, err) == (2, "", f"error: bad graph in {path}: vertices must be a list\n")


def _graphs_with_cycles():
    """One-ideal graphs whose ideal [[2, 1], [1, 2]] has K1 = Z, under
    quotients with K1 = 0 or Z, joined by m edges."""
    for quot in ([[2]], [[3]], [[2, 1], [1, 2]]):
        for m in (1, 2, 3):
            k = len(quot)
            adj = ([[2, 1] + [0] * k, [1, 2] + [0] * k]
                   + [[m * (i == 0), 0] + row for i, row in enumerate(quot)])
            yield DirectedGraph([f"v{i}" for i in range(2 + k)], IntMatrix(adj))


# sha256 of the exit codes and outputs of `graph kth` and `graph invariant`
# over the one-ideal graphs below
GOLDEN_GRAPH_OUTPUT_DIGEST = "e11c8002139d5fcecd1030216fc8d5bc9c14079397bff6abe37e489b87b89ce5"


def test_graph_outputs_match_the_golden_digest(capsys, tmp_path):
    # the K-group maps are built from lifts of generators; every output map
    # is well defined on classes, so no choice of lift may show here
    rng = random.Random(2025)
    sampled = [random_one_ideal_graph(rng, max_vertices=rng.choice((4, 6, 8)),
                                      max_mult=rng.choice((1, 3))) for _ in range(150)]
    digest = hashlib.sha256()
    for i, g in enumerate(sampled + list(_graphs_with_cycles())):
        path = dump(tmp_path / f"g{i}.json", g.to_json())
        for cmd in ("kth", "invariant"):
            rc, out, err = run_cli(capsys, "graph", cmd, path)
            digest.update(f"{cmd}\t{rc}\t{out}\t{err}\n".encode())
    assert digest.hexdigest() == GOLDEN_GRAPH_OUTPUT_DIGEST


def test_unsupported_inputs_exit_3(capsys, tmp_path):
    # rational value in a well-formed literal
    rc, _, err = run_cli(capsys, "sturmian", "compare", "sqrt(2)", "(1+2*sqrt(4))/3")
    assert rc == 3 and "not irrational" in err
    # simple graph, no nontrivial ideal at all
    f, _ = graph_file(tmp_path, "simple.json", ["v"], [[2]])
    rc, _, err = run_cli(capsys, "graph", "invariant", f)
    assert rc == 3
    rc, _, err = run_cli(capsys, "graph", "compare", f, f)
    assert rc == 3


def test_undecided_radicand_exits_3(capsys):
    # 1000250012300171 = 100003**2 * 100019: both literals are one number,
    # in one field by the square test, but the period of the continued
    # fraction is longer than the step budget
    start = time.monotonic()
    rc, out, err = run_cli(capsys, "sturmian", "compare", "sqrt(1000250012300171)",
                           "100003*sqrt(100019)")
    assert rc == 3 and out == "" and "CF_STEPS=10000" in err
    assert time.monotonic() - start < 1.0


def test_large_radicand_is_compared_without_factoring(capsys):
    # D = (10**8 + 2)**2 + 1 leaves a cofactor above 10**15 after trial
    # division to 10**5, and sqrt(D) has a continued fraction of period 1
    d = 10000000400000005
    rc, out, err = run_cli(capsys, "sturmian", "compare", f"sqrt({d})", f"1+1*sqrt({d})")
    assert (rc, json.loads(out), err) == (0, {"verdict": "isomorphic"}, "")
    # a different field, told apart by the square test before any expansion
    rc, out, err = run_cli(capsys, "sturmian", "compare", f"sqrt({d})", f"sqrt({d + 1})")
    assert (rc, json.loads(out)["verdict"], err) == (0, "not_isomorphic", "")


def test_cf_budget_exhaustion_exits_3(capsys, monkeypatch):
    # the period of sqrt(999999937) is 25,817 digits: the default budget
    # runs out, and on integer states it does so quickly
    start = time.monotonic()
    rc, out, err = run_cli(capsys, "sturmian", "compare", "sqrt(999999937)",
                           "1+1*sqrt(999999937)")
    assert rc == 3 and out == "" and "CF_STEPS=10000" in err
    assert time.monotonic() - start < 2.0
    monkeypatch.setattr(kclass.surd, "CF_STEPS", 5)
    rc, out, err = run_cli(capsys, "sturmian", "compare", "sqrt(999999937)",
                           "2*sqrt(999999937)")
    assert rc == 3 and out == "" and "CF_STEPS=5" in err


def test_ideal_lattice_budget_exits_3(capsys, tmp_path):
    n = 17   # edgeless: all 2**17 vertex sets are hereditary and saturated
    f, _ = graph_file(tmp_path, "edgeless.json", [f"v{i}" for i in range(n)],
                      [[0] * n for _ in range(n)])
    start = time.monotonic()
    rc, out, err = run_cli(capsys, "graph", "ideals", f)
    assert rc == 3 and out == "" and "MAX_IDEALS=65536" in err
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("cone", ["unordered", 4, 1.5, True, None, ["unordered"]],
                         ids=["string", "integer", "float", "boolean", "null", "array"])
def test_cone_that_is_not_an_object_exits_2(capsys, tmp_path, cone):
    g = DirectedGraph(["v", "w"], IntMatrix([[4, 1], [0, 0]]))
    data = one_ideal_invariant(g).to_json()
    good = dump(tmp_path / "good.json", data)
    data["cones"]["K0E"] = cone
    bad = dump(tmp_path / "bad.json", data)
    expected = f"error: bad six-term invariant in {bad}: a cone must be a JSON object\n"
    for argv in (["sixterm", "check", bad], ["sixterm", "compare", good, bad]):
        assert run_cli(capsys, *argv) == (2, "", expected)


def test_group_past_the_generator_bound_exits_2(capsys, tmp_path):
    g = DirectedGraph(["v", "w"], IntMatrix([[4, 1], [0, 0]]))
    data = one_ideal_invariant(g).to_json()
    data["groups"]["K1A"] = {"rank": 10 ** 6, "torsion": []}
    bad = dump(tmp_path / "bad.json", data)
    reason = "a group has 1000000 generators, past MAX_GENERATORS = 20"
    assert run_cli(capsys, "sixterm", "check", bad) == (
        2, "", f"error: bad six-term invariant in {bad}: {reason}\n")
    a = dump(tmp_path / "a.json", {"rank": 0, "torsion": [2] * 21})
    b = dump(tmp_path / "b.json", {"rank": 1, "torsion": []})
    rc, out, err = run_cli(capsys, "ext", a, b)
    assert (rc, out) == (2, "") and "past MAX_GENERATORS = 20" in err


def _json_positions(node, at=()):
    """The key path of every value in a JSON document, the root's () included."""
    yield at
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_positions(child, at + (key,))


def _random_json(rng, depth=0):
    """A random JSON value: every scalar type, integers near and far past
    the size bounds, and small arrays and objects keyed like the inputs."""
    kind = rng.randrange(7 if depth < 2 else 5)
    if kind == 0:
        return rng.choice([0, 1, -1, 2, 3, 7, 20, 21, 10 ** 6, -10 ** 12, 10 ** 40])
    if kind == 1:
        return rng.choice([0.5, -2.0, 1e300])
    if kind == 2:
        return rng.choice(["", "x", "1", "unordered", "stationary_dg"])
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return []
    if kind == 5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    keys = ["tag", "matrix", "rank", "torsion", "n", "p", "A", "vertices", "adjacency"]
    return {rng.choice(keys): _random_json(rng, depth + 1) for _ in range(rng.randint(1, 2))}


def _mutated(doc, rng):
    """A copy of doc with one of its values, perhaps the root, replaced
    by random JSON."""
    at = rng.choice(list(_json_positions(doc)))
    if not at:
        return _random_json(rng)
    doc = json.loads(json.dumps(doc))
    reduce(lambda node, key: node[key], at[:-1], doc)[at[-1]] = _random_json(rng)
    return doc


def test_mutated_inputs_never_end_in_a_traceback(capsys, tmp_path):
    # corpus six-term files, one-ideal graphs and substitution data, each
    # with random values in place of some of its own; every run ends in a
    # result or a refusal, and a traceback fails the test
    rng = random.Random(2323)
    fib4 = [[5, 3], [3, 2]]
    sources = {
        "sixterm": [inv.to_json() for inv in invariant_corpus(23, 12)],
        "graph": [random_one_ideal_graph(rng).to_json() for _ in range(6)],
        "subst": [subst_json([[1, 1]], fib4, [0]), subst_json([[2, 3]], fib4, [0]),
                  subst_json([[1, 1]], [[5, 3], [3, 3]], [0]),
                  subst_json([[1, 0], [0, 1]], [[2, 1], [1, 1]], [0, 1])],
    }
    commands = {"sixterm": ("check", "compare"), "graph": ("invariant", "compare"),
                "subst": ("compare",)}
    codes = Counter()
    for cmd, docs in sources.items():
        for _ in range(250):
            doc = rng.choice(docs)
            mutated = _mutated(doc, rng)
            argv = [cmd, rng.choice(commands[cmd]), dump(tmp_path / "mutated.json", mutated)]
            if argv[1] == "compare":
                argv.append(dump(tmp_path / "intact.json", doc))
            rc, _, _ = run_cli(capsys, *argv)
            assert rc in (0, 2, 3), (argv[:2], mutated)
            codes[cmd, rc] += 1
    for cmd in sources:
        assert codes[cmd, 0] >= 5 and codes[cmd, 2] >= 100, codes


def test_missing_second_input_exits_2(capsys, tmp_path):
    f, _ = graph_file(tmp_path, "g.json", ["v", "w"], [[4, 1], [0, 0]])
    rc, _, err = run_cli(capsys, "graph", "compare", f)
    assert rc == 2 and "two inputs" in err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["graph"])
    assert exc.value.code == 2


def run_script(cmd, env=None):
    """Run a launcher on the golden pair and on an unparsable literal."""
    ok = subprocess.run([*cmd, "sturmian", "compare", GOLDEN_A, GOLDEN_B],
                        capture_output=True, text=True, env=env)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.strip() == '{"verdict":"isomorphic"}'
    bad = subprocess.run([*cmd, "sturmian", "compare", "sqrt(", GOLDEN_B],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 2, bad.stderr
    assert bad.stdout == ""


def test_console_script_is_installed():
    """The declared `kclass` console script reaches `kclass.cli:main`.

    The `[project.scripts]` entry of `pyproject.toml` must name an
    importable callable. It is then run in a fresh process the way pip's
    generated launcher runs it, `sys.exit(main())` with the arguments in
    `sys.argv`, against the `kclass` package under test: the golden pair
    exits 0 with the documented output, an unparsable literal exits 2 with
    nothing on stdout. When an installed `kclass` script is on `PATH`, it
    must behave the same.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["kclass"]
    ep = EntryPoint(name="kclass", value=target, group="console_scripts")
    assert callable(ep.load())

    launcher = f"import sys, {ep.module}\nsys.exit({ep.module}.{ep.attr}())\n"
    package_root = Path(kclass.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    run_script([sys.executable, "-c", launcher], env=env)

    exe = shutil.which("kclass")
    if exe is not None:
        run_script([exe])


MODULES = {p.stem for p in Path(kclass.__file__).parent.glob("*.py")} - {"__init__"}
STURMIAN_MODULES = {"cli", "matrix", "surd", "verdict"}
LOADED_BY = {"sturmian": STURMIAN_MODULES, "snf": STURMIAN_MODULES,
             "subst": STURMIAN_MODULES | {"dimgroup"},
             "sixterm": MODULES - {"graphalg"}, "graph": MODULES}


def subcommand_argv(kind, tmp_path):
    """A small input for one subcommand, as its command line."""
    if kind == "sturmian":
        return ["sturmian", "compare", "sqrt(2)", "sqrt(3)"]
    if kind == "snf":
        return ["snf", dump(tmp_path / "m.json", [[2, 4], [6, 8]])]
    if kind == "subst":
        return ["subst", "compare",
                *(dump(tmp_path / f"s{k}.json", subst_json([[k, 1]], [[5, 3], [3, 2]], [0]))
                  for k in (1, 2))]
    graphs = [DirectedGraph(["v", "w"], IntMatrix([[4, k], [0, 0]])) for k in (1, 2)]
    data = [one_ideal_invariant(g).to_json() if kind == "sixterm" else g.to_json()
            for g in graphs]
    return [kind, "compare", *(dump(tmp_path / f"in{i}.json", d) for i, d in enumerate(data))]


@pytest.mark.parametrize("kind", list(LOADED_BY))
def test_each_subcommand_loads_only_its_engines(capsys, tmp_path, kind):
    """A fresh interpreter running one subcommand imports only the
    modules that subcommand needs, and prints what an interpreter with
    every module loaded prints."""
    argv = subcommand_argv(kind, tmp_path)
    script = ("import sys\nfrom kclass.cli import main\nrc = main(sys.argv[1:])\n"
              "print(*sorted(sys.modules), file=sys.stderr)\nsys.exit(rc)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(kclass.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    loaded = {m.removeprefix("kclass.") for m in done.stderr.split() if m.startswith("kclass.")}
    assert loaded == LOADED_BY[kind]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and done.stdout == out


def free_line_invariant():
    """K0B = K0E = Z joined by the identity, every other group trivial:
    K1A -> K0B is a 1 x 0 map and K0E -> K0A a 0 x 1 map."""
    groups = {n: {"rank": 0, "torsion": []} for n in ("K0A", "K1A", "K1E", "K1B")}
    groups["K0B"] = groups["K0E"] = {"rank": 1, "torsion": []}
    maps = {k: [] for k in ("K0A->K1B", "K1B->K1E", "K1E->K1A", "K0E->K0A")}
    maps["K0B->K0E"] = [[1]]
    maps["K1A->K0B"] = [[]]
    cones = {"K0B": {"tag": "standard_free"}, "K0E": {"tag": "standard_free"},
             "K0A": {"tag": "unordered"}}
    return {"groups": groups, "maps": maps, "cones": cones}


@pytest.mark.parametrize("key, value", [
    ("K0E->K0A", None), ("K0E->K0A", 0), ("K0E->K0A", False), ("K0E->K0A", ""),
    ("K0E->K0A", {}), ("K1A->K0B", [""]),
])
def test_a_map_that_is_no_list_of_rows_exits_2(capsys, tmp_path, key, value):
    # a falsy value is not the zero map, nor an empty string an empty row
    good = dump(tmp_path / "good.json", free_line_invariant())
    rc, out, _ = run_cli(capsys, "sixterm", "compare", good, good)
    assert rc == 0 and json.loads(out)["verdict"] == "isomorphic"
    data = free_line_invariant()
    data["maps"][key] = value
    bad = dump(tmp_path / "bad.json", data)
    for argv in (["check", bad], ["compare", bad, bad]):
        rc, out, err = run_cli(capsys, "sixterm", *argv)
        assert rc == 2 and out == "" and key in err

"""The benchmark's own checks, at toy size.

    python3 -m pytest bench/tests
"""
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from check import Checker, golden_digest, golden_statuses
from spans import REPORTED, TRACED, Tracer, _modules
from kclass.surd import mobius_apply, parse_surd, sturmian_equivalent
from kclass.matrix import IntMatrix

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def toy(name, seed, root):
    wl = workloads.generate(name, seed, toy=True)
    manifests = run.write_inputs(wl, root)
    return wl, manifests


def batch_outputs(wl, manifests):
    outs = {}
    for cmd in wl.commands():
        _, code, stdout, _ = run.call_cli([cmd, "compare", "--batch", str(manifests[cmd])])
        assert code == 0
        outs[cmd] = run.parse_results(stdout)
    return outs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_deterministic(name):
    a = workloads.generate(name, 3, toy=True)
    b = workloads.generate(name, 3, toy=True)
    assert a.digest() == b.digest()
    assert [vars(p) for p in a.pairs] == [vars(p) for p in b.pairs]
    assert workloads.generate(name, 4, toy=True).digest() != a.digest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_full_size_inputs_match_the_pins(name):
    pins = run.load_pins()
    assert workloads.generate(name, 0).digest() == pins["inputs"][name]["0"]


def test_moebius_images_and_orbits_agree_with_the_library():
    wl = workloads.generate("slopes", 2, toy=True)
    for p in wl.pairs:
        if p.cmd != "sturmian":
            continue
        x, y = parse_surd(p.first), parse_surd(p.second)
        assert ("isomorphic" if sturmian_equivalent(x, y) else "not_isomorphic") == p.expected
    x = workloads.Surd(3, -2, 7, 61)
    M = [[2, 1], [1, 1]]
    assert parse_surd(workloads.mobius(M, x).literal()) == \
        mobius_apply(IntMatrix(M), parse_surd(x.literal()))


def test_twisted_copies_carry_their_isomorphism():
    from kclass.sixterm import SixTermInvariant, Witness, verify_witness
    wl = workloads.generate("sixterm_twisted", 2, toy=True)
    for p in wl.pairs:
        a = SixTermInvariant.from_json(wl.files[p.first])
        b = SixTermInvariant.from_json(wl.files[p.second])
        assert verify_witness(a, b, Witness(**p.proof))


def test_lattice_graphs_have_exactly_one_proper_ideal():
    import random
    rng = random.Random(0)
    for n in (4, 5, 6, 7, 8):
        g = workloads.lattice_graph(rng, n)
        adj = g.adjacency.to_lists()
        proper = [s for s in workloads.hs_sets(adj) if 0 < len(s) < n]
        assert len(proper) == 1


def test_checker_flags_corrupted_outputs(tmp_path):
    wl, manifests = toy("sixterm_twisted", 1, tmp_path)
    outputs = batch_outputs(wl, manifests)["sixterm"]
    indices = list(range(len(wl.pairs)))
    assert Checker(wl).check_batch(indices, outputs) == {}

    flipped = copy.deepcopy(outputs)
    flipped[0] = {"verdict": "not_isomorphic", "certificate": "made up"}
    assert "wrong verdict" in Checker(wl).check_batch(indices, flipped)[0]

    tampered = copy.deepcopy(outputs)
    witness = tampered[1]["witness"]
    name = next(k for k, m in witness.items() if m and m[0])
    witness[name][0][0] += 1
    assert "witness" in Checker(wl).check_batch(indices, tampered)[1]

    truncated = outputs[:-1]
    bad = Checker(wl).check_batch(indices, truncated)
    assert list(bad) == [len(outputs) - 1]

    assert Checker(wl).check_batch(indices, None, "batch exited with 3") == \
        {i: "batch exited with 3" for i in indices}


def test_golden_digest_flags_a_changed_corpus_verdict(tmp_path):
    wl, manifests = toy("sixterm_corpus", 1, tmp_path)
    outputs = batch_outputs(wl, manifests)["sixterm"]
    golden = {"digest": golden_digest(outputs), "statuses": golden_statuses(outputs)}
    checker = Checker(wl, golden)
    assert checker.check_golden(outputs) == {}
    changed = copy.deepcopy(outputs)
    i = next(k for k, o in enumerate(outputs) if o["verdict"] == "not_isomorphic")
    changed[i] = {"verdict": "unknown", "reason": "budget"}
    assert list(checker.check_golden(changed)) == [i]
    reworded = copy.deepcopy(outputs)
    reworded[i]["certificate"] += "!"
    assert checker.check_golden(reworded)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_end_to_end_at_toy_size(name, tmp_path):
    wl, manifests = toy(name, 0, tmp_path)
    r = run.Run(wl, tmp_path, Checker(wl))
    metrics = run.run_end_to_end(r, manifests, 0, 0.2)
    assert r.failures == []
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _, _ in metrics.values())


def test_traced_runs_report_every_layer_metric_and_fire_every_span(tmp_path):
    fired = set()
    for name in workloads.WORKLOADS:
        wl, manifests = toy(name, 0, tmp_path / name)
        r = run.Run(wl, tmp_path / name, Checker(wl))
        metrics = run.run_traced(r, manifests, run.count_src_lines())
        assert r.failures == []
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert metrics["trace.overhead"][0] > 0
        fired |= {k.rsplit(".", 1)[0] for k, (v, _, _) in metrics.items()
                  if k.endswith((".calls", ".constructed")) and v > 0}
        if metrics["cli.main.self_s"][0] > 0:
            fired.add("cli.main")
    assert fired == {name for name, _, _, _ in REPORTED}


def test_tracer_patches_every_binding_and_restores_them():
    from kclass import cli, groups, sixterm  # noqa: F401
    original = sixterm.kernel
    assert original is groups.kernel
    with Tracer():
        assert sixterm.kernel is not original and groups.kernel is not original
        for m in _modules():
            for _, module, path, _ in TRACED:
                if "." not in path:
                    target = getattr(sys.modules[f"kclass.{module}"], path)
                    assert all(v is not getattr(target, "__wrapped__", None)
                               for v in vars(m).values())
    assert sixterm.kernel is original and groups.kernel is original


def test_exit_stages_and_tail_percentile():
    assert run.exit_stage({"verdict": "not_isomorphic",
                           "certificate": "groups at K0B differ: Z vs 0"}, "") == "groups"
    assert run.exit_stage({"verdict": "isomorphic", "witness": {}}, "ext") == "ext_orbit"
    assert run.exit_stage({"verdict": "unknown", "reason": "x"}, "") == "unknown"
    assert run.tail_percentile([float(i) for i in range(1, 1001)]) == ("p99", 990.0)
    assert run.tail_percentile([float(i) for i in range(1, 201)]) == ("p95", 190.0)
    assert run.tail_percentile([1.0, 2.0]) == ("max", 2.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "slopes", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

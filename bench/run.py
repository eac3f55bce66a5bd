"""The kclass benchmark: one workload, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported and
spawned from ``src/``.  The inputs are generated from the seed into
``.bench_work/`` and checked against pinned digests where the seed has
them.

End to end (``--trace 0``), with tracing off, in three rounds:

* ``setup_s``: median spawn-to-exit time of fresh
  ``python -m kclass.cli sturmian compare "sqrt(2)" "sqrt(3)"``;
* ``pairs_per_s`` and ``peak_rss_mb``: one fresh
  ``kclass <cmd> compare --batch MANIFEST`` process per command of the
  workload and round, timed spawn to exit (median over rounds), its
  peak RSS read with ``os.wait4``;
* ``decision_p50_ms`` and ``decision_tail_ms``: a closed loop with one
  caller, in this process, each pair its own ``kclass.cli.main`` call,
  going through the pairs in a seeded order for ``--seconds`` and at
  least once; a pair's decision time is the median of its timings, and
  the percentiles are taken over pairs;
* ``decided_ratio``: definite verdicts over the batch pairs.

Every output is checked (see check.py); failures count against
``attempted`` and are listed with their inputs on standard error.

Traced (``--trace 1``): the batches run in this process, once plain and
once under the tracer, and the per-layer metrics come from the traced
pass; ``trace.overhead`` is traced over plain wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

ROUNDS = 3
SETUP_SPAWNS_PER_ROUND = 3
# Each visit of the loop times one pair this many times back to back,
# so that a stall of the host during one call does not pass for a slow
# decision.
TIMINGS_PER_VISIT = 3
SETUP_ARGS = ["sturmian", "compare", "sqrt(2)", "sqrt(3)"]
SPAWN_TIMEOUT_S = 150
TAIL_PERCENTILES = (0.99, 0.95, 0.90)
TAIL_MIN_BEYOND = 10
# The loop runs on past --seconds, up to LOOP_OVERRUN times it, until
# it has visited every pair once.
LOOP_OVERRUN = 4
DEFINITE = ("isomorphic", "not_isomorphic")


def load_pins() -> dict:
    return json.loads((BENCH / "pins.json").read_text())


def write_inputs(workload, root: Path) -> dict[str, Path]:
    """Write the input files and one manifest per command; returns the
    manifest path of each command."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    for name, data in workload.files.items():
        (root / name).write_text(json.dumps(data))
    manifests = {}
    for cmd in workload.commands():
        manifests[cmd] = root / f"manifest_{cmd}.json"
        manifests[cmd].write_text(json.dumps(workload.manifest(cmd)))
    return manifests


def pair_argv(pair, root: Path) -> list[str]:
    if pair.cmd == "sturmian":
        return [pair.cmd, "compare", pair.first, pair.second]
    return [pair.cmd, "compare", str(root / pair.first), str(root / pair.second)]


def indices_by_cmd(workload) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for i, p in enumerate(workload.pairs):
        out.setdefault(p.cmd, []).append(i)
    return out


# -- child processes ------------------------------------------------------

def spawn_cli(args: list[str], log: Path) -> dict:
    """Run ``python -m kclass.cli ARGS`` to exit; wall time, peak RSS of
    this child alone (os.wait4), exit code and standard output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "kclass.cli", *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "stdout": out_path.read_text(), "stderr": err_path.read_text()}


def parse_results(text: str) -> list | None:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return None
    results = data.get("results") if isinstance(data, dict) else None
    return results if isinstance(results, list) else None


# -- in-process calls -------------------------------------------------------

def call_cli(argv: list[str]):
    """One ``kclass.cli.main`` call with captured output; returns
    (seconds, exit code or None after a traceback, stdout, stderr)."""
    from kclass import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def frozen_heap():
    """Keep the benchmark's own objects out of the collector's scans
    while the program is timed, so they do not lengthen its pauses."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def parse_one(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """Highest of p99, p95, p90 with at least ten samples beyond it
    (nearest rank); the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = -(-int(p * 1000) * n // 1000)   # ceil(p * n) in exact arithmetic
        if n - rank >= TAIL_MIN_BEYOND:
            return f"p{int(p * 100)}", xs[rank - 1]
    return "max", xs[-1]


# -- the runs ----------------------------------------------------------------

class Run:
    """Bookkeeping shared by both modes: attempted decisions and failures."""

    def __init__(self, workload, root: Path, checker):
        self.workload = workload
        self.root = root
        self.checker = checker
        self.attempted = 0
        self.failures: list[tuple[str, int | None, str]] = []

    def record_batch(self, cmd: str, indices: list[int], outputs, failure: str | None):
        self.attempted += len(indices)
        bad = self.checker.check_batch(indices, outputs, failure)
        if outputs:
            for k, why in self.checker.check_golden(outputs).items():
                bad.setdefault(indices[k], why)
        self.failures += [(f"batch {cmd}", i, why) for i, why in sorted(bad.items())]

    def report_failures(self) -> None:
        for where, i, why in self.failures[:20]:
            if i is None:
                print(f"FAILED {where}: {why}", file=sys.stderr)
                continue
            p = self.workload.pairs[i]
            print(f"FAILED {where} pair {i} ({p.cmd} {p.first} {p.second}): {why}",
                  file=sys.stderr)
        if len(self.failures) > 20:
            print(f"... and {len(self.failures) - 20} more failures", file=sys.stderr)
        if self.failures:
            print(f"inputs of the failed pairs are in {self.root}", file=sys.stderr)


def run_end_to_end(run: Run, manifests: dict[str, Path], seed: int, seconds: float) -> dict:
    """ROUNDS rounds, each: setup spawns, one fresh batch process per
    command, then a slice of the closed loop.  The machine's speed
    drifts over seconds, so every metric is sampled across the whole run
    and reported as a median rather than taken from one stretch of it."""
    wl = run.workload
    logs = run.root / "logs"
    logs.mkdir(exist_ok=True)
    by_cmd = indices_by_cmd(wl)
    order = list(range(len(wl.pairs)))
    random.Random(f"loop-{seed}").shuffle(order)
    call_cli(pair_argv(wl.pairs[order[0]], run.root))   # warm up the in-process path

    setup, rates, rss, batch_out = [], [], 0.0, {}
    timings: dict[int, list[float]] = {}
    results, visits = [], 0
    start = time.perf_counter()
    for r in range(ROUNDS):
        for k in range(SETUP_SPAWNS_PER_ROUND):
            res = spawn_cli(SETUP_ARGS, logs / f"setup{r}_{k}")
            run.attempted += 1
            out = parse_one(res["stdout"])
            if res["code"] != 0 or not isinstance(out, dict) or out.get("verdict") != "not_isomorphic":
                run.failures.append(("setup", None, f"exit {res['code']}: {res['stderr'][-300:]}"))
            setup.append(res["wall_s"])

        wall = 0.0
        for cmd, indices in by_cmd.items():
            res = spawn_cli([cmd, "compare", "--batch", str(manifests[cmd])], logs / f"batch{r}_{cmd}")
            wall += res["wall_s"]
            rss = max(rss, res["rss_mb"])
            outputs = parse_results(res["stdout"]) if res["code"] == 0 else None
            failure = None
            if res["code"] != 0:
                failure = f"batch exited with {res['code']}: {res['stderr'][-300:]}"
            elif outputs is None:
                failure = "batch output is not a results list"
            run.record_batch(cmd, indices, outputs, failure)
            if r == 0:
                batch_out.update(zip(indices, outputs or []))
        rates.append(len(wl.pairs) / wall)

        # closed loop, one caller: time pair after pair, check afterwards
        with frozen_heap():
            deadline = time.perf_counter() + seconds / ROUNDS
            give_up = start + LOOP_OVERRUN * seconds
            while time.perf_counter() < deadline or (
                    r == ROUNDS - 1 and visits < len(order)
                    and time.perf_counter() < give_up):
                i = order[visits % len(order)]
                visits += 1
                calls = [call_cli(pair_argv(wl.pairs[i], run.root))
                         for _ in range(TIMINGS_PER_VISIT)]
                timings.setdefault(i, []).extend(c[0] for c in calls)
                results += [(i, *c[1:]) for c in calls]

    for i, code, stdout, stderr in results:
        run.attempted += 1
        out = parse_one(stdout)
        if code != 0:
            why = f"exit {code}: {stderr[-300:]}"
        elif isinstance(out, dict) and isinstance(batch_out.get(i), dict) \
                and out.get("verdict") != batch_out[i].get("verdict"):
            why = f"verdict {out.get('verdict')} differs from the batch's {batch_out[i].get('verdict')}"
        else:
            why = run.checker.check(i, out)
        if why:
            run.failures.append(("loop", i, why))

    decided = sum(1 for o in batch_out.values()
                  if isinstance(o, dict) and o.get("verdict") in DEFINITE)
    # one decision time per pair, the median of all its timings, so that
    # every pair weighs the same however often the loop reached it
    samples = [statistics.median(ts) for ts in timings.values()]
    label, tail = tail_percentile(samples)
    n_pairs = len(wl.pairs)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} spawns"),
        "pairs_per_s": (statistics.median(rates), "pairs/s",
                        f"median of {ROUNDS} rounds of {n_pairs} pairs in "
                        f"{len(by_cmd)} batch process(es) each"),
        "decision_p50_ms": (statistics.median(samples) * 1e3, "ms",
                            f"{len(samples)} pairs, {visits * TIMINGS_PER_VISIT} timed calls"),
        "decision_tail_ms": (tail * 1e3, "ms", f"{label} of the same {len(samples)} pairs"),
        "peak_rss_mb": (rss, "MB", "largest batch process"),
        "decided_ratio": (decided / n_pairs, "ratio", f"{decided} of {n_pairs} batch pairs"),
    }


def run_traced(run: Run, manifests: dict[str, Path], src_lines: int) -> dict:
    from spans import REPORTED, Tracer
    from kclass import cli   # noqa: F401  (loads every kclass module before patching)

    wl = run.workload
    by_cmd = indices_by_cmd(wl)

    def batches():
        wall, outs = 0.0, {}
        for cmd in by_cmd:
            elapsed, code, stdout, stderr = call_cli([cmd, "compare", "--batch", str(manifests[cmd])])
            wall += elapsed
            outs[cmd] = (code, parse_results(stdout) if code == 0 else None, stderr)
        return wall, outs

    def record(outs):
        for cmd, (code, outputs, stderr) in outs.items():
            failure = None if code == 0 else f"batch exited with {code}: {stderr[-300:]}"
            if code == 0 and outputs is None:
                failure = "batch output is not a results list"
            run.record_batch(cmd, by_cmd[cmd], outputs, failure)

    call_cli(pair_argv(wl.pairs[0], run.root))   # warm up the in-process path
    with frozen_heap():
        plain_wall, plain_outs = batches()
    tracer = Tracer()
    with frozen_heap(), tracer:
        traced_wall, outs = batches()
    tracer.write(WORK / f"spans-{wl.name}-{wl.seed}")
    record(plain_outs)
    record(outs)

    stages = dict.fromkeys(STAGES, 0)
    routes = iter(tracer.decision_routes())
    for cmd, (code, outputs, stderr) in outs.items():
        if cmd in ("sixterm", "graph"):
            for out in outputs or []:
                stages[exit_stage(out, next(routes, ""))] += 1

    c, s, x = tracer.calls, tracer.self_s, tracer.extra
    metrics = {}
    for name, _, path, kind in REPORTED:
        if path.endswith("__init__"):
            metrics[f"{name}.constructed"] = (c[name], "count")
        else:
            metrics[f"{name}.calls"] = (c[name], "count")
        if kind == "span":
            metrics[f"{name}.self_s"] = (s[name], "s")
    del metrics["cli.main.calls"]
    metrics["autgroups.subgroup_closure.elements"] = (x["autgroups.subgroup_closure.elements"], "count")
    metrics["autgroups.word_ball.elements"] = (x["autgroups.word_ball.elements"], "count")
    metrics["surd.cf_expansion.digits"] = (x["surd.cf_expansion.digits"], "count")
    validations = c["sixterm.validate_sixterm"]
    metrics["sixterm.validate_sixterm.distinct_ratio"] = (
        len(tracer.distinct_invariants) / validations if validations else 0.0, "ratio")
    evaluated = c["graphalg.evaluate_subset"]
    metrics["graphalg.hereditary_saturated_sets.useful_ratio"] = (
        x["graphalg.hereditary_saturated_sets.found"] / evaluated if evaluated else 0.0, "ratio")
    for stage, n in stages.items():
        metrics[f"sixterm.exit.{stage}"] = (n, "count")
    metrics["src.lines"] = (src_lines, "count")
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    return {k: (v, unit, "") for k, (v, unit) in metrics.items()}


STAGES = ("groups", "cones", "end_pair", "map_shape", "ext_orbit", "search",
          "identity", "unknown", "other")
_CERTIFICATE_STAGES = (("groups at ", "groups"), ("cone types at ", "cones"),
                       ("no order isomorphism exists", "end_pair"),
                       ("kernel or cokernel of the map", "map_shape"),
                       ("extension classes differ", "ext_orbit"),
                       ("no automorphism pair at the ends", "search"))


def exit_stage(out, route: str) -> str:
    """The decision stage that produced a six-term verdict."""
    verdict = out.get("verdict") if isinstance(out, dict) else None
    if verdict == "unknown":
        return "unknown"
    if verdict == "isomorphic":
        return {"general": "search", "ext": "ext_orbit"}.get(route, "identity")
    certificate = (out.get("certificate") or "") if verdict else ""
    for prefix, stage in _CERTIFICATE_STAGES:
        if certificate.startswith(prefix):
            return stage
    return "other"


def count_src_lines() -> int:
    return sum(1 for f in sorted((SRC / "kclass").rglob("*.py"))
               for line in f.read_text().splitlines() if line.strip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kclass" / "cli.py").is_file():
        print(f"error: no program sources at {SRC / 'kclass'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from check import Checker

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    wl = workloads.generate(args.workload, args.seed)
    pins = load_pins()
    want = pins["inputs"][args.workload].get(str(args.seed))
    digest = wl.digest()
    if want is not None and digest != want:
        print(f"error: the {args.workload} inputs for seed {args.seed} differ from the "
              f"pinned digest ({digest} != {want}); the workload changed", file=sys.stderr)
        return 1
    if want is None:
        print(f"note: seed {args.seed} has no pinned input digest", file=sys.stderr)
    golden = pins["golden"].get(args.workload, {}).get(str(args.seed))

    root = WORK / f"{args.workload}-{args.seed}-{'traced' if args.trace else 'e2e'}"
    manifests = write_inputs(wl, root)
    run = Run(wl, root, Checker(wl, golden))
    if args.trace:
        metrics = run_traced(run, manifests, count_src_lines())
    else:
        metrics = run_end_to_end(run, manifests, args.seed, args.seconds)
    run.report_failures()
    if not run.failures:
        shutil.rmtree(root)   # failed runs keep their inputs for inspection

    failed_pairs = len(run.failures)
    error_rate = failed_pairs / run.attempted
    print(f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'end to end'}), "
          f"{len(wl.pairs)} pairs, inputs {digest[:16]}"
          f"{'' if want else ' (unpinned)'}{', golden verdicts checked' if golden else ''}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit:8s} {note}")
    if not args.trace:
        print(f"  {'error_rate':48s} {error_rate:>14.6g} {'ratio':8s} "
              f"{failed_pairs} of {run.attempted} decisions")
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": failed_pairs,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

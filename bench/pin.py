"""Recompute bench/pins.json from the current workloads and program.

    python3 bench/pin.py

The pins hold the input digest of every workload for seeds 0..63 and
the golden corpus verdicts (status and certificate or reason of every
pair) for seeds 0..31.  A benchmark run whose inputs or corpus
verdicts differ from the pins fails.  Re-pin only in a change that
alters a workload on purpose, never in one that claims a speed-up.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from check import golden_digest, golden_statuses  # noqa: E402
from run import WORK, call_cli, parse_results, write_inputs  # noqa: E402

SEEDS = 64
GOLDEN_SEEDS = 32


def golden(seed: int) -> dict:
    wl = workloads.generate("sixterm_corpus", seed)
    root = WORK / f"pin-{seed}"
    manifests = write_inputs(wl, root)
    _, code, stdout, stderr = call_cli(["sixterm", "compare", "--batch",
                                        str(manifests["sixterm"])])
    shutil.rmtree(root)
    outputs = parse_results(stdout) if code == 0 else None
    if outputs is None or len(outputs) != len(wl.pairs):
        raise SystemExit(f"corpus batch for seed {seed} failed: exit {code} {stderr[-500:]}")
    return {"digest": golden_digest(outputs), "statuses": golden_statuses(outputs)}


def main() -> None:
    pins = {"inputs": {name: {} for name in workloads.WORKLOADS},
            "golden": {"sixterm_corpus": {}}}
    for seed in range(SEEDS):
        for name in workloads.WORKLOADS:
            pins["inputs"][name][str(seed)] = workloads.generate(name, seed).digest()
        print(f"inputs pinned for seed {seed}", file=sys.stderr)
    for seed in range(GOLDEN_SEEDS):
        pins["golden"]["sixterm_corpus"][str(seed)] = golden(seed)
        print(f"golden corpus verdicts pinned for seed {seed}", file=sys.stderr)
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

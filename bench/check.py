"""Independent checks of every comparison the benchmark runs.

A pair fails when its output is malformed, its verdict contradicts an
answer known by construction or the golden corpus verdicts, or an
``isomorphic`` witness does not pass the library's verifier for that
kind of data.  ``unknown`` with a reason is a legal answer; it lowers
the decided ratio but is not a failure.
"""
from __future__ import annotations

import hashlib
import json
from kclass.dimgroup import SubstitutionInvariant, check_subst_witness
from kclass.graphalg import DirectedGraph, one_ideal_invariant
from kclass.sixterm import SixTermInvariant, verify_witness

ISOMORPHIC, NOT_ISOMORPHIC, UNKNOWN = "isomorphic", "not_isomorphic", "unknown"
_DETAIL = {ISOMORPHIC: "witness", NOT_ISOMORPHIC: "certificate", UNKNOWN: "reason"}


def verdict_key(out: dict) -> list:
    """The part of an output the golden digest pins: status and the
    certificate or reason (witnesses may change, they are re-verified)."""
    return [out.get("verdict"), out.get("certificate", out.get("reason"))]


def golden_digest(outputs: list) -> str:
    keys = [verdict_key(o) if isinstance(o, dict) else None for o in outputs]
    return hashlib.sha256(json.dumps(keys, separators=(",", ":")).encode()).hexdigest()


def golden_statuses(outputs: list) -> dict:
    """Indices of the pairs that are not ``not_isomorphic``, by status."""
    out: dict[str, list[int]] = {ISOMORPHIC: [], UNKNOWN: []}
    for i, o in enumerate(outputs):
        if o.get("verdict") in out:
            out[o["verdict"]].append(i)
    return out


class Checker:
    """Checks outputs for the pairs of one workload."""

    def __init__(self, workload, golden: dict | None = None):
        self.workload = workload
        self.golden = golden
        self._inputs: dict[str, object] = {}
        self._verified: dict[int, str] = {}   # pair index -> output already verified

    def _load(self, cmd: str, name: str):
        key = f"{cmd}:{name}"
        if key not in self._inputs:
            data = self.workload.files[name]
            if cmd == "sixterm":
                self._inputs[key] = SixTermInvariant.from_json(data)
            elif cmd == "graph":
                self._inputs[key] = one_ideal_invariant(DirectedGraph.from_json(data))
            else:
                self._inputs[key] = SubstitutionInvariant.from_json(data)
        return self._inputs[key]

    def _witness_ok(self, pair, witness) -> bool:
        if pair.cmd == "sturmian":
            # sturmian outputs carry no witness; the verdict is checked
            # against the orbit computed by the workload's own recurrence
            return True
        a, b = self._load(pair.cmd, pair.first), self._load(pair.cmd, pair.second)
        verify = check_subst_witness if pair.cmd == "subst" else verify_witness
        return isinstance(witness, dict) and verify(a, b, witness)

    def check(self, index: int, out) -> str | None:
        """None when the output for pair ``index`` is correct, else why not."""
        pair = self.workload.pairs[index]
        if not isinstance(out, dict) or out.get("verdict") not in _DETAIL:
            return "malformed output"
        status = out["verdict"]
        canon = json.dumps(out, sort_keys=True)
        if self._verified.get(index) == canon:
            return None
        if status != UNKNOWN and pair.expected is not None and status != pair.expected:
            return f"wrong verdict {status}, expected {pair.expected}"
        detail = out.get(_DETAIL[status])
        if not detail and not (status == ISOMORPHIC and pair.cmd == "sturmian"):
            return f"{status} verdict without its {_DETAIL[status]}"
        if status == ISOMORPHIC and not self._witness_ok(pair, detail):
            return "witness fails its independent check"
        self._verified[index] = canon
        return None

    def check_batch(self, indices: list[int], outputs: list | None,
                    failure: str | None = None) -> dict[int, str]:
        """Failures of one batch run; pairs the batch did not answer fail."""
        failures = {}
        outputs = outputs or []
        for k, i in enumerate(indices):
            if k >= len(outputs):
                failures[i] = failure or "missing from the batch results"
                continue
            why = self.check(i, outputs[k])
            if why:
                failures[i] = why
        return failures

    def check_golden(self, outputs: list) -> dict[int, str]:
        """Failures against the pinned corpus verdicts, when this seed has them."""
        if self.golden is None:
            return {}
        if golden_digest(outputs) == self.golden["digest"]:
            return {}
        failures = {}
        want = {i: s for s, idx in self.golden["statuses"].items() for i in idx}
        for i, o in enumerate(outputs):
            expected = want.get(i, NOT_ISOMORPHIC)
            got = o.get("verdict") if isinstance(o, dict) else None
            if got != expected:
                failures[i] = f"verdict {got} differs from the golden {expected}"
        if not failures:
            # same statuses, different certificate or reason text
            failures[0] = "certificates or reasons differ from the golden digest"
        return failures

"""Command line front end with stable JSON output.

Every subcommand writes exactly one JSON object to standard output.
Exit codes: 0 for any computed result (isomorphic, not isomorphic and
unknown all count as results), 2 for input that fails to parse, 3 for
input that parses but falls outside what the computations support.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# Each engine is imported by the command that runs it, so a process
# compiles only the modules its subcommand needs.
from . import verdict as V
from .surd import int_literal

PARSE_ERROR = 2
UNSUPPORTED = 3


class CliError(Exception):
    """A user-facing failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=int_literal)
    except OSError as exc:
        raise CliError(PARSE_ERROR, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the
        # interpreter's digit limit (``int_literal`` names both counts);
        # RecursionError, nesting too deep
        raise CliError(PARSE_ERROR, f"malformed JSON in {path}: {exc}") from exc


def _build(ctor, data, label: str):
    """Constructor failures mean the file content has the wrong shape."""
    try:
        return ctor(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(PARSE_ERROR, f"{label}: {exc}") from exc


def _run(fn, *args, **kwargs):
    """Failures past parsing mean the input is out of scope, not malformed."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise CliError(UNSUPPORTED, str(exc)) from exc


def _load_graph(path: str):
    from .graphalg import DirectedGraph
    return _build(DirectedGraph.from_json, _load_json(path), f"bad graph in {path}")


def _load_graph_invariant(path: str):
    from .graphalg import one_ideal_invariant
    return _run(one_ideal_invariant, _load_graph(path))


def _load_sixterm(path: str, homs: dict | None = None):
    from .sixterm import SixTermInvariant
    return _build(lambda data: SixTermInvariant.from_json(data, homs), _load_json(path),
                  f"bad six-term invariant in {path}")


def _load_subst(path: str):
    from .dimgroup import SubstitutionInvariant
    return _build(SubstitutionInvariant.from_json, _load_json(path),
                  f"bad substitution invariant in {path}")


def _load_group(path: str):
    from .sixterm import _group_from_json
    return _build(_group_from_json, _load_json(path), f"bad group in {path}")


def _load_matrix(path: str):
    from .matrix import IntMatrix
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("matrix")
    return _build(IntMatrix, data, f"bad matrix in {path}")


def _parse_surd_arg(text: str):
    from .surd import parse_surd
    try:
        return parse_surd(text)
    except ValueError as exc:
        # the parser flags a well-formed literal with a rational value by
        # this message; that input is out of scope rather than malformed
        code = UNSUPPORTED if str(exc).startswith("not irrational") else PARSE_ERROR
        raise CliError(code, str(exc)) from exc


def _load_pairs(path: str) -> list[tuple[str, str]]:
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("pairs")
    if not isinstance(data, list):
        raise CliError(PARSE_ERROR,
                       f'manifest {path} must be a list of pairs or {{"pairs": [...]}}')
    pairs = []
    for i, entry in enumerate(data):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(x, str) for x in entry)):
            raise CliError(PARSE_ERROR,
                           f"manifest entry {i} in {path} is not a pair of strings")
        pairs.append((entry[0], entry[1]))
    return pairs


def _compare_many(args, load, compare, resolve_paths: bool = True) -> dict:
    """Run a pairwise comparison once, or over a whole manifest.

    ``load`` runs once per distinct input, and ``compare`` takes two
    loaded inputs to a verdict.  Batch results keep the manifest order;
    relative manifest entries are taken relative to the manifest file.
    """
    loaded: dict = {}

    def one(x: str, y: str) -> dict:
        for p in (x, y):
            if p not in loaded:
                loaded[p] = load(p)
        return _run(compare, loaded[x], loaded[y]).to_json()

    if args.batch is not None:
        if args.first is not None or args.second is not None:
            raise CliError(PARSE_ERROR, "--batch replaces the two positional inputs")
        pairs = _load_pairs(args.batch)
        base = os.path.dirname(os.path.abspath(args.batch))

        def resolve(p: str) -> str:
            if not resolve_paths or os.path.isabs(p):
                return p
            return os.path.join(base, p)

        return {"results": [one(resolve(x), resolve(y)) for x, y in pairs]}
    if args.first is None or args.second is None:
        raise CliError(PARSE_ERROR, "two inputs are required unless --batch is given")
    return one(args.first, args.second)


def cmd_snf(args) -> dict:
    from .matrix import snf
    dec = snf(_load_matrix(args.file))
    return {"U": dec.U.to_lists(), "D": dec.D.to_lists(), "V": dec.V.to_lists(),
            "diagonal": list(dec.diagonal())}


def cmd_ext(args) -> dict:
    from .ext import ext1
    from .sixterm import _group_json
    A = _load_group(args.source)
    B = _load_group(args.target)
    E = ext1(A, B).group
    return {"source": _group_json(A), "target": _group_json(B),
            "ext": _group_json(E), "order": E.order()}


def cmd_graph_kth(args) -> dict:
    from .graphalg import GraphKTheory
    from .sixterm import _group_json
    g = _load_graph(args.file)
    kt = _run(GraphKTheory, g, af=False)
    return {"K0": _group_json(kt.k0), "K1": _group_json(kt.k1),
            "unit_class": list(kt.vertex_classes([1] * g.n)),
            "vertex_classes": kt.vertex_classes.matrix.to_lists()}


def cmd_graph_ideals(args) -> dict:
    from .graphalg import hereditary_saturated_sets
    found = _run(hereditary_saturated_sets, _load_graph(args.file))
    return {"count": len(found),
            "nontrivial_count": sum(1 for d in found if d.nontrivial),
            "ideals": [{"vertices": list(d.vertices), "nontrivial": d.nontrivial}
                       for d in found]}


def cmd_graph_invariant(args) -> dict:
    # an invariant is exact by construction
    return {"invariant": _load_graph_invariant(args.file).to_json(),
            "validation": {"valid": True, "failures": []}}


def cmd_graph_compare(args) -> dict:
    from .sixterm import decide_iso_one_ideal
    return _compare_many(args, _load_graph_invariant, decide_iso_one_ideal)


def cmd_sixterm_check(args) -> dict:
    from .sixterm import NotExactError
    try:
        _load_sixterm(args.file)
    except CliError as exc:
        if not isinstance(exc.__cause__, NotExactError):
            raise
        return {"valid": False, "failures": exc.__cause__.failures}
    return {"valid": True, "failures": []}


def cmd_sixterm_compare(args) -> dict:
    from .sixterm import decide_iso_one_ideal
    homs: dict = {}  # one table per run: equal maps of a batch share one Smith form
    return _compare_many(args, lambda path: _load_sixterm(path, homs), decide_iso_one_ideal)


def cmd_subst_compare(args) -> dict:
    from .dimgroup import compare_substitution_invariants
    return _compare_many(args, _load_subst, compare_substitution_invariants)


def _sturmian_verdict(x, y) -> V.IsoVerdict:
    from .surd import sturmian_equivalent
    if sturmian_equivalent(x, y):
        return V.isomorphic()
    return V.not_isomorphic("the slopes lie in distinct integral Moebius orbits")


def cmd_sturmian_compare(args) -> dict:
    return _compare_many(args, _parse_surd_arg, _sturmian_verdict,
                         resolve_paths=False)


def _add_pair_args(p: argparse.ArgumentParser, noun: str) -> None:
    p.add_argument("first", nargs="?", metavar=noun.upper() + "1")
    p.add_argument("second", nargs="?", metavar=noun.upper() + "2")
    p.add_argument("--batch", metavar="MANIFEST",
                   help="JSON manifest of input pairs; results keep its order")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")

    top = argparse.ArgumentParser(
        prog="kclass",
        description="Exact K-theoretic classification invariants and comparisons.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", parents=[common],
                       help="Smith normal form of an integer matrix")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_snf)

    p = sub.add_parser("ext", parents=[common],
                       help="Ext group of two finitely generated abelian groups")
    p.add_argument("source", metavar="A_FILE")
    p.add_argument("target", metavar="B_FILE")
    p.set_defaults(fn=cmd_ext)

    graph = sub.add_parser("graph", help="graph algebra computations")
    gsub = graph.add_subparsers(dest="graph_command", required=True)
    p = gsub.add_parser("kth", parents=[common], help="K groups of a graph")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_graph_kth)
    p = gsub.add_parser("ideals", parents=[common],
                        help="hereditary saturated vertex sets")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_graph_ideals)
    p = gsub.add_parser("invariant", parents=[common],
                        help="six-term invariant of a graph with one proper ideal")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_graph_invariant)
    p = gsub.add_parser("compare", parents=[common],
                        help="decide stable isomorphism of two one-ideal graphs")
    _add_pair_args(p, "file")
    p.set_defaults(fn=cmd_graph_compare)

    six = sub.add_parser("sixterm", help="six-term invariant operations")
    ssub = six.add_subparsers(dest="sixterm_command", required=True)
    p = ssub.add_parser("check", parents=[common],
                        help="validate exactness of a stored invariant")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_sixterm_check)
    p = ssub.add_parser("compare", parents=[common],
                        help="decide isomorphism of two stored invariants")
    _add_pair_args(p, "file")
    p.set_defaults(fn=cmd_sixterm_compare)

    subst = sub.add_parser("subst", help="substitution invariant operations")
    usub = subst.add_subparsers(dest="subst_command", required=True)
    p = usub.add_parser("compare", parents=[common],
                        help="decide equivalence of two substitution invariants")
    _add_pair_args(p, "file")
    p.set_defaults(fn=cmd_subst_compare)

    sturm = sub.add_parser("sturmian", help="Sturmian slope comparison")
    tsub = sturm.add_subparsers(dest="sturmian_command", required=True)
    p = tsub.add_parser("compare", parents=[common],
                        help='compare slopes given as "(a+b*sqrt(d))/c" literals')
    _add_pair_args(p, "alpha")
    p.set_defaults(fn=cmd_sturmian_compare)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    try:
        text = (json.dumps(out, indent=2) if args.pretty
                else json.dumps(out, separators=(",", ":")))
    except ValueError:
        # an integer past the interpreter's digit limit, as on reading
        print(f"error: an output integer is past the {sys.get_int_max_str_digits():,}-digit "
              "limit on writing integers", file=sys.stderr)
        return UNSUPPORTED
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

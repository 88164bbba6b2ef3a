"""Command-line front end.

Subcommands: validate, components, separate, properties, closure, equiv,
factorize, check, numeric-check, intervene, sweep, export-dot.  Outputs
are plain text by default; ``--json`` switches to machine-readable JSON.
The ``MVRCG_MAX_N`` environment variable overrides the size caps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chain import validate_chain_graph
from .closure import AxiomSet, close
from .distributions import ci_holds, sample_latent_dag_distribution, verify_factorization
from .errors import CapExceeded, GraphError, ModelFormatError
from .factorization import factorize_component_dag, factorize_mvr, head_partition
from .graph import MixedGraph, induced_subgraph
from .intervention import intervene
from .properties import PROPERTY_KINDS, property_model
from .separation import (d_separated, global_model, m_connecting_walk,
                         m_separated, m_star_separated)
from .structure import canonical_dag, is_ancestral, is_maximal, marginal_model_equal
from .sweep import SweepConfig, config_hash, run_equivalence_sweep
from .triples import IndependenceModel


def _load(path: str) -> MixedGraph:
    return MixedGraph.from_file(path)


def _vertex_list(g: MixedGraph, arg: str | None) -> list[int]:
    if not arg:
        return []
    return [g.index_of(tok) for tok in arg.split(",") if tok]


def _labels(g: MixedGraph, vs) -> str:
    return ",".join(g.labels[v] for v in sorted(vs)) or "-"


def cmd_validate(args) -> int:
    try:
        g = _load(args.graph)
        dec = validate_chain_graph(g)
    except GraphError as exc:
        print(f"INVALID: {exc}")
        return 1
    if args.json:
        print(json.dumps({"valid": True,
                          "components": [sorted(c) for c in dec.components]}))
    else:
        print(f"VALID: {len(dec.components)} chain component(s)")
    return 0


def cmd_components(args) -> int:
    g = _load(args.graph)
    dec = validate_chain_graph(g)
    if args.json:
        print(json.dumps({
            "labels": list(g.labels),
            "components": [sorted(c) for c in dec.components],
            "component_dag": sorted(dec.component_dag),
            "vertex_order": list(dec.vertex_order),
        }))
        return 0
    for i, comp in enumerate(dec.components):
        print(f"T{i + 1}: {{{_labels(g, comp)}}}")
    for (a, b) in sorted(dec.component_dag):
        print(f"T{a + 1} -> T{b + 1}")
    print("vertex order:", " ".join(g.labels[v] for v in dec.vertex_order))
    return 0


def cmd_separate(args) -> int:
    g = _load(args.graph)
    x = _vertex_list(g, args.x)
    y = _vertex_list(g, args.y)
    z = _vertex_list(g, args.z)
    if args.method == "m":
        separated = m_separated(g, x, y, z)
    elif args.method == "mstar":
        separated = m_star_separated(g, x, y, z)
    else:
        separated = d_separated(g, x, y, z)
    if separated:
        print("SEPARATED")
        return 0
    walk = m_connecting_walk(g, x, y, z)
    witness = " ~ ".join(g.labels[v] for v in walk) if walk else "?"
    print(f"CONNECTED: {witness}")
    return 0


def cmd_properties(args) -> int:
    g = _load(args.graph)
    if args.kind == "p4" and args.p4_both:
        from .properties import pairwise_triples
        model = pairwise_triples(g, validate_chain_graph(g), "p4", p4_both=True)
    else:
        model = property_model(g, args.kind)
    obj = model.to_json_obj(labels=g.labels)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for t in model:
            print(t.format(g.labels))
    return 0


def _read_model(path: str) -> IndependenceModel:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # malformed JSON or text encoding
            raise ModelFormatError(f"{path} is not valid JSON: {exc}") from None
    return IndependenceModel.from_json_obj(obj)


def cmd_closure(args) -> int:
    model = _read_model(getattr(args, "in"))
    closed = close(model, AxiomSet.parse(args.axioms))
    obj = closed.to_json_obj()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
    else:
        print(json.dumps(obj, sort_keys=True))
    return 0


def cmd_equiv(args) -> int:
    ma = _read_model(args.a)
    mb = _read_model(args.b)
    ax = AxiomSet.parse(args.axioms)
    if ma.n != mb.n:
        raise CapExceeded("models over different ground sets")
    ca = close(ma, ax).triples
    cb = close(mb, ax).triples
    if ca == cb:
        print("EQUIVALENT")
        return 0
    sample = sorted(ca.symmetric_difference(cb),
                    key=lambda t: t.sort_key())[0]
    side = "first" if sample in ca else "second"
    print(f"DIFFER: {sample} only in closure of {side} model")
    return 1


def cmd_factorize(args) -> int:
    g = _load(args.graph)
    if args.style == "admg":
        scope = _vertex_list(g, args.set) if args.set else list(range(g.n))
        fact = head_partition(g, scope)
    else:
        dec = validate_chain_graph(g)
        fact = factorize_mvr(g, dec) if args.style == "mvr" else factorize_component_dag(g, dec)
    for f in fact.factors:
        print(f.format(g.labels))
    print(json.dumps({
        "style": args.style,
        "factors": [{"head": sorted(f.head), "tail": sorted(f.tail)} for f in fact.factors],
    }, sort_keys=True))
    return 0


def cmd_check(args) -> int:
    g = _load(args.graph)
    failures = 0

    def report(name, ok, witness=None):
        nonlocal failures
        if ok:
            print(f"{name}: PASS")
        else:
            failures += 1
            print(f"{name}: FAIL" + (f" ({witness})" if witness else ""))

    if args.ancestral:
        res = is_ancestral(g)
        report("ancestral", res.ok, res.witness)
    if args.maximal:
        report("maximal", is_maximal(g))
    if args.marginal_oracle:
        res = marginal_model_equal(g)
        report("marginal-oracle", res.ok, res.witness)
    return 1 if failures else 0


def cmd_numeric_check(args) -> int:
    g = _load(args.graph)
    dec = validate_chain_graph(g)
    cd = canonical_dag(g)
    model = global_model(g)
    mvr = factorize_mvr(g, dec)
    cdag = factorize_component_dag(g, dec)
    failures = 0
    print(f"seed  ci({len(model)} triples)  factor-mvr  factor-component-dag")
    for seed in range(args.seeds):
        table = sample_latent_dag_distribution(cd, seed)
        bad = sum(not ci_holds(table, t, args.eps) for t in model)
        ok_mvr = verify_factorization(table, mvr, args.eps)
        ok_cd = verify_factorization(table, cdag, args.eps)
        failures += bad + (not ok_mvr) + (not ok_cd)
        print(f"{seed:4d}  {len(model) - bad}/{len(model)}  "
              f"{'pass' if ok_mvr else 'FAIL'}  {'pass' if ok_cd else 'FAIL'}")
    return 1 if failures else 0


def cmd_intervene(args) -> int:
    g = _load(args.graph)
    result = intervene(g, _vertex_list(g, args.on))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(result.to_text())
    print(f"wrote {args.out}")
    return 0


def _resume_index(path: str, key: str) -> int:
    """Where a sweep under config hash ``key`` resumes, per its cursor."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except FileNotFoundError:
        return 0
    except ValueError as exc:  # malformed JSON or text encoding
        raise GraphError(f"cursor {path} is not valid JSON: {exc}") from None
    if not isinstance(state, dict) or not isinstance(state.get("next"), int):
        raise GraphError(f"cursor {path} has no integer 'next' entry")
    if state.get("config") != key:
        raise GraphError(f"cursor {path} belongs to another sweep configuration "
                         "or backend; delete it to start afresh")
    return state["next"]


def _write_cursor(path: str, state: dict) -> None:
    """Replace the cursor in one step, so a crash leaves the old one whole."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)


def cmd_sweep(args) -> int:
    config = SweepConfig(max_n=args.max_n, random_count=args.random,
                         random_n=args.random_n, seed=args.seed)
    key = config_hash(config)
    start = _resume_index(args.cursor, key) if args.cursor else 0
    out = open(args.out, "a", encoding="utf-8") if args.out else sys.stdout
    failures = 0
    count = 0
    try:
        for report in run_equivalence_sweep(config, start_index=start):
            count += 1
            if not report.ok:
                failures += 1
            print(report.to_json(), file=out)
            if args.cursor:
                _write_cursor(args.cursor, {"config": key, "next": report.index + 1})
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"swept {count} graph(s), {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


def cmd_export_dot(args) -> int:
    g = _load(args.graph)
    if args.set:
        g = induced_subgraph(g, _vertex_list(g, args.set))
    text = g.to_dot()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvrcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="chain-graph validation")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")

    p = add("components", cmd_components, help="chain components and orders")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")

    p = add("separate", cmd_separate, help="separation query")
    p.add_argument("--graph", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default="")
    p.add_argument("--method", choices=("m", "mstar", "d"), default="m")

    p = add("properties", cmd_properties, help="triple set of a Markov property")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=PROPERTY_KINDS, required=True)
    p.add_argument("--p4-both", action="store_true",
                   help="for --kind p4, also emit the same-component alternative")
    p.add_argument("--emit", help="write the triples as JSON to this file")
    p.add_argument("--json", action="store_true")

    p = add("closure", cmd_closure, help="close a triple set under axioms")
    p.add_argument("--in", required=True)
    p.add_argument("--axioms", choices=("sg", "g", "csg", "cg"), default="sg")
    p.add_argument("--out")

    p = add("equiv", cmd_equiv, help="closure equivalence of two triple sets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--axioms", choices=("sg", "g", "csg", "cg"), default="sg")

    p = add("factorize", cmd_factorize, help="factorization of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--style", choices=("mvr", "component-dag", "admg"), default="mvr")
    p.add_argument("--set", help="ancestrally closed scope for --style admg")

    p = add("check", cmd_check, help="structural checks")
    p.add_argument("--graph", required=True)
    p.add_argument("--ancestral", action="store_true")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--marginal-oracle", action="store_true")

    p = add("numeric-check", cmd_numeric_check, help="numeric verification")
    p.add_argument("--graph", required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--eps", type=float, default=1e-9)

    p = add("intervene", cmd_intervene, help="graph surgery")
    p.add_argument("--graph", required=True)
    p.add_argument("--on", required=True)
    p.add_argument("--out", required=True)

    p = add("sweep", cmd_sweep, help="batch verification sweep")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--random-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--cursor")

    p = add("export-dot", cmd_export_dot, help="DOT rendering")
    p.add_argument("--graph", required=True)
    p.add_argument("--set")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, OSError) as exc:  # OSError: a path missing or unwritable
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

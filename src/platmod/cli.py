"""Command-line surface: gen-network, adoption, rho-se, analytic, sweep,
validate-a1.

Reference defaults (mu=0.2, c=0.3, p=0.9, b_a-b_b=0.01) apply wherever a
flag is omitted. A --config JSON file may supply any flag by its long name
(dashes as underscores); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .adoption import run_adoption
from .analytic import FamilySpec, rho_se_linear_infinite
from .errors import InvalidParamsError, InvariantViolationError
from .experiments import (
    NetworkRecipe,
    SweepSpec,
    a1_csv_text,
    pgm_text,
    sweep,
    sweep_csv_text,
    validate_assumption1,
)
from .graph import Network, SbmSpec, gen_linear, gen_regular_tree, gen_sbm, gen_star_chain
from .model import ModelParams, Platform, UserProfile
from .regulation import strictest_effective_regulation


def _parse_range(text: str) -> tuple[float, float, int]:
    lo, hi, steps = text.split(":")
    return float(lo), float(hi), int(steps)


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the --config JSON document."""
    if not getattr(args, "config", None):
        return args
    doc = json.loads(Path(args.config).read_text())
    for key, value in doc.items():
        attr = key.replace("-", "_")
        current = getattr(args, attr, None)
        if current is None or current is False:  # unset flag or untouched switch
            setattr(args, attr, value)
    return args


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen_network(args) -> int:
    c = args.c if args.c is not None else 0.3
    if isinstance(c, str):
        vals = _parse_floats(c)
        c = vals[0] if len(vals) == 1 else vals
    if args.kind == "linear":
        if args.n is None:
            raise InvalidParamsError("linear generation needs --n")
        net = gen_linear(args.n, c=c)
    elif args.kind == "star-chain":
        if args.n_hubs is None or args.r is None:
            raise InvalidParamsError("star-chain generation needs --n-hubs and --r")
        net = gen_star_chain(args.n_hubs, args.r, c=c)
    elif args.kind == "tree":
        if args.r is None or args.depth is None:
            raise InvalidParamsError("tree generation needs --r and --depth")
        net = gen_regular_tree(args.r, args.depth, c=c)
    elif args.kind == "sbm":
        theta = json.loads(args.theta) if args.theta else None
        if theta is None:
            raise InvalidParamsError("sbm generation needs --theta (JSON matrix)")
        net = gen_sbm(
            SbmSpec(
                sizes=tuple(_parse_ints(args.sizes)),
                theta=tuple(tuple(float(x) for x in row) for row in theta),
                sender_community=args.sender_community or 0,
                seed=args.seed or 0,
                c_by_community=tuple(c) if isinstance(c, list) else c,
            )
        )
    else:
        raise InvalidParamsError(f"unknown kind {args.kind!r}")
    text = json.dumps(net.to_json_dict()) + "\n"
    _write_or_print(text, args.out)
    return 0


def _load_network(args) -> Network:
    net = Network.load(args.network)
    if getattr(args, "c", None) is not None:
        profiles = tuple(
            UserProfile(c=float(args.c), community=u.community) for u in net.profiles
        )
        net = Network(
            n_users=net.n_users,
            edges=net.edges,
            sender_links=net.sender_links,
            profiles=profiles,
            generator_meta=net.generator_meta,
        )
    return net


def _params_from(args) -> ModelParams:
    return ModelParams(
        mu=args.mu if args.mu is not None else 0.2,
        p=args.p if args.p is not None else 0.9,
        b_a=args.bA if args.bA is not None else 0.01,
        b_b=args.bB if args.bB is not None else 0.0,
        rho_a=getattr(args, "rhoA", None) if getattr(args, "rhoA", None) is not None else 1.0,
    )


def _cmd_adoption(args) -> int:
    net = _load_network(args)
    params = _params_from(args)
    sender = Platform(args.sender_platform)
    outcome = run_adoption(net, params, args.beta, sender)
    lines = []
    if args.trace:
        for t, switchers in enumerate(outcome.trace):
            lines.append(json.dumps({"iteration": t, "switchers": sorted(switchers)}))
    lines.append(
        json.dumps(
            {
                "final": [pl.value for pl in outcome.assignment.platforms()],
                "iterations": outcome.iterations,
            }
        )
    )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_rho_se(args) -> int:
    net = _load_network(args)
    params = _params_from(args)
    res = strictest_effective_regulation(net, params)
    doc = {
        "kind": res.kind.value,
        "u_star_b": res.u_star_b,
        "beta_star_b": res.beta_star_b,
        "sum_p_A": res.sum_p_a,
    }
    if res.rho_se is not None:
        doc["rho_se"] = res.rho_se
    _write_or_print(json.dumps(doc) + "\n", args.out)
    return 0


def _cmd_analytic(args) -> int:
    lo, hi, steps = _parse_range(args.p_range)
    b_b = args.bB if args.bB is not None else 0.0
    c = args.c if args.c is not None else 0.3
    lines = ["p,threshold_b_gap" + (",rho_se" if args.family == "linear-infinite" and args.bA is not None else "")]
    for p in np.linspace(lo, hi, steps):
        params = ModelParams(
            mu=args.mu if args.mu is not None else 0.2,
            p=float(p),
            b_a=args.bA if args.bA is not None else 0.01,
            b_b=b_b,
        )
        fam = FamilySpec(kind=args.family, params=params, c=c, n=args.n, r=args.r)
        from .analytic import threshold_rho0

        row = f"{float(p)!r},{float(threshold_rho0(fam))!r}"
        if args.family == "linear-infinite" and args.bA is not None:
            res = rho_se_linear_infinite(params, c)
            row += "," + ("" if res.rho_se is None else repr(res.rho_se))
        lines.append(row)
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    recipe_doc = json.loads(args.recipe) if args.recipe else None
    if recipe_doc is None:
        raise InvalidParamsError("sweep needs --recipe (JSON) or a config supplying it")
    if args.fast:
        p_range = args.p_range or "0.1:0.9:20"
        ba_range = args.ba_range or "0.0:0.2:20"
        samples = args.samples if args.samples is not None else 10
    else:
        p_range = args.p_range or "0.1:0.9:50"
        ba_range = args.ba_range or "0.0:0.2:50"
        samples = args.samples if args.samples is not None else (
            50 if recipe_doc.get("kind") == "sbm" else 1
        )
    spec = SweepSpec(
        p_range=_parse_range(p_range),
        ba_range=_parse_range(ba_range),
        recipe=NetworkRecipe(kind=recipe_doc["kind"], args=recipe_doc.get("args", {})),
        mu=args.mu if args.mu is not None else 0.2,
        b_b=args.bB if args.bB is not None else 0.0,
        samples=samples,
        base_seed=args.seed if args.seed is not None else 0,
    )
    grid = sweep(spec, workers=args.workers or 1)
    text = pgm_text(grid) if args.format == "pgm" else sweep_csv_text(grid)
    _write_or_print(text, args.out)
    return 0


def _cmd_validate_a1(args) -> int:
    thetas = _parse_floats(args.theta_jj) if args.theta_jj else [0.75, 0.0625]
    n_seeds = args.seeds if args.seeds is not None else 50
    base = args.seed if args.seed is not None else 0
    report = validate_assumption1(
        thetas,
        seeds=range(base, base + n_seeds),
        sizes=tuple(_parse_ints(args.sizes)) if args.sizes else (30, 30, 30),
        mu=args.mu if args.mu is not None else 0.2,
        c=args.c if args.c is not None else 0.3,
        p=args.p if args.p is not None else 0.7,
        b_a=args.bA if args.bA is not None else 0.002,
        b_b=args.bB if args.bB is not None else 0.0,
    )
    _write_or_print(a1_csv_text(report), args.out)
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file supplying any flag by long name")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=["csv", "pgm"], default="csv")
    sp.add_argument("--fast", action="store_true", help="reduced CI-scale profile")


def _add_params(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--bA", type=float, default=None)
    sp.add_argument("--bB", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="platmod")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-network", help="emit a network JSON document")
    _add_common(g)
    g.add_argument("--kind", required=True, choices=["linear", "star-chain", "tree", "sbm"])
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--n-hubs", dest="n_hubs", type=int, default=None)
    g.add_argument("--r", type=int, default=None)
    g.add_argument("--depth", type=int, default=None)
    g.add_argument("--sizes", default=None, help="comma list, e.g. 30,30,30")
    g.add_argument("--theta", default=None, help="JSON matrix")
    g.add_argument("--sender-community", dest="sender_community", type=int, default=None)
    g.add_argument("--c", default=None, help="scalar or comma list per user/community")
    g.set_defaults(func=_cmd_gen_network)

    a = sub.add_parser("adoption", help="run the synchronous adoption process")
    _add_common(a)
    _add_params(a)
    a.add_argument("--network", required=True)
    a.add_argument("--beta", type=float, required=True)
    a.add_argument("--sender-platform", dest="sender_platform", choices=["A", "B"], default="B")
    a.add_argument("--trace", action="store_true")
    a.add_argument("--c", type=float, default=None, help="override every user's c")
    a.set_defaults(func=_cmd_adoption)

    r = sub.add_parser("rho-se", help="strictest effective regulation on a network")
    _add_common(r)
    _add_params(r)
    r.add_argument("--network", required=True)
    r.add_argument("--c", type=float, default=None, help="override every user's c")
    r.set_defaults(func=_cmd_rho_se)

    an = sub.add_parser("analytic", help="closed-form family thresholds over a p range")
    _add_common(an)
    _add_params(an)
    an.add_argument("--family", required=True, choices=list(FamilySpec.KINDS))
    an.add_argument("--p-range", dest="p_range", required=True, help="lo:hi:steps")
    an.add_argument("--n", type=int, default=None)
    an.add_argument("--r", type=int, default=None)
    an.add_argument("--c", type=float, default=None)
    an.set_defaults(func=_cmd_analytic)

    sw = sub.add_parser("sweep", help="(p, b_a) heatmap of regulation outcomes")
    _add_common(sw)
    sw.add_argument("--recipe", default=None, help='JSON, e.g. {"kind":"linear","args":{"n":20}}')
    sw.add_argument("--p-range", dest="p_range", default=None, help="lo:hi:steps")
    sw.add_argument("--ba-range", dest="ba_range", default=None, help="lo:hi:steps")
    sw.add_argument("--mu", type=float, default=None)
    sw.add_argument("--bB", type=float, default=None)
    sw.add_argument("--samples", type=int, default=None)
    sw.add_argument("--workers", type=int, default=None)
    sw.set_defaults(func=_cmd_sweep)

    va = sub.add_parser("validate-a1", help="bloc-migration metric under a zero cap")
    _add_common(va)
    _add_params(va)
    va.add_argument("--theta-jj", dest="theta_jj", default=None, help="comma list of diagonals")
    va.add_argument("--seeds", type=int, default=None, help="number of seeds")
    va.add_argument("--sizes", default=None)
    va.add_argument("--c", type=float, default=None)
    va.set_defaults(func=_cmd_validate_a1)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.func(args)
    except InvalidParamsError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

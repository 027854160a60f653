"""Command-line surface: gen-network, adoption, rho-se, analytic, sweep,
validate-a1.

Each subcommand declares only the flags it reads, and its reference
defaults are the argparse defaults, so `platmod <command> --help` shows
them. A --config JSON file may supply any of the subcommand's flags by its
long name (dashes as underscores), checked against the flag's type and
choices; explicit flags win over the file. Malformed input exits 2 with one `invalid parameters: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .adoption import run_adoption
from .analytic import FamilySpec, rho_se_linear_infinite, threshold_rho0
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
from .graph import Network
from .model import ModelParams, Platform, UserProfile
from .regulation import strictest_effective_regulation

# sweep's (p range, b_A range, samples) when not given; both profiles sample
# a deterministic recipe once, since its samples would all be one network
_SWEEP_FULL = ("0.1:0.9:50", "0.0:0.2:50", 50)
_SWEEP_FAST = ("0.1:0.9:20", "0.0:0.2:20", 10)


def _parse_range(text, flag: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except (AttributeError, ValueError):
        raise InvalidParamsError(f"{flag} wants lo:hi:steps, got {text!r}") from None
    if steps < 1:
        raise InvalidParamsError(f"{flag} wants at least 1 step, got {text!r}")
    return lo, hi, steps


def _parse_list(value, convert, flag: str) -> list:
    """A comma list; a --config file may give a JSON list or number instead."""
    items = value.split(",") if isinstance(value, str) else np.atleast_1d(value).tolist()
    try:
        return [convert(x) for x in items if x != ""]
    except (TypeError, ValueError):
        raise InvalidParamsError(f"{flag} wants a comma list of numbers, got {value!r}") from None


def _parse_json(text, flag: str):
    try:
        return json.loads(text)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"{flag} is not JSON: {exc}") from None


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen_network(args) -> int:
    c = _parse_list(args.c, float, "--c")
    recipe = NetworkRecipe(
        args.kind.replace("-", "_"),
        {
            "n": args.n,
            "n_hubs": args.n_hubs,
            "r": args.r,
            "depth": args.depth,
            "sizes": None if args.sizes is None else _parse_list(args.sizes, int, "--sizes"),
            "theta": None if args.theta is None else _parse_json(args.theta, "--theta"),
            "sender_community": args.sender_community,
            "c": c[0] if len(c) == 1 else c,
        },
    )
    _write_or_print(json.dumps(recipe.build(args.seed).to_json_dict()) + "\n", args.out)
    return 0


def _load_network(args) -> Network:
    try:
        net = Network.load(args.network)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InvalidParamsError(f"cannot read --network {args.network}: {exc}") from None
    if args.c is not None:
        # each community's users share one profile, as in a generated network
        shared = [UserProfile(c=args.c, community=k) for k in range(net.n_communities)]
        profiles = tuple(map(shared.__getitem__, net.communities.tolist()))
        net = Network(net.n_users, net.edge_array, net.sender_links, profiles, net.generator_meta)
    return net


def _cmd_adoption(args) -> int:
    params = ModelParams(mu=args.mu, p=args.p, b_a=args.bA, b_b=args.bB)
    outcome = run_adoption(_load_network(args), params, args.beta, Platform(args.sender_platform))
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
    params = ModelParams(mu=args.mu, p=args.p, b_a=args.bA, b_b=args.bB)
    res = strictest_effective_regulation(_load_network(args), params)
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
    with_rho = args.family == "linear-infinite" and args.bA is not None
    lines = ["p,threshold_b_gap" + (",rho_se" if with_rho else "")]
    for p in np.linspace(*_parse_range(args.p_range, "--p-range")):
        # the threshold reads neither quality; b_A only enters the rho_se column
        params = ModelParams(mu=args.mu, p=float(p), b_a=args.bA or 0.0, b_b=args.bB)
        fam = FamilySpec(kind=args.family, params=params, c=args.c, n=args.n, r=args.r)
        row = f"{float(p)!r},{float(threshold_rho0(fam))!r}"
        if with_rho:
            res = rho_se_linear_infinite(params, args.c)
            row += "," + ("" if res.rho_se is None else repr(res.rho_se))
        lines.append(row)
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.recipe is None:
        raise InvalidParamsError("sweep needs --recipe (JSON) or a config supplying it")
    doc = _parse_json(args.recipe, "--recipe")
    if not (isinstance(doc, dict) and "kind" in doc and isinstance(doc.get("args", {}), dict)):
        raise InvalidParamsError('--recipe wants {"kind": ..., "args": {...}}')
    recipe = NetworkRecipe(kind=doc["kind"], args=doc.get("args", {}))
    p_range, ba_range, samples = _SWEEP_FAST if args.fast else _SWEEP_FULL
    if recipe.deterministic:
        samples = 1
    spec = SweepSpec(
        p_range=_parse_range(args.p_range or p_range, "--p-range"),
        ba_range=_parse_range(args.ba_range or ba_range, "--ba-range"),
        recipe=recipe,
        mu=args.mu,
        b_b=args.bB,
        samples=samples if args.samples is None else args.samples,
        base_seed=args.seed,
    )
    if args.workers < 1:
        raise InvalidParamsError(f"--workers wants at least 1, got {args.workers}")
    grid = sweep(spec, workers=args.workers)
    for cell in grid.cells:
        if cell.error:
            print(f"failed cell p={cell.p!r} b_A={cell.b_a!r}: {cell.error}", file=sys.stderr)
    text = pgm_text(grid) if args.format == "pgm" else sweep_csv_text(grid)
    _write_or_print(text, args.out)
    return 0


def _cmd_validate_a1(args) -> int:
    theta_jj = _parse_list(args.theta_jj, float, "--theta-jj")
    if not theta_jj:
        raise InvalidParamsError("--theta-jj wants at least one value")
    if args.seeds < 1:
        raise InvalidParamsError(f"--seeds wants at least 1, got {args.seeds}")
    report = validate_assumption1(
        theta_jj,
        seeds=range(args.seed, args.seed + args.seeds),
        sizes=tuple(_parse_list(args.sizes, int, "--sizes")),
        mu=args.mu,
        c=args.c,
        p=args.p,
        b_a=args.bA,
        b_b=args.bB,
    )
    _write_or_print(a1_csv_text(report), args.out)
    return 0


class _DefaultsHelp(argparse.ArgumentDefaultsHelpFormatter):
    """Show each flag's default, unless it is unset or a switch."""

    def _get_help_string(self, action):
        if action.default is None or isinstance(action.default, bool):
            return action.help
        return super()._get_help_string(action)


def _add_params(sp: argparse.ArgumentParser, p: float = 0.9, b_a: float = 0.01) -> None:
    sp.add_argument("--mu", type=float, default=0.2, help="prior of the surprising state")
    sp.add_argument("--p", type=float, default=p, help="diffusiveness per edge")
    sp.add_argument("--bA", type=float, default=b_a, help="quality per friend on A")
    sp.add_argument("--bB", type=float, default=0.0, help="quality per friend on B")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="platmod")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # no abbreviations: a flag a subcommand lacks must not become a
        # prefix of one it has (analytic --p would read as --p-range)
        sp = sub.add_parser(name, help=help, formatter_class=_DefaultsHelp, allow_abbrev=False)
        sp.add_argument("--config", help="JSON file supplying any flag below by long name")
        sp.add_argument("--out", help="write here instead of stdout")
        sp.set_defaults(func=func, parser=sp)
        return sp

    g = command("gen-network", _cmd_gen_network, "emit a network JSON document")
    g.add_argument("--kind", required=True, choices=["linear", "star-chain", "tree", "sbm"])
    g.add_argument("--n", type=int, help="linear: user count")
    g.add_argument("--n-hubs", type=int, help="star-chain: hub count")
    g.add_argument("--r", type=int, help="star-chain: users per hub; tree: branching")
    g.add_argument("--depth", type=int, help="tree: generations below the root")
    g.add_argument("--sizes", help="sbm: comma list of community sizes, e.g. 30,30,30")
    g.add_argument("--theta", help="sbm: JSON link-probability matrix")
    g.add_argument("--sender-community", type=int, default=0, help="sbm: the sender's community")
    g.add_argument("--seed", type=int, default=0, help="sbm: sampling seed")
    g.add_argument("--c", default=0.3, help="scalar or comma list per user (sbm: per community)")

    a = command("adoption", _cmd_adoption, "run the synchronous adoption process")
    _add_params(a)
    a.add_argument("--network", required=True, help="network JSON file")
    a.add_argument("--beta", type=float, required=True, help="the sender's deceit level")
    a.add_argument("--sender-platform", choices=["A", "B"], default="B", help="sender's platform")
    a.add_argument("--trace", action="store_true", help="print each round's switchers")
    a.add_argument("--c", type=float, help="override every user's c (default: the network's)")

    r = command("rho-se", _cmd_rho_se, "strictest effective regulation on a network")
    _add_params(r)
    r.add_argument("--network", required=True, help="network JSON file")
    r.add_argument("--c", type=float, help="override every user's c (default: the network's)")

    an = command("analytic", _cmd_analytic, "closed-form family thresholds over a p range")
    an.add_argument("--family", required=True, choices=list(FamilySpec.KINDS))
    an.add_argument("--p-range", required=True, help="lo:hi:steps")
    an.add_argument("--n", type=int, help="finite families: users, hubs or generations")
    an.add_argument("--r", type=int, help="star-chain and tree families: branching")
    an.add_argument("--c", type=float, default=0.3, help="every user's c")
    an.add_argument("--mu", type=float, default=0.2, help="prior of the surprising state")
    an.add_argument("--bA", type=float, help="linear-infinite: add a rho_se column at this b_A")
    an.add_argument("--bB", type=float, default=0.0, help="quality per friend on B")

    sw = command("sweep", _cmd_sweep, "(p, b_a) heatmap of regulation outcomes")
    full, fast = _SWEEP_FULL, _SWEEP_FAST
    sw.add_argument("--recipe", help='JSON, e.g. {"kind":"linear","args":{"n":20}}')
    sw.add_argument("--p-range", help=f"lo:hi:steps (default: {full[0]}; --fast: {fast[0]})")
    sw.add_argument("--ba-range", help=f"lo:hi:steps (default: {full[1]}; --fast: {fast[1]})")
    sw.add_argument("--samples", type=int, help=f"networks per cell (default: {full[2]} for sbm,"
                                                f" else 1; --fast: {fast[2]} for sbm, else 1)")
    sw.add_argument("--fast", action="store_true", help="reduced CI-scale profile")
    sw.add_argument("--seed", type=int, default=0, help="seed of the first sample")
    sw.add_argument("--workers", type=int, default=1, help="worker processes")
    sw.add_argument("--mu", type=float, default=0.2, help="prior of the surprising state")
    sw.add_argument("--bB", type=float, default=0.0, help="quality per friend on B")
    sw.add_argument("--format", choices=["csv", "pgm"], default="csv", help="output format")

    va = command("validate-a1", _cmd_validate_a1, "bloc-migration metric under a zero cap")
    _add_params(va, p=0.7, b_a=0.002)
    va.add_argument("--theta-jj", default="0.75,0.0625", help="comma list of theta_JJ values")
    va.add_argument("--seeds", type=int, default=50, help="number of seeds")
    va.add_argument("--seed", type=int, default=0, help="first seed")
    va.add_argument("--sizes", default="30,30,30", help="comma list of community sizes")
    va.add_argument("--c", type=float, default=0.3, help="every user's c")
    return ap


def _config_defaults(args: argparse.Namespace) -> dict:
    """The --config document as defaults for the chosen subcommand's flags."""
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidParamsError(f"cannot read --config {args.config}: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParamsError("--config wants a JSON object")
    defaults = {key.replace("-", "_"): value for key, value in doc.items()}
    flags = set(vars(args)) - {"command", "config", "func", "parser"}
    unknown = sorted(set(defaults) - flags)
    if unknown:
        raise InvalidParamsError(f"{args.command} has no flag for --config keys {unknown}")
    actions = {action.dest: action for action in args.parser._actions}
    return {key: _config_value(actions[key], value) for key, value in defaults.items()}


def _config_value(action: argparse.Action, value):
    """A --config value checked as argparse checks the flag's own text, since
    argparse converts only string defaults: a switch wants a JSON boolean, a
    typed flag a number or string its type parses, and choices are kept."""
    flag = f"--config {action.option_strings[0]}"
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise InvalidParamsError(f"{flag} wants true or false, got {value!r}")
        return value
    if action.type is not None:
        wrong = InvalidParamsError(f"{flag} wants {action.type.__name__}, got {value!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise wrong
        try:
            # through its text, so a float never truncates to an int
            value = action.type(str(value))
        except ValueError:
            raise wrong from None
    if action.choices is not None and value not in action.choices:
        raise InvalidParamsError(f"{flag} wants one of {list(action.choices)}, got {value!r}")
    return value


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**_config_defaults(args))
            args = ap.parse_args(argv)
        return args.func(args)
    except InvalidParamsError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

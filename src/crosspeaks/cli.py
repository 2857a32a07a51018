"""Command-line surface: build families, verify invariants, sample bodies,
play query games, print bound reports, probe halfspace gaps.

Exit codes: 0 ok, 2 parameter error (argparse uses the same code; an output
file that cannot be written counts too), 3 verification failure, 4 resource
budget exceeded (also a request too large to allocate).  Every command that
involves randomness takes --seed; identical flags and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from .errors import (BudgetExceededError, CrosspeaksError, ParameterError,
                     VerificationError)
from .family import build_product_family, exact_distance, read_manifest, write_manifest
from .geometry import label_text
from .halfspace import halfspace_discrepancy
from .harness import (GameConfig, MLConsistencyLearner, RandomGuessLearner,
                      choose_parameters, game_result_row, query_lower_bound,
                      run_game, success_upper_bound, write_results_csv)
from .oracles import continuous_membership, continuous_random_batch, discrete_random_batch
from .verify import DEFAULT_SEED, run_verification


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated indices")
    return int(parts[0]), int(parts[1])


def _point(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(c) for c in text.split(","))


def _load_family(path: str):
    try:
        return read_manifest(path)
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8 text
        raise ParameterError(f"cannot read manifest {path}: {exc}") from exc


@contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_family(args) -> int:
    family = build_product_family(args.n, args.k)
    with _writing(args.out):
        write_manifest(family, args.out)
    print(f"wrote {args.out}: n={family.n} k={family.k} bodies={family.size} "
          f"inner={family.inner.size} volume={family.body(0).volume()}")
    return 0


def _cmd_verify(args) -> int:
    family = _load_family(args.manifest) if args.manifest else None
    results = run_verification(family, seed=args.seed)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"verification stopped at {failed[0].name}", file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def _cmd_sample(args) -> int:
    family = _load_family(args.manifest)
    body = family.body(args.body_index)
    rng = np.random.default_rng(args.seed)
    if args.format == "points":
        for row in continuous_random_batch(body, args.count, rng):
            print(",".join(repr(float(x)) for x in row))
    else:
        for row in discrete_random_batch(body, args.count, rng):
            print(",".join(label_text(family.n, v) for v in row.tolist()))
    return 0


def _cmd_member(args) -> int:
    family = _load_family(args.manifest)
    body = family.body(args.body_index)
    if len(args.point) != body.dimension:
        raise ParameterError(
            f"point has {len(args.point)} coordinates, body lives in "
            f"dimension {body.dimension}")
    print("true" if continuous_membership(body, args.point) else "false")
    return 0


def _cmd_game(args) -> int:
    family = _load_family(args.manifest)
    config = GameConfig(family=family, query_budget=args.q, epsilon=args.epsilon,
                        trials=args.trials, seed=args.seed)
    learner = (MLConsistencyLearner(policy="random") if args.learner == "ml"
               else RandomGuessLearner())
    if args.csv:  # an unwritable path fails here, before any trial is played
        with _writing(args.csv):
            open(args.csv, "w").close()
    stats = run_game(config, learner)
    bound = success_upper_bound(family.n, family.k, args.q, family.size,
                                args.epsilon)
    print(f"trials={stats.trials} successes={stats.successes} "
          f"exact={stats.exact_identifications} "
          f"violations={stats.budget_violations}")
    print(f"success_rate={stats.success_rate!r} "
          f"confidence_radius={stats.confidence_radius!r} "
          f"upper_bound={float(bound)!r}")
    if args.csv:
        with _writing(args.csv):
            write_results_csv(args.csv, [game_result_row(config, stats)])
        print(f"wrote {args.csv}")
    return 0


def _cmd_bounds(args) -> int:
    choice = choose_parameters(args.d, args.epsilon)
    qb = query_lower_bound(args.d, args.epsilon, args.delta)  # may fail: print nothing yet
    print(f"d={choice.d} epsilon={choice.epsilon}")
    print(f"n={choice.n} k={choice.k} sqrt(d/L)={choice.sqrt_ratio!r}")
    print(f"separation_satisfied={choice.separation_satisfied}")
    print(f"delta={qb.delta} regime={qb.regime}")
    print(f"q_floor={qb.q_floor}")
    print(f"family_bound_log2={qb.family_bound_log2!r} "
          f"asymptotic_log2={qb.asymptotic_log2!r}")
    return 0


def _cmd_halfspace_gap(args) -> int:
    family = _load_family(args.manifest)
    i, j = args.pair
    a, b = family.body(i), family.body(j)
    est = halfspace_discrepancy(a, b, dirs=args.dirs, samples=args.samples,
                                rng=args.seed)
    print(f"pair=({i},{j}) exact_distance={exact_distance(a, b)}")
    print(f"ks_estimate={est.estimate!r} direction={est.direction_kind} "
          f"directions={est.directions}")
    print(f"noise_floor={est.noise_floor!r} samples={est.samples}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosspeaks",
        description="peaked cross-polytope families and query-game experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-family", help="build a family and write its manifest")
    p.add_argument("--n", type=int, required=True, help="factor dimension")
    p.add_argument("--k", type=int, required=True, help="number of factors")
    p.add_argument("--out", required=True, help="manifest path to write")
    p.set_defaults(fn=_cmd_gen_family)

    p = sub.add_parser("verify", help="run every invariant check")
    p.add_argument("--manifest", help="family manifest (default: built-in 3x4)")
    p.add_argument("--seed", type=_natural, default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sample", help="draw points or region labels from a body")
    p.add_argument("--manifest", required=True)
    p.add_argument("--body-index", type=int, required=True)
    p.add_argument("--count", type=_natural, default=10)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--format", choices=("points", "labels"), default="points")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("member", help="exact membership test of a rational point")
    p.add_argument("--manifest", required=True)
    p.add_argument("--body-index", type=int, required=True)
    p.add_argument("--point", type=_point, required=True,
                   help="comma-separated rationals, e.g. 1/2,0,0,1/4,0,0")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("game", help="play the hidden-body query game")
    p.add_argument("--manifest", required=True)
    p.add_argument("--q", type=int, required=True, help="query budget per trial")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--learner", choices=("ml", "random"), default="ml")
    p.add_argument("--csv", help="write a results row to this CSV file")
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("bounds", help="parameter split and query lower bound")
    p.add_argument("--d", type=int, required=True, help="total dimension (power of two)")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 2))
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("halfspace-gap",
                       help="exact distance vs halfspace-probe estimate for a pair")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pair", type=_pair, required=True, help="i,j body indices")
    p.add_argument("--dirs", type=int, default=64, help="random probe directions")
    p.add_argument("--samples", type=int, default=4096, help="samples per body")
    p.add_argument("--seed", type=_natural, default=0)
    p.set_defaults(fn=_cmd_halfspace_gap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"budget exceeded: out of memory ({exc})", file=sys.stderr)
        return 4
    except CrosspeaksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

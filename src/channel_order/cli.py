"""Command-line front end.

Subcommands: check-degraded, check-less-noisy, delta-star, region, constants,
dirichlet-check, group-validate.  Verdicts are printed as JSON (floats rounded
to 9 significant digits, then rendered with Python's shortest-roundtrip repr;
infinities appear as the string "inf", and a NaN is an error, never printed),
bulk region data as CSV.  Exit codes:
0 dominates / holds / valid, 1 fails / violated / invalid, 2 input or
parameter error, 3 undetermined (sampled evidence only, when W is singular or
not square).  Runs with identical arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import channels, dirichlet, groups, preorders, symdom

EXIT_DOMINATES = 0
EXIT_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_UNDETERMINED = 3


def _round_floats(obj):
    """Round floats to 9 significant digits for stable, readable JSON."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(format(obj, ".9g"))
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload) -> None:
    # a bare NaN is not JSON: raise ValueError (exit 2) instead of printing it
    print(json.dumps(_round_floats(payload), sort_keys=True, allow_nan=False))


def _load_channel(path: str) -> channels.Channel:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return channels.channel_from_json(text)
    return channels.channel_from_csv(text)


def _load_pmf(path: str) -> channels.Pmf:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return channels.pmf_from_json(text)
    return channels.pmf_from_csv(text)


def _witness_payload(witness) -> dict:
    if isinstance(witness, preorders.LoewnerWitness):
        return {
            "kind": "loewner",
            "eigenvalue": witness.eigenvalue,
            "direction": witness.direction,
            "pmf": witness.pmf,
        }
    if isinstance(witness, preorders.DivergencePairWitness):
        return {
            "kind": "divergence_pair",
            "divergence": witness.divergence,
            "p": witness.p,
            "q": witness.q,
            "dominating_side": witness.lhs,
            "dominated_side": witness.rhs,
        }
    return {"kind": "detail", "detail": witness}


def _certificate_payload(certificate) -> dict:
    if isinstance(certificate, dict):
        return certificate
    return {"kind": "note", "note": str(certificate)}


def _verdict_exit(verdict: preorders.DominationVerdict) -> int:
    payload = {"status": verdict.status.value, "samples_used": verdict.samples_used}
    if verdict.certificate is not None:
        payload["certificate"] = _certificate_payload(verdict.certificate)
    if verdict.witness is not None:
        payload["witness"] = _witness_payload(verdict.witness)
    _emit(payload)
    if verdict.status is preorders.Status.DOMINATES:
        return EXIT_DOMINATES
    if verdict.status is preorders.Status.FAILS:
        return EXIT_FAILS
    return EXIT_UNDETERMINED


def _cmd_check_degraded(args) -> int:
    if args.additive:
        w, v = _load_pmf(args.w), _load_pmf(args.v)
        if args.group:
            group = groups.group_from_json(Path(args.group).read_text())
        else:
            group = groups.cyclic_group(len(w))
        verdict = preorders.is_degraded_additive(group, w, v)
    else:
        verdict = preorders.is_degraded(_load_channel(args.w), _load_channel(args.v))
    return _verdict_exit(verdict)


def _cmd_check_less_noisy(args) -> int:
    # checked before dispatch, so the exact test does not ignore a bad budget
    if args.samples < 0:
        raise ValueError(f"samples must be nonnegative, got {args.samples}")
    w, v = _load_channel(args.w), _load_channel(args.v)
    try:
        verdict = preorders.less_noisy_exact(w, v)
    except preorders.SingularChannelError:
        verdict = preorders.less_noisy_sampled(w, v, samples=args.samples, seed=args.seed)
    return _verdict_exit(verdict)


def _cmd_delta_star(args) -> int:
    result = symdom.delta_star(_load_channel(args.v), tol=args.tol)
    _emit(
        {
            "lower": result.lower,
            "upper": result.upper,
            "iterations": result.iterations,
            "bracket_width": result.bracket_width,
            "method": "exact",  # every probe is the exact vertex test
        }
    )
    return EXIT_DOMINATES


def _cmd_region(args) -> int:
    # classify into memory first, so rejected arguments leave --out untouched
    buffer = io.StringIO()
    labels = symdom.region_sample(args.q, args.delta, args.grid, out=buffer)
    Path(args.out).write_text(buffer.getvalue())
    _emit({"points": len(labels), "counts": symdom.region_label_counts(labels), "out": args.out})
    return EXIT_DOMINATES


def _cmd_constants(args) -> int:
    q, d = args.q, args.delta
    boundary = (q - 1) / q
    rho = abs(channels.symmetric_eigenvalue(q, d))
    payload = {
        "lsi": dirichlet.lsi_constant_symmetric(q, d),
        "discrete_lsi": dirichlet.discrete_lsi_constant_symmetric(q, d),
        "rho_max": rho,
        "eta_kl_lower": rho**2,
        "eta_kl_upper": rho,
        "eigenvalue": channels.symmetric_eigenvalue(q, d),
        "tau_inverse": (
            channels.symmetric_inverse_param(q, d) if abs(d - boundary) > 1e-12 else None
        ),
        "tau_extremal": symdom.extremal_degraded_tau(q, d),
        "gamma_ln": symdom.ln_gamma_bound(q, d) if d <= boundary + 1e-12 else None,
    }
    _emit(payload)
    return EXIT_DOMINATES


def _cmd_dirichlet_check(args) -> int:
    ok = dirichlet.dirichlet_domination_check(
        _load_channel(args.w), _load_channel(args.v), kind=args.kind
    )
    _emit({"kind": args.kind, "holds": bool(ok)})
    return EXIT_DOMINATES if ok else EXIT_FAILS


def _cmd_group_validate(args) -> int:
    try:
        group = groups.group_from_json(Path(args.table).read_text())
    except groups.GroupTableError as err:
        _emit({"valid": False, "code": err.code, "message": str(err)})
        return EXIT_FAILS
    _emit({"valid": True, "order": group.order})
    return EXIT_DOMINATES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channel-order",
        description="Decide and certify noisiness orders between finite-alphabet channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-degraded", help="is V a degraded version of W?")
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--additive", action="store_true", help="inputs are noise pmfs")
    p.add_argument("--group", help="JSON Cayley table (default: cyclic)")
    p.set_defaults(func=_cmd_check_degraded)

    p = sub.add_parser("check-less-noisy", help="is W less noisy than V?")
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_less_noisy)

    p = sub.add_parser("delta-star", help="largest symmetric parameter dominating V")
    p.add_argument("--v", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_delta_star)

    p = sub.add_parser("region", help="classify the ternary noise simplex")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("constants", help="closed-form constants of a symmetric channel")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("dirichlet-check", help="pointwise Dirichlet-form domination")
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--kind", choices=("discrete", "continuous", "standard"), required=True)
    p.set_defaults(func=_cmd_dirichlet_check)

    p = sub.add_parser("group-validate", help="validate a Cayley table file")
    p.add_argument("table")
    p.set_defaults(func=_cmd_group_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except groups.GroupTableError as err:
        print(json.dumps({"error": str(err), "code": err.code}), file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

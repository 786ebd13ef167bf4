"""Command-line front end.

Subcommands: ``bounds`` (certified intervals at chosen exponents),
``classify`` (the rule ``analyze`` applies and every recognizer's verdict),
``profile`` (grid profile as CSV), ``generate`` (write structured example
matrices), and ``oracle`` (brute-force search for small real matrices).
Exit codes: 0 on success, 2 for argument/parse/validation problems, 3 for
file-system errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from .core import Exponent, as_exponent, as_square
from .estimator import analyze, oracle_search
from .interp import la_envelope, la_report_from_anchors, profile
from .matio import parse_complex_token, read_matrix, write_matrix
from .structured import (
    Circulant,
    HankelMod,
    TensorRankOne,
    as_circulant,
    as_hankel,
    as_tensor_rank_one,
    as_unitary_permutation,
    classify_circulant_la,
    densify,
    direct_sum,
    doubly_balanced_norm,
    magic3,
    magic4,
    random_unitary_permutation,
)

__all__ = ["main"]


def _p_token(tok: str) -> Exponent:
    tok = tok.strip()
    try:
        return as_exponent(tok if tok == "inf" else float(tok))
    except ValueError as exc:
        raise ValueError(f"bad exponent {tok!r}: {exc}") from exc


def _p_json(p: Exponent):
    return "inf" if p.is_inf else p.value


def _cmd_bounds(args) -> int:
    ps = [_p_token(tok) for tok in args.p.split(",")]
    analysis = analyze(as_square(read_matrix(args.matrix)))
    for p, b in zip(ps, analysis.bounds(ps, seed=args.seed)):
        print(json.dumps({
            "p": _p_json(p),
            "lower": b.lower,
            "upper": b.upper,
            "lower_provenance": b.lower_provenance,
            "upper_provenance": b.upper_provenance,
        }))
    return 0


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _cmd_classify(args) -> int:
    M = as_square(read_matrix(args.matrix))
    analysis = analyze(M)
    anchors = analysis.anchors
    la = la_report_from_anchors(anchors)
    balanced = doubly_balanced_norm(M)
    circ = as_circulant(M)
    report = {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "rule": analysis.rule,
        "doubly_balanced": balanced is not None,
        "alpha": balanced,
        "circulant": circ is not None,
        "circulant_la": None,
        "witness": None,
        "hankel": as_hankel(M) is not None,
        "tensor_rank_one": as_tensor_rank_one(M) is not None,
        "unitary_permutation": as_unitary_permutation(M) is not None,
        "log_affine": la.is_la,
        "degenerate": la.degenerate,
        "la_ratio": la.ratio,
        "anchors": {"one": anchors.n1, "two": anchors.n2, "inf": anchors.ninf},
    }
    if circ is not None:
        w = classify_circulant_la(circ)
        report["circulant_la"] = w.is_la
        if w.is_la:
            report["witness"] = {
                "beta": _complex_pair(w.beta),
                "omega": _complex_pair(w.omega),
                "norm": w.norm,
            }
    print(json.dumps(report))
    return 0


def _cmd_profile(args) -> int:
    M = as_square(read_matrix(args.matrix))
    grid = None
    if args.grid != "default":
        grid = sorted({_p_token(t) for t in args.grid.split(",")})
    prof = profile(M, grid=grid, seed=args.seed)
    anchors = prof.analysis.anchors
    lines = [
        f"# log_convex={prof.log_convex} unimodal={prof.unimodal} p0={prof.p0_estimate}",
        "p,one_over_p,lower,upper,envelope",
    ]
    for b in prof.bounds:
        lines.append(",".join([
            str(b.p),
            repr(b.p.reciprocal),
            repr(b.lower),
            repr(b.upper),
            repr(la_envelope(anchors, b.p)),
        ]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_vector(tokens: str) -> np.ndarray:
    return np.array([parse_complex_token(t) for t in tokens.split(",")])


def _parse_core(tokens: str) -> np.ndarray:
    rows = [[parse_complex_token(t) for t in row.split(",")]
            for row in tokens.split(";")]
    return np.array(rows)


def _cmd_generate(args) -> int:
    fam = args.family
    if fam == "circulant" or fam == "hankel":
        if not args.coeffs:
            raise ValueError(f"{fam} needs --coeffs")
        coeffs = _parse_vector(args.coeffs)
        M = densify(Circulant(coeffs) if fam == "circulant" else HankelMod(coeffs))
    elif fam == "unitary-permutation":
        if args.size < 1:
            raise ValueError("--size must be positive")
        M = densify(random_unitary_permutation(args.size, seed=args.seed))
    elif fam == "magic3":
        M = magic3()
    elif fam == "magic4":
        M = magic4()
    elif fam == "tensor":
        if not (args.alpha and args.beta and args.core):
            raise ValueError("tensor needs --alpha, --beta and --core")
        M = densify(TensorRankOne(_parse_vector(args.alpha),
                                  _parse_vector(args.beta),
                                  _parse_core(args.core)))
    else:  # "direct-sum", the last of the families argparse accepts
        if not args.parts:
            raise ValueError("direct-sum needs --parts")
        M = direct_sum([read_matrix(p) for p in args.parts.split(",")])
    write_matrix(args.out, M)
    return 0


def _cmd_oracle(args) -> int:
    M = as_square(read_matrix(args.matrix))
    p = _p_token(args.p)
    value, angles, _ = oracle_search(M, p, resolution=args.resolution)
    print(json.dumps({"p": _p_json(p), "value": value, "angles": list(angles)}))
    return 0


@lru_cache(maxsize=1)  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opnorm",
        description="Certified operator p-norm bounds for complex matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="certified lower/upper bounds at chosen exponents")
    b.add_argument("matrix", help="matrix file (.json or .csv)")
    b.add_argument("--p", default="1,2,inf", help="comma-separated exponents, e.g. 1,1.5,2,inf")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=_cmd_bounds)

    c = sub.add_parser("classify", help="the rule analyze applies and each recognizer's verdict")
    c.add_argument("matrix")
    c.set_defaults(func=_cmd_classify)

    pr = sub.add_parser("profile", help="bounds over an exponent grid, as CSV")
    pr.add_argument("matrix")
    pr.add_argument("--grid", default="default",
                    help='"default" or comma-separated exponents including 1, 2 and inf')
    pr.add_argument("--out", default=None, help="output CSV path (stdout when omitted)")
    pr.add_argument("--seed", type=int, default=0)
    pr.set_defaults(func=_cmd_profile)

    g = sub.add_parser("generate", help="write a structured example matrix")
    g.add_argument("family", choices=["circulant", "hankel", "unitary-permutation",
                                      "magic3", "magic4", "tensor", "direct-sum"])
    g.add_argument("--coeffs", help="complex tokens, e.g. 1,2+1i,-3")
    g.add_argument("--size", type=int, default=4)
    g.add_argument("--alpha", help="left tensor factor entries")
    g.add_argument("--beta", help="right tensor factor entries")
    g.add_argument("--core", help="core rows split by ;, e.g. 1,3;3,1")
    g.add_argument("--parts", help="comma-separated matrix files to direct-sum")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output matrix path (.json or .csv)")
    g.set_defaults(func=_cmd_generate)

    o = sub.add_parser("oracle", help="brute-force norm search (real 2x2/3x3 only)")
    o.add_argument("matrix")
    o.add_argument("--p", default="2", help="single exponent")
    o.add_argument("--resolution", type=int, default=360)
    o.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # MatrixParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

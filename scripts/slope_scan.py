#!/usr/bin/env python3
"""Tabulate specialized Fitting exponents down a deformation tower.

For every level j in a window the elementary module is pushed down the
tower at one prime and the exponent m_j is printed next to the linear
prediction slope*j. A second section repeats the slope fit for each
prime the module is supported on, which is a quick way to see which
contributions grow and which stay bounded.

Examples:
    python3 scripts/slope_scan.py
    python3 scripts/slope_scan.py --prime 3,1 --index 1 --lo 4 --hi 14
    python3 scripts/slope_scan.py --module my_module.json
"""

import argparse
import json
import sys
from functools import partial

from iwafitt.errors import (InputError, SupportCollision, parse_decimal, read_decimal,
                            read_int, read_obj)
from iwafitt.ideals import (
    ElementaryLambdaModule,
    HeightOnePrime,
    elementary_fitting_class,
    slope_report,
    specialize_elementary,
)

DEFAULT_MODULE = {
    "p": 3,
    "components": [
        {"prime": "PI", "exponents": [1, 2]},
        {"prime": {"dist": [0, 1]}, "exponents": [1]},
        {"prime": {"dist": [3, 1]}, "exponents": [2]},
    ],
}


def decimal(text: str, lo: int | None = None) -> int:
    """An integer flag >= lo written as str writes it; "+3" and "03" are
    refused."""
    try:
        return read_int(read_decimal(text, "flag"), "flag", lo)
    except InputError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


def parse_prime(text: str, p: int) -> HeightOnePrime:
    """"PI", a {"dist": [...]} object, or coefficients c0,...,1, each a
    canonical decimal; ValueError or InputError otherwise."""
    if text == "PI":
        return HeightOnePrime.pi(p)
    if text.lstrip().startswith("{"):
        return HeightOnePrime.from_dict(json.loads(text), p)
    coeffs = [parse_decimal(c) for c in text.split(",")]
    if None in coeffs:
        raise ValueError(f"coefficients must be canonical decimal integers, got {text!r}")
    return HeightOnePrime.polynomial(p, coeffs)


def load_module(arg) -> ElementaryLambdaModule:
    """The --module flag, inline JSON or a file path; OSError, ValueError
    or InputError when it cannot be read."""
    if arg is None:
        doc = DEFAULT_MODULE
    elif arg.lstrip().startswith("{"):
        doc = json.loads(arg)
    else:
        with open(arg, encoding="utf-8") as fh:
            doc = json.load(fh)
    inner = read_obj(doc, "$").get("module", doc)  # accept the CLI's wrapped layout too
    return ElementaryLambdaModule.from_dict(inner), inner.get("p", doc.get("p", 3))


def scan(E, P, i, window):
    predicted = elementary_fitting_class(E, i).exponent_at(P)
    print(f"tower at {P.label()}, index i={i}, predicted slope {predicted}")
    print(f"{'j':>4} {'tower':>12} {'m_j':>6} {'slope*j':>8} {'dev':>5}")
    for j in window:
        try:
            spec = specialize_elementary(E, P, j, i)
        except SupportCollision as exc:
            print(f"{j:>4} {'collision':>12}   ({exc})")
            continue
        print(
            f"{j:>4} {spec.tower:>12} {spec.m:>6} {predicted * j:>8}"
            f" {spec.m - predicted * j:>5}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--module", help="module JSON, inline or a file path")
    ap.add_argument("--prime", help='tower prime: "PI" or coefficients c0,...,1')
    ap.add_argument("--index", type=partial(decimal, lo=0), default=0,
                    help="Fitting index (default 0)")
    ap.add_argument("--lo", type=partial(decimal, lo=1), default=3,
                    help="first level (default 3)")
    ap.add_argument("--hi", type=decimal, default=10, help="last level (default 10)")
    args = ap.parse_args(argv)

    try:
        E, p = load_module(args.module)
    except (OSError, ValueError, InputError) as exc:
        ap.error(f"argument --module: {exc}")
    if args.hi < args.lo:
        ap.error(f"argument --hi: must be at least --lo {args.lo}")
    window = range(args.lo, args.hi + 1)

    if args.prime is not None:
        try:
            P = parse_prime(args.prime, p)
        except (ValueError, InputError) as exc:
            ap.error(f"argument --prime: {exc}")
        scan(E, P, args.index, window)
        return 0

    # No prime given: scan every prime in the module's support.
    for n, (P, _) in enumerate(E.components):
        if n:
            print()
        if P.degree > 1:
            print(f"tower at {P.label()}: skipped, no tower above degree 1")
            continue
        scan(E, P, args.index, window)
        try:
            rep = slope_report(E, P, args.index, window)
        except SupportCollision:
            print("  (collision inside the window, no slope fit)")
            continue
        ok = "ok" if rep["stabilized_slope"] == rep["predicted_slope"] else "MISMATCH"
        print(
            f"  stabilized slope {rep['stabilized_slope']}"
            f" vs predicted {rep['predicted_slope']} [{ok}],"
            f" max deviation {rep['deviation']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

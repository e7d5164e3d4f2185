#!/usr/bin/env python3
"""Batch-run seeded simulations and tally the verification laws.

Runs the simulator on one shape for a range of consecutive seeds, then
checks every run against the closed-form stratum predictions, the
kappa-to-lambda bridge, and the reciprocity law. Prints the delta
histogram, per-stratum agreement counts, and any failing seeds; on a
pool deep enough for the shape the failure list should be empty.

Examples:
    python3 scripts/sim_stats.py --shape 0:2,1 --k 6 --runs 200
    python3 scripts/sim_stats.py --shape 1:3 --k 9 --nongeneric 2
"""

import argparse
import sys
from collections import Counter
from functools import partial

from iwafitt.errors import InputError, read_decimal, read_int
from iwafitt.euler import (
    AdmissiblePrimeLabel,
    SelmerShape,
    reciprocity_check,
    simulate_system,
    verify_artkappa,
    verify_artsel,
)

POOL_IDS = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
)


def decimal(text: str, lo: int | None = None, hi: int | None = None) -> int:
    """An integer flag in [lo, hi] written as str writes it; "+3" and "03"
    are refused."""
    try:
        return read_int(read_decimal(text, "flag"), "flag", lo, hi)
    except InputError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


def shape_flag(text: str) -> SelmerShape:
    try:
        return SelmerShape.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_pool(size, k_ell, nongeneric):
    return tuple(
        AdmissiblePrimeLabel(ident, k_ell=k_ell, generic=(n >= nongeneric))
        for n, ident in enumerate(POOL_IDS[:size])
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", type=shape_flag, default="0:2,1",
                    help='shape "e:d0,d1,..." (default 0:2,1)')
    ap.add_argument("--k", type=partial(decimal, lo=1), default=6,
                    help="ambient exponent (default 6)")
    ap.add_argument("--runs", type=partial(decimal, lo=1), default=100,
                    help="number of seeds (default 100)")
    ap.add_argument("--seed0", type=decimal, default=0, help="first seed (default 0)")
    ap.add_argument("--pool-size", type=partial(decimal, lo=1, hi=len(POOL_IDS)),
                    help="labels in the pool (default: depth-driven)")
    ap.add_argument("--k-ell", type=partial(decimal, lo=1),
                    help="per-label exponent (default 2k, admissible)")
    ap.add_argument("--nongeneric", type=partial(decimal, lo=0), default=0,
                    help="mark this many labels nongeneric")
    args = ap.parse_args(argv)

    shape = args.shape
    # Sharpness: strata must reach twice the length of d (plus e) before
    # the observed lower bounds pin delta down.
    nu_max = 2 * len(shape.d) + shape.e
    # Nongeneric labels do not count toward the generic-depth floor.
    if args.pool_size is not None:
        size = args.pool_size
        if args.nongeneric > size:
            ap.error(f"argument --nongeneric: must be at most the pool size {size}")
        if size - args.nongeneric < 2 * nu_max:
            ap.error(
                f"argument --pool-size: depth {nu_max} needs {2 * nu_max} "
                f"generic labels, the pool has {size - args.nongeneric}"
            )
    else:
        size = max(6, 2 * nu_max) + args.nongeneric
        if size > len(POOL_IDS):
            flag = "--nongeneric" if args.nongeneric else "--shape"
            ap.error(
                f"argument {flag}: depth {nu_max} with {args.nongeneric} nongeneric "
                f"labels needs a pool of {size}, at most {len(POOL_IDS)} exist"
            )
    k_ell = args.k_ell if args.k_ell is not None else 2 * args.k
    pool = build_pool(size, k_ell, args.nongeneric)

    deltas = Counter()
    sel_hits, sel_runs = Counter(), Counter()
    kap_hits, kap_runs = Counter(), Counter()
    bridge_hits = bridge_total = 0
    recip_hits = 0
    failures = []

    for seed in range(args.seed0, args.seed0 + args.runs):
        data, _ = simulate_system(shape, args.k, pool, seed, nu_max=nu_max)
        sel = verify_artsel(data, shape, args.k)
        kap = verify_artkappa(data, shape, args.k)
        recip = reciprocity_check(data)
        deltas[data.delta_sim] += 1
        for row in sel["strata"]:
            sel_runs[row["j"]] += 1
            sel_hits[row["j"]] += row["match"]
        for row in kap["strata"]:
            kap_runs[row["j"]] += 1
            kap_hits[row["j"]] += row["match"]
        for row in kap["bridge"]:
            bridge_total += 1
            bridge_hits += row["match"]
        recip_hits += recip
        if not (sel["all_match"] and kap["all_match"] and recip):
            failures.append(seed)

    print(
        f"shape e={shape.e} d={shape.d}  k={args.k}  runs={args.runs}"
        f"  pool={size} labels (k_ell={k_ell}, {args.nongeneric} nongeneric)"
        f"  nu_max={nu_max}"
    )
    print("delta histogram: " + "  ".join(f"{d}:{n}" for d, n in sorted(deltas.items())))
    if sel_runs:
        print("ordinary strata: " + "  ".join(
            f"j={j} {sel_hits[j]}/{sel_runs[j]}" for j in sorted(sel_runs)
        ))
    if kap_runs:
        print("kappa strata:    " + "  ".join(
            f"j={j} {kap_hits[j]}/{kap_runs[j]}" for j in sorted(kap_runs)
        ))
    if bridge_total:
        print(f"bridge checks:   {bridge_hits}/{bridge_total}")
    print(f"reciprocity:     {recip_hits}/{args.runs}")
    if failures:
        print(f"FAILING SEEDS: {failures}")
        return 1
    print("failures: none")
    return 0


if __name__ == "__main__":
    sys.exit(main())

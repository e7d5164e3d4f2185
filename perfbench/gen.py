"""Seeded inputs for the four workloads, with the answers planted in them.

Standard library only: nothing here imports iwafitt, so the program under
test receives nothing but the JSON documents made here. Each generator
returns ``(doc, planted)`` pairs; ``doc`` goes through the library's own
parsers during set-up, ``planted`` is what the oracles in ``ops`` compare
against.

Every workload walks a fixed cycle of 20 op shapes and the seed decides
only the contents. The cycles are ordered by cost class so that the median
and the 90th percentile of a run fall inside a class, never on the border
between two, which keeps both percentiles steady from seed to seed.
"""

from __future__ import annotations

import random
from itertools import product
from math import comb

CYCLE = 20

# --------------------------------------------------------------- fitting

# Matrix size per cycle position. Sorted by cost the classes cover
# 4,5: 0-20%, 6: 20-35%, 7: 35-65% (median), 8: 65-95% (p90), 9: 95-100%.
FITTING_SIZES = (8, 7, 4, 8, 7, 5, 8, 7, 6, 9, 8, 7, 6, 8, 7, 5, 8, 7, 6, 4)
# (kind, p) combinations dealt out in turn within each size class, so every
# class of six sees each kind and prime equally often.
FITTING_RINGS = (
    ("dvr", 3), ("Zp_mod_pk", 5), ("dvr", 7),
    ("Zp_mod_pk", 3), ("dvr", 5), ("Zp_mod_pk", 7),
)
FITTING_K = 40


def _matmul(A, B, q):
    n, k, m = len(A), len(B), len(B[0])
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) % q for j in range(m)]
        for i in range(n)
    ]


def _unimodular(rng, n, q):
    """L * U with unit diagonals: determinant 1, dense off the diagonal."""
    L = [[rng.randrange(q) if i > j else int(i == j) for j in range(n)] for i in range(n)]
    U = [[rng.randrange(q) if i < j else int(i == j) for j in range(n)] for i in range(n)]
    return _matmul(L, U, q)


def fitting_docs(seed: int, count: int) -> list:
    """Planted torsion matrices U * diag(p^e) * V, all exponents in 1..4.

    No exponent is 0, so no minor is a unit and every size class costs the
    same whatever the seed. The chain answer is the planted exponents:
    Fitt_i has exponent sum of the n - i smallest (< K, so never capped).
    """
    rng = random.Random(f"fitting-principal|{seed}")
    dealt = {}
    out = []
    for idx in range(count):
        n = FITTING_SIZES[idx % CYCLE]
        turn = dealt.get(n, 0)
        dealt[n] = turn + 1
        kind, p = FITTING_RINGS[turn % len(FITTING_RINGS)]
        q = p**FITTING_K
        exps = sorted(rng.randint(1, 4) for _ in range(n))
        D = [[p ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
        M = _matmul(_matmul(_unimodular(rng, n, q), D, q), _unimodular(rng, n, q), q)
        doc = {
            "ring": {"kind": kind, "p": p, "K": FITTING_K},
            "rows": n,
            "cols": n,
            "entries": M,
        }
        out.append((doc, {"exponents": exps}))
    return out


# ---------------------------------------------------------------- lambda

# Op type per cycle position: 5 slope reports (cheapest, 0-25%), 9 series
# factorizations (the median falls on the m=40 ones) and 6 matrix chains
# (70-100%, p90 on the ell=6 ones).
LAMBDA_TYPES = (
    "series", "slope", "matrix", "series", "series", "matrix", "slope",
    "series", "matrix", "series", "slope", "series", "matrix", "series",
    "slope", "matrix", "series", "slope", "matrix", "series",
)
# Matrix sizes in turn; sorted 5,6,6,6,6,7 puts p90 inside the ell=6 class.
LAMBDA_ELLS = (6, 5, 6, 7, 6, 6)
# Series ops in turn: (m = K, p, exponent of T^2+p, exponents of the three
# linear primes). The distinguished degree is m // 2; the seed permutes the
# linear exponents and draws mu and the unit, so each slot costs the same
# for every seed. Sorted by cost the three m=40 slots hold the median.
LAMBDA_SERIES = (
    (16, 3, 1, (2, 2, 2)), (40, 5, 3, (5, 5, 4)), (64, 7, 4, (8, 8, 8)),
    (24, 3, 2, (3, 3, 2)), (40, 5, 3, (5, 5, 4)), (48, 5, 3, (6, 6, 6)),
    (32, 7, 2, (4, 4, 4)), (40, 5, 3, (5, 5, 4)), (56, 3, 4, (7, 7, 6)),
)
LAMBDA_P = 3
LAMBDA_KM = 8
SERIES_PER_OP = 2
# (a, b, c) for PI^a T^b (T+3)^c on the diagonal: never a unit
_DIAG_SHAPES = [t for t in product((0, 1), repeat=3) if any(t)]


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trunc(a, q, m):
    a = [c % q for c in a[:m]]
    return a + [0] * (m - len(a))


def _series_matmul(A, B, q, m):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = [0] * m
            for t in range(n):
                for d, c in enumerate(_polymul(A[i][t], B[t][j])[:m]):
                    acc[d] += c
            row.append(_trunc(acc, q, m))
        out.append(row)
    return out


def _series_unimodular(rng, n, q, m):
    def entry(i, j, below):
        if i == j:
            return _trunc([1], q, m)
        if (i > j) == below:
            return _trunc([rng.randrange(q) for _ in range(3)], q, m)
        return [0] * m

    L = [[entry(i, j, True) for j in range(n)] for i in range(n)]
    U = [[entry(i, j, False) for j in range(n)] for i in range(n)]
    return _series_matmul(L, U, q, m)


def _lambda_matrix(rng, ell):
    """Dense U * D * V over Z_3[[T]] mod (3^8, T^8).

    D is diagonal with entries PI^a T^b (T+3)^c, (a, b, c) in {0,1}^3 and
    never all zero, so no minor of order >= 1 is a unit and the chain costs
    the same for every seed. Base change T -> 0 maps D to diag(3^(a+c)) or
    0 (b = 1), which is what the oracle reads.
    """
    p, K, m = LAMBDA_P, LAMBDA_KM, LAMBDA_KM
    q = p**K
    v0 = []
    diag = []
    for _ in range(ell):
        a, b, c = rng.choice(_DIAG_SHAPES)
        poly = [1]
        for factor, e in (([p], a), ([0, 1], b), ([p, 1], c)):
            for _ in range(e):
                poly = _polymul(poly, factor)
        diag.append(_trunc(poly, q, m))
        v0.append(K if b else a + c)
    D = [[diag[i] if i == j else [0] * m for j in range(ell)] for i in range(ell)]
    M = _series_matmul(
        _series_matmul(_series_unimodular(rng, ell, q, m), D, q, m),
        _series_unimodular(rng, ell, q, m), q, m,
    )
    doc = {
        "ring": {"kind": "lambda", "p": p, "K": K, "m": m},
        "rows": ell,
        "cols": ell,
        "entries": M,
    }
    return doc, {"v0": sorted(v0), "K": K}


def _series_basis(p):
    """PI plus four distinguished primes: T, T+p, T+2p (linear), T^2+p."""
    return ["PI", {"dist": [0, 1]}, {"dist": [p, 1]}, {"dist": [2 * p, 1]},
            {"dist": [p, 0, 1]}]


def _planted_series(rng, m, p, quad, linear):
    """SERIES_PER_OP series p^mu * prod P^e * U over one basis, as polynomials.

    U is a cubic with unit constant term and the product has degree < m,
    so truncation never cuts it and trial division is exact. The exponents
    stay far below K - mu, so no prime divides another's power at this
    precision.
    """
    basis = _series_basis(p)
    gens = []
    for _ in range(SERIES_PER_OP):
        exps = [rng.randint(0, 3)] + rng.sample(linear, 3) + [quad]
        poly = [1]
        for prime, e in zip(basis[1:], exps[1:]):
            for _ in range(e):
                poly = _polymul(poly, prime["dist"])
        unit = [rng.randrange(1, p)] + [rng.randrange(p**m) for _ in range(3)]
        coeffs = [c * p ** exps[0] for c in _polymul(poly, unit)]
        gens.append({"coeffs": coeffs, "exponents": exps, "degree": len(poly) - 1})
    doc = {"p": p, "K": m, "m": m, "basis": basis,
           "series": [g["coeffs"] for g in gens]}
    planted = {"exponents": [g["exponents"] for g in gens],
               "degrees": [g["degree"] for g in gens]}
    return doc, planted


_SLOPE_PRIMES = ("PI", {"dist": [0, 1]}, {"dist": [3, 1]}, {"dist": [9, 1]})


def _slope_module(rng):
    """A planted elementary module over Z_3[[T]] and its two probe primes.

    Support primes are drawn from PI, T, T+3, T+9 and probed along the PI
    and T towers on j = 3..10, where none of them collides with a deformed
    prime. The planted answer is each probe's exponent in Fitt_i.
    """
    primes = rng.sample(range(len(_SLOPE_PRIMES)), rng.randint(1, 3))
    comps = []
    for t in primes:
        ks = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        comps.append({"prime": _SLOPE_PRIMES[t], "exponents": ks})
    i = rng.randint(0, 2)
    width = max(len(c["exponents"]) for c in comps)
    predicted = []
    for probe in _SLOPE_PRIMES[:2]:
        exp = 0
        for c in comps:
            if c["prime"] == probe:
                padded = [0] * (width - len(c["exponents"])) + c["exponents"]
                exp = sum(padded[: max(0, width - i)])
        predicted.append(exp)
    doc = {"module": {"p": 3, "components": comps},
           "probes": list(_SLOPE_PRIMES[:2]), "index": i}
    return doc, {"predicted": predicted}


def lambda_docs(seed: int, count: int) -> list:
    rng = random.Random(f"lambda-series|{seed}")
    turns = {"matrix": 0, "series": 0, "slope": 0}
    out = []
    for idx in range(count):
        kind = LAMBDA_TYPES[idx % CYCLE]
        turn = turns[kind]
        turns[kind] += 1
        if kind == "matrix":
            doc, planted = _lambda_matrix(rng, LAMBDA_ELLS[turn % len(LAMBDA_ELLS)])
        elif kind == "series":
            doc, planted = _planted_series(rng, *LAMBDA_SERIES[turn % len(LAMBDA_SERIES)])
        else:
            doc, planted = _slope_module(rng)
        out.append(({"type": kind, **doc}, planted))
    return out


# ----------------------------------------------------------------- euler

IDS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# (generic labels, nongeneric labels, nu) per cycle position. Sorted by
# cost: 6 small systems like those of selftest criterion 07 (0-30%), 6 at
# pool 10 / nu=5 (30-60%, the median), 2 at pool 12 / nu=5 (60-70%), 5 at
# pool 12 / nu=6 (70-95%, p90) and one at pool 14 / nu=7 (95-100%).
EULER_CONFIGS = (
    (12, 0, 6), (8, 1, 3), (10, 0, 5), (10, 2, 5), (12, 0, 6),
    (6, 2, 2), (10, 0, 5), (8, 0, 4), (12, 0, 6), (10, 0, 5),
    (14, 0, 7), (8, 2, 4), (10, 0, 5), (12, 0, 6), (6, 2, 3),
    (10, 0, 5), (10, 2, 5), (8, 2, 2), (12, 0, 6), (10, 0, 5),
)


def _shape_for(rng, nu):
    """A shape string e:d0,d1,... with 2 * len(d) + e == nu, d non-increasing."""
    e = nu % 2
    d = sorted((rng.randint(1, 3) for _ in range((nu - e) // 2)), reverse=True)
    return f"{e}:" + ",".join(str(x) for x in d)


def euler_docs(seed: int, count: int) -> list:
    """Simulator systems whose stratum and reciprocity laws must all hold.

    k runs over 3..8 and k_ell over k..k+3, nongeneric labels get
    k_ell = k + 1 as in selftest criterion 07; there are always at least
    2 * nu generic labels, so the pool never runs dry.
    """
    rng = random.Random(f"euler-deep|{seed}")
    out = []
    for idx in range(count):
        generic, nongeneric, nu = EULER_CONFIGS[idx % CYCLE]
        k = rng.randint(3, 8)
        pool = [{"id": IDS[t], "k": k + rng.randint(0, 3), "generic": True}
                for t in range(generic)]
        pool += [{"id": IDS[generic + t], "k": k + 1, "generic": False}
                 for t in range(nongeneric)]
        doc = {"shape": _shape_for(rng, nu), "k": k, "pool": pool,
               "nu_max": nu, "seed": rng.getrandbits(32)}
        out.append((doc, {"keys": sum(comb(generic + nongeneric, s) for s in range(nu + 1))}))
    return out


# -------------------------------------------------------------- cli-cold

# Simulator systems for the `euler simulate` / `euler verify --in` pair,
# over 11 generic and 2 nongeneric labels. Their outputs are frozen in
# goldens.json.
def _cli_pool(k_ells):
    ids = IDS[:13]
    return ",".join(
        f"{i}:{k}" + (":n" if t >= 11 else "") for t, (i, k) in enumerate(zip(ids, k_ells))
    )


CLI_SYSTEMS = (
    ("1:2,1", 5, _cli_pool((6, 6, 7, 8, 6, 9, 6, 7, 6, 8, 6, 6, 6)), 11),
    ("1:2,2", 4, _cli_pool((5, 5, 6, 5, 7, 5, 6, 5, 5, 6, 5, 5, 5)), 3),
    ("1:3,1", 6, _cli_pool((7, 7, 8, 7, 9, 7, 8, 7, 7, 9, 7, 7, 7)), 29),
    ("1:3,2", 5, _cli_pool((6, 6, 6, 7, 6, 8, 6, 6, 7, 6, 6, 6, 6)), 5),
    ("1:2,2", 3, _cli_pool((4, 4, 5, 4, 6, 4, 4, 5, 4, 4, 4, 4, 4)), 17),
    ("1:1,1", 7, _cli_pool((8, 8, 9, 8, 8, 10, 8, 8, 9, 8, 8, 8, 8)), 41),
    ("1:3,3", 8, _cli_pool((9, 9, 9, 10, 9, 9, 11, 9, 9, 10, 9, 9, 9)), 23),
    ("1:2,1", 6, _cli_pool((7, 7, 7, 8, 7, 7, 7, 9, 7, 7, 7, 7, 7)), 8),
)


# The systems differ in k, so a simulate costs 0.19-0.30 s of CPU (2 cores,
# Python 3.11). Each pair joins a cheap system with a costly one, so every
# pair costs about the same and set-up time does not follow the seed.
CLI_PAIRS = ((3, 2), (5, 0), (4, 1), (6, 7))


def cli_systems(seed: int) -> list:
    """Indices of the two CLI_SYSTEMS entries this seed runs."""
    rng = random.Random(f"cli-cold|{seed}")
    return rng.sample(rng.choice(CLI_PAIRS), 2)

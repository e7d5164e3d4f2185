"""The in-process workloads: set-up, one op, and the oracle for each.

Importing this module imports iwafitt, so ``run.py`` imports it inside the
timed set-up. ``build`` turns a generated document into library objects
through the library's own parsers and constructors; ``run`` is the timed
op; ``check`` compares the op's answer with the planted one. The oracles
use their own arithmetic (valuations, polynomial products, stratum minima,
reciprocity) and never call back into the code path they judge.
"""

from __future__ import annotations

from iwafitt.euler import (
    AdmissiblePrimeLabel,
    SelmerShape,
    reciprocity_check,
    simulate_system,
    verify_artkappa,
    verify_artsel,
)
from iwafitt.fitting import PresentationMatrix, dvr_structure, fitting_ideal
from iwafitt.ideals import (
    ElementaryLambdaModule,
    HeightOnePrime,
    LambdaIdealFactored,
    class_of,
    slope_report,
)
from iwafitt.ring import TruncatedSeries, weierstrass_prepare


def _vp(p: int, value: int, K: int) -> int:
    """v_p of a residue mod p^K, K for zero."""
    value %= p**K
    if value == 0:
        return K
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


# ------------------------------------------------------- fitting-principal


def fitting_build(doc):
    return PresentationMatrix.from_dict(doc)


def fitting_run(M):
    structure = dvr_structure(M).exponents if M.ring.kind == "dvr" else None
    chain = [fitting_ideal(M, i).exponent for i in range(M.rows + 1)]
    return structure, chain


def fitting_check(_prepared, planted, result) -> bool:
    structure, chain = result
    exps = planted["exponents"]
    n = len(exps)
    if chain != [sum(exps[: n - i]) for i in range(n + 1)]:
        return False
    return structure is None or list(structure) == exps


# ----------------------------------------------------------- lambda-series


def lambda_build(doc):
    kind = doc["type"]
    if kind == "matrix":
        return kind, PresentationMatrix.from_dict(doc)
    if kind == "series":
        p = doc["p"]
        basis = tuple(
            HeightOnePrime.from_dict(b, p, f"$.basis[{i}]")
            for i, b in enumerate(doc["basis"])
        )
        series = [TruncatedSeries.make(p, doc["K"], doc["m"], c) for c in doc["series"]]
        return kind, (basis, series)
    module = ElementaryLambdaModule.from_dict(doc["module"])
    probes = [HeightOnePrime.from_dict(pr, module.components[0][0].p) for pr in doc["probes"]]
    return kind, (module, probes, doc["index"])


def lambda_run(prepared):
    kind, obj = prepared
    if kind == "matrix":
        return [fitting_ideal(obj, i) for i in range(obj.rows + 1)]
    if kind == "series":
        basis, series = obj
        forms = [weierstrass_prepare(f) for f in series]
        inverses = [form.unit.inverse() for form in forms]
        ideal = LambdaIdealFactored.from_series_generators(basis, series)
        return forms, inverses, ideal, class_of(ideal)
    module, probes, i = obj
    return [slope_report(module, P, i) for P in probes]


def _polymul_trunc(a, b, q, m):
    out = [0] * m
    for i, x in enumerate(a):
        if x:
            for j in range(m - i):
                out[i + j] += x * b[j]
    return [c % q for c in out]


def _check_matrix(planted, results) -> bool:
    v0, K = planted["v0"], planted["K"]
    ell = len(v0)
    for i, res in enumerate(results):
        got = min((_vp(g.p, g.coeffs[0], K) for g in res.generators), default=K)
        if got != min(K, sum(v0[: max(0, ell - i)])):
            return False
    return True


def _check_series(prepared, planted, result) -> bool:
    basis, series = prepared
    forms, inverses, ideal, cls = result
    for f, form, inv, exps, degree in zip(
        series, forms, inverses, planted["exponents"], planted["degrees"]
    ):
        P, U = form.distinguished, form.unit
        top = max(t for t, c in enumerate(P.coeffs) if c)
        if form.mu != exps[0] or top != degree or P.coeffs[top] != 1:
            return False
        qK = f.p**f.K
        product = _polymul_trunc(P.coeffs, U.coeffs, qK, f.m)
        if [(c * f.p**form.mu) % qK for c in product] != list(f.coeffs):
            return False
        if _polymul_trunc(U.coeffs, inv.coeffs, U.p**U.K, U.m) != [1] + [0] * (U.m - 1):
            return False
    if [list(g) for g in ideal.generators] != planted["exponents"]:
        return False
    mins = [min(col) for col in zip(*planted["exponents"])]
    classes = cls.as_mapping()
    return [classes.get(pr, 0) for pr in basis] == mins


def lambda_check(prepared, planted, result) -> bool:
    kind, obj = prepared
    if kind == "matrix":
        return _check_matrix(planted, result)
    if kind == "series":
        return _check_series(obj, planted, result)
    return all(
        rep["stabilized_slope"] == rep["predicted_slope"] == want
        for rep, want in zip(result, planted["predicted"])
    )


# -------------------------------------------------------------- euler-deep


def euler_build(doc):
    pool = tuple(
        AdmissiblePrimeLabel.from_dict(lab, f"$.pool[{i}]")
        for i, lab in enumerate(doc["pool"])
    )
    return SelmerShape.from_string(doc["shape"]), doc["k"], pool, doc["seed"], doc["nu_max"]


def euler_run(prepared):
    shape, k, pool, seed, nu = prepared
    data, _ = simulate_system(shape, k, pool, seed=seed, nu_max=nu)
    return data, verify_artsel(data, shape, k), verify_artkappa(data, shape, k), reciprocity_check(data)


def _weight(key: str) -> int:
    return 0 if key == "1" else len(key.split("."))


def _join(ids) -> str:
    return ".".join(str(i) for i in sorted(ids)) or "1"


def _reciprocity_holds(data) -> bool:
    """Both localization laws, re-derived from the stored maps."""
    cap = data.i_n_val
    for (m_key, ident), loc in data.loc_ord.items():
        ids = [] if m_key == "1" else [int(s) for s in m_key.split(".")]
        if ident not in ids:
            return False
        ind = data.ind_lambda.get(_join(i for i in ids if i != ident))
        if ind is not None and min(ind, cap.get(m_key, data.k)) != loc:
            return False
    for (n_key, ident), loc in data.loc_unr.items():
        ids = [] if n_key == "1" else [int(s) for s in n_key.split(".")]
        if ident in ids:
            return False
        m_key = _join(ids + [ident])
        ind_m = data.ind_lambda.get(m_key)
        if ind_m is not None and min(loc, cap.get(m_key, data.k)) != ind_m:
            return False
    return True


def euler_check(prepared, planted, result) -> bool:
    """All laws hold, recomputed: strata minima, closed forms, bridge, reciprocity."""
    shape, k, _, _, _ = prepared
    data, ra, rk, recip = result
    if len(data.ind_lambda) + len(data.ind_kappa) != planted["keys"]:
        return False
    lam, kap = {}, {}
    for key, ind in data.ind_lambda.items():
        w = _weight(key)
        lam[w] = min(lam.get(w, ind), ind, data.i_n_val.get(key, data.k))
    for key, ind in data.ind_kappa.items():
        w = _weight(key)
        kap[w] = min(kap.get(w, ind), ind)

    def tail(start):
        return sum(shape.d[start:])

    def strata_ok(report, minima, start_of):
        if not minima:
            return report["strata"] == []
        delta = min(minima.values())
        want = [
            {"j": j, "observed": minima[j],
             "expected": min(k, delta + tail(start_of(j))),
             "match": minima[j] == min(k, delta + tail(start_of(j)))}
            for j in sorted(minima)
        ]
        return report["delta"] == delta and report["strata"] == want

    if not strata_ok(ra, lam, lambda j: (j - shape.e) // 2):
        return False
    if not strata_ok(rk, kap, lambda j: (j + 1) // 2):
        return False
    bridge = [
        {"j": j, "kappa": kap[j], "lambda_next": lam[j + 1], "match": kap[j] == lam[j + 1]}
        for j in sorted(kap) if j + 1 in lam
    ]
    if kap and rk["bridge"] != bridge:
        return False
    laws = all(s["match"] for s in ra["strata"] + rk["strata"]) and all(
        b["match"] for b in bridge
    )
    return laws and ra["all_match"] and rk["all_match"] and recip is True and _reciprocity_holds(data)


def euler_perturbation_caught(prepared) -> bool:
    """Lower one lambda index by 1; both reciprocity checks must notice."""
    data, _, _, _ = euler_run(prepared)
    nu = prepared[4]
    key = min(
        (key for key, ind in data.ind_lambda.items() if ind > 0 and _weight(key) < nu),
        key=lambda s: (_weight(s), s),
    )
    data.ind_lambda[key] -= 1
    return not reciprocity_check(data) and not _reciprocity_holds(data)


WORKLOADS = {
    "fitting-principal": (fitting_build, fitting_run, fitting_check),
    "lambda-series": (lambda_build, lambda_run, lambda_check),
    "euler-deep": (euler_build, euler_run, euler_check),
}

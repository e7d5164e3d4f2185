"""The acceptance suite: cross-layer contracts run as one deterministic batch.

Each criterion is a standalone seeded check over the public API of the
four library layers. The CLI's selftest command and the test suite both
drive the same registry, so a fresh checkout has exactly one definition
of "works". Criteria raise AssertionError on failure; the runner turns
that into a per-criterion pass/fail record with wall-clock timing, and
criteria that carry a time budget fail when they overrun it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .errors import NotASquare
from .euler import (
    AdmissiblePrimeLabel,
    EulerSystemData,
    SelmerShape,
    delta_limit,
    highfitt_consistency,
    reciprocity_check,
    reconstruct_shape,
    sha_exponents,
    simulate_system,
    stabilization_index,
    synthetic_c_family,
    verify_artkappa,
    verify_artsel,
)
from .fitting import (
    ElementaryDVRModule,
    PresentationMatrix,
    RingDescriptor,
    direct_sum_fitting,
    dvr_structure,
    fitting_from_structure,
    fitting_ideal,
    minor_fitting_exponent,
)
from .ideals import (
    ElementaryLambdaModule,
    HeightOnePrime,
    LambdaIdealFactored,
    class_of,
    elementary_fitting_class,
    odd_from_even,
    parity_audit,
    pseudo_square_root,
    sim,
    slope_report,
    specialize_elementary,
)

IDS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _torsion_matrix(rng, n, p, K=12):
    """U * diag(p^e) * V over Z/p^K for small random exponents."""
    exps = sorted(rng.randint(0, 2) for _ in range(n))
    while sum(exps) > K - 2:
        exps[exps.index(max(exps))] -= 1
    q = p**K
    A = [[p ** exps[r] if r == c else 0 for c in range(n)] for r in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-9, 9)
        if rng.random() < 0.5:
            A[i] = [(a + c * b) % q for a, b in zip(A[i], A[j])]
        else:
            for row in A:
                row[i] = (row[i] + c * row[j]) % q
    ring = RingDescriptor("dvr", p, K)
    return PresentationMatrix.make(ring, A), exps


def _exp(result, K):
    return K if result == "full" else result


def _c01_minors_match_structure():
    rng = random.Random(1001)
    for trial in range(200):
        p = (3, 5, 7)[trial % 3]
        n = rng.randint(1, 6)
        M, _ = _torsion_matrix(rng, n, p)
        E = dvr_structure(M)
        for i in range(7):
            got = minor_fitting_exponent(M, i)
            want = fitting_from_structure(E, i)
            assert got == want, (trial, p, i, got, want)
    return "200 matrices, p in {3,5,7}, i in 0..6"


def _c02_diag_spot_values():
    ring = RingDescriptor("dvr", 3, 12)
    M = PresentationMatrix.make(ring, [[3, 0, 0], [0, 9, 0], [0, 0, 27]])
    got = [fitting_ideal(M, i).exponent for i in range(4)]
    assert got == [6, 3, 1, 0], got
    return "diag(p, p^2, p^3) -> exponents (6, 3, 1, 0)"


def _c03_functorial_laws():
    rng = random.Random(1002)
    for trial in range(100):
        p = (3, 5, 7)[trial % 3]
        n = rng.randint(1, 4)
        M, _ = _torsion_matrix(rng, n, p)
        K = M.ring.K
        exps = [_exp(fitting_ideal(M, i).exponent, K) for i in range(n + 1)]
        # chain: each step up in index can only grow the ideal
        assert all(a >= b for a, b in zip(exps, exps[1:])), (trial, exps)
        # base change to lower precision truncates exponents
        newK = rng.randint(1, K)
        R = M.reduce_precision(newK)
        for i in range(n + 1):
            after = _exp(fitting_ideal(R, i).exponent, newK)
            assert after == min(exps[i], newK), (trial, i)
        # extra relations present a quotient: ideals only grow
        width = rng.randint(1, 2)
        extra = [[rng.randrange(p**K) for _ in range(width)] for _ in range(n)]
        Q = M.append_columns(extra)
        for i in range(n + 1):
            assert _exp(fitting_ideal(Q, i).exponent, K) <= exps[i], (trial, i)
        # block sums agree with the splitting formula
        n2 = rng.randint(1, 2)
        M2, _ = _torsion_matrix(rng, n2, p)
        E1, E2 = dvr_structure(M), dvr_structure(M2)
        block = [
            list(row) + [0] * n2 for row in M.entries
        ] + [[0] * n + list(row) for row in M2.entries]
        B = PresentationMatrix.make(M.ring, block)
        for i in range(n + n2 + 1):
            assert fitting_ideal(B, i).exponent == direct_sum_fitting(
                E1, E2, i
            ), (trial, i)
    return "chain, base-change, surjection, direct-sum on 100 instances each"


_PI = HeightOnePrime.pi(3)
_T = HeightOnePrime.polynomial(3, (0, 1))
_T3 = HeightOnePrime.polynomial(3, (3, 1))
_T9 = HeightOnePrime.polynomial(3, (9, 1))


def _random_ideal(rng, primes=(_PI, _T, _T3)):
    basis = tuple(rng.sample(primes, rng.randint(1, len(primes))))
    gens = []
    for _ in range(rng.randint(1, 3)):
        gens.append(tuple(rng.randint(0, 3) for _ in basis))
    return LambdaIdealFactored(basis, tuple(gens))


def _same_class_variant(rng, I):
    # extra generators dominating existing ones never move the class
    gens = list(I.generators)
    for _ in range(rng.randint(1, 2)):
        base = rng.choice(I.generators)
        gens.append(tuple(e + rng.randint(0, 2) for e in base))
    rng.shuffle(gens)
    return LambdaIdealFactored(I.basis, tuple(gens))


def _c04_class_calculus():
    rng = random.Random(1003)
    transitive_hits = 0
    for _ in range(500):
        I = _random_ideal(rng)
        J = _same_class_variant(rng, I)
        K = _same_class_variant(rng, J)
        assert sim(I, I) and sim(I, J) and sim(J, I)
        if sim(I, J) and sim(J, K):
            assert sim(I, K)
            transitive_hits += 1
    assert transitive_hits >= 100
    for _ in range(100):
        I = _random_ideal(rng)
        assert pseudo_square_root(class_of(I).mult(class_of(I))) == class_of(I)
    two_gen = LambdaIdealFactored((_PI, _T), ((2, 0), (1, 1)))
    principal = LambdaIdealFactored((_PI, _T), ((1, 0),))
    assert sim(two_gen, principal)
    try:
        pseudo_square_root(LambdaIdealFactored((_PI, _T), ((1, 1),)))
    except NotASquare:
        pass
    else:
        raise AssertionError("odd class accepted a square root")
    return "equivalence on 500 triples, 100 square roots, frozen examples"


def _random_doubled(rng, primes=(_PI, _T, _T3)):
    comps = []
    for P in rng.sample(primes, rng.randint(1, len(primes))):
        single = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        comps.append((P, tuple(sorted(single + single))))
    return ElementaryLambdaModule(tuple(comps))


def _c05_odd_from_even():
    rng = random.Random(1004)
    checked = 0
    for _ in range(100):
        X = _random_doubled(rng)
        for i in range(1, X.width, 2):
            lower = elementary_fitting_class(X, i - 1)
            upper = elementary_fitting_class(X, i + 1)
            assert odd_from_even(lower, upper) == elementary_fitting_class(
                X, i
            ), (X.components, i)
            checked += 1
    assert checked >= 100
    return f"{checked} odd-index classes recovered from even neighbors"


def _c06_slope_and_parity():
    rng = random.Random(1005)
    window = range(3, 11)
    for trial in range(50):
        comps = []
        for P in rng.sample((_PI, _T, _T3, _T9), rng.randint(1, 3)):
            ks = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 2))))
            comps.append((P, ks))
        E = ElementaryLambdaModule(tuple(comps))
        i = rng.randint(0, 2)
        for P in (_PI, _T):
            rep = slope_report(E, P, i, window=window)
            assert rep["stabilized_slope"] == rep["predicted_slope"], (trial, P.label())
            resid = [rep["values"][j] - rep["predicted_slope"] * j for j in window]
            assert resid[-1] == resid[-2] == resid[-3], (trial, P.label(), resid)
    doubled = _random_doubled(rng)
    rows = [(j, specialize_elementary(doubled, _T, j, 0)) for j in range(3, 9)]
    assert parity_audit(rows)
    lop = ElementaryLambdaModule(((_T, (1,)),))
    odd_rows = [(j, specialize_elementary(lop, _T, j, 0)) for j in range(3, 9)]
    assert not parity_audit(odd_rows)
    return "50 modules x 2 probe primes, j in 3..10; parity on a doubled module"


def _c07_simulated_strata():
    rng = random.Random(20260822)
    bridge_entries = 0
    for trial in range(500):
        e = rng.randint(0, 1)
        len_d = rng.randint(0, 2 if e == 0 else 1)
        d = []
        total = 0
        for _ in range(len_d):
            hi = min(3, 6 - total, d[-1] if d else 3)
            if hi < 1:
                break
            x = rng.randint(1, hi)
            d.append(x)
            total += x
        shape = SelmerShape(e, tuple(d))
        nu_max = 2 * len(shape.d) + e
        k = rng.randint(1, 6)
        n_generic = rng.randint(max(6, 2 * nu_max), 10)
        pool = [
            AdmissiblePrimeLabel(IDS[i], k_ell=k + rng.randint(0, 3))
            for i in range(n_generic)
        ]
        if rng.random() < 0.35:
            for extra in range(rng.randint(1, 2)):
                pool.append(AdmissiblePrimeLabel(
                    IDS[n_generic + extra], k_ell=k + 1, generic=False))
        data, _ = simulate_system(
            shape, k, pool, seed=rng.getrandbits(32), nu_max=nu_max
        )
        ra = verify_artsel(data, shape, k)
        rk = verify_artkappa(data, shape, k)
        assert ra["all_match"], (trial, shape, k, ra)
        assert rk["all_match"], (trial, shape, k, rk)
        if e == 1:
            bridge_entries += len(rk["bridge"])
    assert bridge_entries > 0
    return "500 simulations, both stratum laws plus the shift bridge"


def _c08_shape_round_trip():
    for shape, k0, seed in (
        (SelmerShape(1, (2, 1)), 8, 42),
        (SelmerShape(0, (3,)), 7, 3),
    ):
        nu_max = 2 * len(shape.d) + shape.e
        pool = [
            AdmissiblePrimeLabel(IDS[i], k_ell=2 * (k0 + 4))
            for i in range(max(6, 2 * nu_max))
        ]
        fam = {
            k: simulate_system(shape, k, pool, seed=seed, nu_max=nu_max)[0]
            for k in range(k0, k0 + 5)
        }
        assert fam[k0].delta_sim + sum(shape.d) < k0, "threshold not met"
        js = list(range(shape.e, 2 * len(shape.d) + shape.e + 1, 2))
        dv = {j: delta_limit(fam, j) for j in js}
        assert reconstruct_shape(dv, shape.e) == shape, (shape, dv)
        doubled = ElementaryDVRModule(
            tuple(sorted(shape.d + shape.d))
        ) if shape.d else None
        prev = None
        for i in range(0, 2 * len(shape.d) + 1, 2):
            ex = sha_exponents(dv, shape.e, i)
            assert ex % 2 == 0 and ex >= 0
            if prev is not None:
                assert ex <= prev
            prev = ex
            if doubled is not None:
                assert ex == fitting_from_structure(doubled, i)
    return "two shapes recovered exactly; defect exponents even, decreasing"


def _c09_reciprocity():
    rng = random.Random(1006)
    data = None
    for _ in range(20):
        d0 = rng.randint(0, 3)
        shape = SelmerShape(0, (d0,) if d0 else ())
        k = rng.randint(2, 6)
        nu_max = 2 * len(shape.d)
        pool = [
            AdmissiblePrimeLabel(IDS[i], k_ell=k + rng.randint(0, 2))
            for i in range(max(6, 2 * nu_max))
        ]
        data, _ = simulate_system(shape, k, pool, seed=rng.getrandbits(32),
                                  nu_max=max(nu_max, 1))
        assert reciprocity_check(data)
    for key in list(data.ind_lambda)[:5]:
        mutated = EulerSystemData.from_dict(data.to_dict())
        mutated.ind_lambda[key] += 1
        assert not reciprocity_check(mutated), key
    for loc_key in list(data.loc_ord)[:3] + []:
        mutated = EulerSystemData.from_dict(data.to_dict())
        mutated.loc_ord[loc_key] += 1
        assert not reciprocity_check(mutated), loc_key
    for loc_key in list(data.loc_unr)[:3]:
        mutated = EulerSystemData.from_dict(data.to_dict())
        mutated.loc_unr[loc_key] += 1
        assert not reciprocity_check(mutated), loc_key
    return "20 simulator outputs pass; 11 single-index perturbations caught"


def _c10_companion_pipeline():
    rng = random.Random(2718)
    for trial in range(100):
        X = _random_doubled(rng)
        rep = highfitt_consistency(X, synthetic_c_family(X))
        assert rep["all_match"], (trial, X.components, rep)
    for kd in (2, 3, 4, 5):
        fam = {
            k: LambdaIdealFactored((_PI,), ((min(k, kd),),))
            for k in range(1, kd + 4)
        }
        assert stabilization_index(fam, _PI, 1) == kd, kd
    return "100 synthetic module/ideal pairs; 4 planted stabilization levels"


@dataclass
class CriterionResult:
    number: int
    ident: str
    title: str
    passed: bool
    seconds: float
    detail: str

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"[{word}] {self.number:02d} {self.ident}: {self.detail} ({self.seconds:.2f}s)"


CRITERIA = (
    (1, "fitting-minors-structure",
     "Fitting exponents from minors match invariant factors", 30.0,
     _c01_minors_match_structure),
    (2, "fitting-diag-spot",
     "spot exponents on a diagonal presentation", None, _c02_diag_spot_values),
    (3, "fitting-functorial",
     "chain, base-change, surjection, direct-sum laws", None,
     _c03_functorial_laws),
    (4, "ideal-class-calculus",
     "similarity is an equivalence; square roots behave", None,
     _c04_class_calculus),
    (5, "ideal-odd-from-even",
     "odd classes of doubled modules from even neighbors", None,
     _c05_odd_from_even),
    (6, "ideal-slope-parity",
     "specialization slopes and multiplicity parity", None,
     _c06_slope_and_parity),
    (7, "euler-strata",
     "simulated stratum minima match the closed forms", 60.0,
     _c07_simulated_strata),
    (8, "euler-round-trip",
     "shape recovery from stabilized stratum values", None,
     _c08_shape_round_trip),
    (9, "euler-reciprocity",
     "reciprocity laws hold and perturbations are caught", None,
     _c09_reciprocity),
    (10, "euler-companions",
     "companion-ideal squares and planted stabilization levels", None,
     _c10_companion_pipeline),
)


def run(filter_text: str | None = None) -> list:
    """Run all (or a filtered subset of) the acceptance criteria."""
    results = []
    for number, ident, title, budget, fn in CRITERIA:
        if filter_text and filter_text not in ident and filter_text not in title:
            continue
        t0 = time.perf_counter()
        try:
            detail = fn() or ""
            passed = True
        except AssertionError as exc:
            detail, passed = f"assertion failed: {exc}", False
        except Exception as exc:  # noqa: BLE001 - a criterion must never abort the run
            detail, passed = f"{type(exc).__name__}: {exc}", False
        seconds = time.perf_counter() - t0
        if passed and budget is not None and seconds > budget:
            passed = False
            detail += f"; over budget ({seconds:.1f}s > {budget:.0f}s)"
        results.append(
            CriterionResult(number, ident, title, passed, seconds, detail)
        )
    return results

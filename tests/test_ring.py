"""Coefficient-ring layer: valuations, truncated series, Weierstrass splitting."""

from __future__ import annotations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from iwafitt.errors import InsufficientPrecision, RingMismatch
from iwafitt.ring import (
    SpecializationRing,
    TruncatedSeries,
    WeierstrassForm,
    _monic_divmod,
    _mul_mod_monic,
    padic_valuation,
    weierstrass_divide,
    weierstrass_prepare,
)

S = lambda p, K, m, cs: TruncatedSeries.make(p, K, m, cs)


# -------------------------------------------------------------- valuations

def test_valuation_examples():
    assert padic_valuation(3, 9, 4) == 2
    assert padic_valuation(3, 0, 4) == 4
    assert padic_valuation(5, 7, 3) == 0


def test_valuation_reduces_first():
    # 81 = 3^4 is the zero residue at K=4, so the convention value applies
    assert padic_valuation(3, 81, 4) == 4
    assert padic_valuation(3, 81 + 3, 4) == 1


# ------------------------------------------------------------ ring axioms

def _triples_at(pkm):
    p, K, m = pkm
    one = st.lists(st.integers(0, p**K - 1), min_size=m, max_size=m).map(
        lambda cs: S(p, K, m, cs)
    )
    return st.tuples(one, one, one)


series_triples = st.tuples(
    st.sampled_from([2, 3, 5]), st.integers(2, 4), st.integers(2, 6)
).flatmap(_triples_at)


@settings(max_examples=1000, deadline=None)
@given(series_triples)
def test_series_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    zero = TruncatedSeries.zero(a.p, a.K, a.m)
    one = TruncatedSeries.one(a.p, a.K, a.m)
    assert a + zero == a
    assert a * one == a
    assert a + (-a) == zero


def test_series_shape_is_enforced():
    with pytest.raises(ValueError):
        TruncatedSeries(3, 4, 3, (1, 2))
    with pytest.raises(RingMismatch):
        S(3, 4, 3, [1]) + S(3, 4, 4, [1])


@pytest.mark.parametrize("args", [
    (3, 2, 3, (1.5, 1, 2)),
    (3, 2, 3, (1, True, 2)),
    (3, 2, 3, (1, 1, sympy.Integer(2))),
    (3.0, 2, 3, (1, 1, 2)),
    (3, True, 3, (1, 1, 2)),
    (3, 2, sympy.Integer(3), (1, 1, 2)),
], ids=["float coeff", "bool coeff", "sympy coeff", "float p", "bool K", "sympy m"])
def test_series_takes_ints_only(args):
    with pytest.raises(ValueError):
        TruncatedSeries(*args)


def test_series_unit_inverse():
    u = S(3, 5, 6, [2, 7, 1, 0, 4, 9])
    assert u * u.inverse() == TruncatedSeries.one(3, 5, 6)
    with pytest.raises(ZeroDivisionError):
        S(3, 5, 6, [3, 1]).inverse()


# ------------------------------------------------- Weierstrass preparation

def test_prepare_already_distinguished():
    f = S(3, 6, 8, [3, 1])
    w = weierstrass_prepare(f)
    assert w.mu == 0
    assert w.distinguished == S(3, 6, 8, [3, 1])
    assert w.unit == TruncatedSeries.one(3, 6, 8)


def test_prepare_pure_content():
    f = S(3, 6, 8, [0, 3])
    w = weierstrass_prepare(f)
    assert w.mu == 1
    assert w.distinguished == S(3, 5, 8, [0, 1])
    assert w.unit == TruncatedSeries.one(3, 5, 8)


def test_prepare_cubic_against_product_oracle():
    # oracle: expand (2+T)(T^2+3) independently, feed the expansion in,
    # and demand the canonical factors back
    T = sympy.symbols("T")
    expanded = sympy.Poly((2 + T) * (T**2 + 3), T).all_coeffs()[::-1]
    assert expanded == [6, 3, 2, 1]
    expanded = [int(c) for c in expanded]  # the series takes ints only
    f = S(3, 6, 8, expanded)
    assert f == S(3, 6, 8, [6, 3, 2, 1])
    w = weierstrass_prepare(f)
    assert w.mu == 0
    assert w.distinguished == S(3, 6, 8, [3, 0, 1])
    assert w.unit == S(3, 6, 8, [2, 1])
    assert w.recompose(6) == f


def test_prepare_zero_rejected():
    with pytest.raises(InsufficientPrecision):
        weierstrass_prepare(TruncatedSeries.zero(3, 4, 5))
    # 9*g dies entirely at K=2
    with pytest.raises(InsufficientPrecision):
        weierstrass_prepare(S(3, 2, 5, [9, 18]))


dist_polys = st.integers(0, 3).flatmap(
    lambda d: st.lists(st.integers(0, 3 ** 3 - 1).map(lambda c: 3 * c),
                       min_size=d, max_size=d)
)


def _faithful_pair(low, unit_body, c0):
    # keep deg(P*U) < m so nothing wraps past the truncation; only then is
    # the factor pair pinned down exactly by the product
    m = 8
    d = len(low)
    body = unit_body[: m - d - 1]
    return low + [1], [c0] + body


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3 ** 4 - 1).filter(lambda c: c % 3 != 0),
       st.lists(st.integers(0, 3 ** 4 - 1), min_size=7, max_size=7),
       dist_polys, st.integers(0, 3))
def test_prepare_recompose_round_trip(c0, body, low, mu):
    p, K, m = 3, 7, 8
    p_coeffs, u_coeffs = _faithful_pair(low, body, c0)
    U = S(p, K - mu, m, u_coeffs)
    P = S(p, K - mu, m, p_coeffs)
    f = (P * U).lift_precision(K).scale(p ** mu)
    w = weierstrass_prepare(f)
    assert w.mu == mu
    assert w.distinguished == P
    assert w.unit == U
    assert w.recompose(K) == f


def test_prepare_with_wraparound_keeps_recompose_contract():
    # U has a term at T^7; the product pushes it past T^8, so only the
    # recomposition (not the unit itself) is recoverable
    U = S(3, 7, 8, [1, 0, 0, 0, 0, 0, 0, 1])
    P = S(3, 7, 8, [3, 1])
    f = P * U
    w = weierstrass_prepare(f)
    assert w.mu == 0
    assert w.distinguished == P
    assert w.recompose(7) == f


def ref_monic_divmod(coeffs, P, q):
    """Slow oracle: long division by monic P, reducing after every step."""
    d = len(P) - 1
    rem = list(coeffs)
    quot = [0] * len(rem)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - d] = c
        for t in range(d + 1):
            rem[i - d + t] = (rem[i - d + t] - c * P[t]) % q
    return quot, rem[:d]


def ref_mul_mod_p_poly(a, b, P, q):
    """Slow oracle: a * b mod (P, q), the product reduced at every term."""
    d = len(P) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
    red = ref_monic_divmod(prod, P, q)[1]
    return red + [0] * (d - len(red))


@st.composite
def monic_division_inputs(draw):
    """A dividend of length <= 64 mod p^K, K <= 70, and a monic divisor of
    any degree up to that length; zero dividends and p-content included."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    K = draw(st.integers(1, 70))
    q = p**K
    n = draw(st.integers(1, 64))
    shape = draw(st.sampled_from(("zero", "content", "plain", "plain")))
    if shape == "zero":
        f = [0] * n
    else:
        f = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        if shape == "content":
            mu = draw(st.integers(1, K))
            f = [c * p**mu % q for c in f]
    d = draw(st.integers(0, n))
    P = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)) + [1]
    b = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    return f, P, q, b


@settings(max_examples=300, deadline=None)
@given(monic_division_inputs())
def test_reduce_once_kernels_match_reduce_every_step_oracles(inputs):
    f, P, q, b = inputs
    assert _monic_divmod(f, P, q) == ref_monic_divmod(f, P, q)
    d = len(P) - 1
    if d:
        # weierstrass_prepare multiplies residues mod P: d coefficients each
        a = (f + [0] * d)[:d]
        assert _mul_mod_monic(a, b, P, q) == ref_mul_mod_p_poly(a, b, P, q)


def reference_prepare(f):
    """Slow oracle: Newton on P, the inverse of U rebuilt in every round.

    Each round seeds the inverse w of U mod (P, p) afresh and runs a fixed
    K'.bit_length() + 1 Newton steps on it before correcting P. Returns
    (mu, P coefficients, U coefficients) at precision K' = K - mu.
    """
    if f.is_zero():
        raise InsufficientPrecision("series is 0")
    mu = f.content_valuation()
    g = f.divide_content(mu)
    p, m, q, Kp = g.p, g.m, g.modulus, g.K
    d = next(i for i, c in enumerate(g.coeffs) if c % p)
    P = [0] * d + [1]

    for _ in range(Kp.bit_length() + 2):
        U, err = ref_monic_divmod(g.coeffs, P, q)
        if not any(err):
            break
        ubar = ref_monic_divmod(U, P, q)[1]
        w = [pow(ubar[0], -1, p)] + [0] * (d - 1)
        for k in range(1, d):
            w[k] = -w[0] * sum(ubar[t] * w[k - t] for t in range(1, k + 1)) % p
        for _ in range(Kp.bit_length() + 1):
            corr = [-c % q for c in ref_mul_mod_p_poly(ubar, w, P, q)]
            corr[0] = (corr[0] + 2) % q
            w = ref_mul_mod_p_poly(w, corr, P, q)
        delta = ref_mul_mod_p_poly(err, w, P, q)
        P = [(a + b) % q for a, b in zip(P, delta)] + [1]
    else:
        raise InsufficientPrecision("factor lift did not converge")
    return mu, tuple(P + [0] * (m - d - 1)), tuple(U)


@st.composite
def prepare_inputs(draw):
    """Series at p in {2, 3, 5, 7}, K <= 70, m <= 40: content, zero, wide d."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    K, m = draw(st.integers(1, 70)), draw(st.integers(1, 40))
    q = p**K
    if draw(st.integers(0, 19)) == 0:
        return TruncatedSeries.zero(p, K, m)
    d = draw(st.integers(0, m - 1))
    cs = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    cs = [c * p for c in cs[:d]] + [cs[d] * p + draw(st.integers(1, p - 1))] + cs[d + 1 :]
    mu = draw(st.sampled_from((0, 0, 1, 2, K - 1, K)))
    return S(p, K, m, [c * p**mu for c in cs])


@settings(max_examples=300, deadline=None)
@given(prepare_inputs())
def test_prepare_matches_fixed_count_inverse_oracle(f):
    try:
        expected = reference_prepare(f)
    except InsufficientPrecision:
        with pytest.raises(InsufficientPrecision):
            weierstrass_prepare(f)
        return
    w = weierstrass_prepare(f)
    assert (w.mu, w.distinguished.coeffs, w.unit.coeffs) == expected
    assert w.distinguished.K == w.unit.K == f.K - w.mu


# --------------------------------------------------- Weierstrass division

def test_divide_by_self():
    P = S(3, 4, 6, [3, 0, 1])
    q, r = weierstrass_divide(P, P)
    assert q == TruncatedSeries.one(3, 4, 6)
    assert r.is_zero()


def test_divide_cubic_long_division_oracle():
    T = sympy.symbols("T")
    q_sym, r_sym = sympy.div(T**3, T + 3, T)
    assert sympy.Poly(q_sym, T).all_coeffs()[::-1] == [9, -3, 1]
    assert sympy.Poly(r_sym, T).all_coeffs()[::-1] == [-27]
    K = 4
    f = S(3, K, 5, [0, 0, 0, 1])
    P = S(3, K, 5, [3, 1])
    q, r = weierstrass_divide(f, P)
    assert q == S(3, K, 5, [9, -3 % 81, 1])
    assert r == S(3, K, 5, [-27 % 81])
    assert q * P + r == f


def test_divide_zero():
    P = S(3, 4, 5, [3, 1])
    q, r = weierstrass_divide(TruncatedSeries.zero(3, 4, 5), P)
    assert q.is_zero() and r.is_zero()


def test_divide_rejects_non_distinguished():
    with pytest.raises(ValueError):
        weierstrass_divide(S(3, 4, 5, [1]), S(3, 4, 5, [1, 1]))


any_series = st.lists(st.integers(0, 3 ** 5 - 1), min_size=6, max_size=6).map(
    lambda cs: S(3, 5, 6, cs)
)


@settings(max_examples=200, deadline=None)
@given(any_series, dist_polys)
def test_divide_recompose(f, low):
    P = S(3, 5, 6, low + [1])
    q, r = weierstrass_divide(f, P)
    assert q * P + r == f
    d = len(low)
    assert all(c == 0 for c in r.coeffs[d:])


def test_weierstrass_form_validation():
    with pytest.raises(ValueError):
        WeierstrassForm(0, S(3, 4, 5, [1, 1]), TruncatedSeries.one(3, 4, 5))
    with pytest.raises(ValueError):
        WeierstrassForm(0, S(3, 4, 5, [3, 1]), S(3, 4, 5, [3]))


# ----------------------------------------------------- specialization rings

def test_eisenstein_ring_valuations():
    for j in (1, 2, 5):
        ring = SpecializationRing(p=3, j=j, K=6, kind="eisenstein")
        p_img = ring.image_valuation(S(3, 6, 8, [3]))
        assert p_img == j
        t_img = ring.image_valuation(S(3, 6, 8, [0, 1]))
        assert t_img == 1


def test_unramified_ring_valuations():
    ring = SpecializationRing(p=3, j=4, K=9, kind="unramified", a=0)
    assert ring.image_valuation(S(3, 9, 8, [3])) == 1
    # T maps to a - p^j = -81, valuation 4
    assert ring.image_valuation(S(3, 9, 8, [0, 1])) == 4


def test_eisenstein_relation_collapses():
    # p + T^j is exactly the defining relation, so its image is 0
    ring = SpecializationRing(p=3, j=2, K=4, kind="eisenstein")
    f = S(3, 4, 6, [3, 0, 1])
    assert ring.image_valuation(f) >= ring.valuation_cap
    assert ring.image_valuation(f) == ring.valuation_cap


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3 ** 4 - 1), min_size=5, max_size=5),
       st.lists(st.integers(0, 3 ** 4 - 1), min_size=5, max_size=5),
       st.integers(1, 4))
def test_eisenstein_valuation_additive(cs1, cs2, j):
    ring = SpecializationRing(p=3, j=j, K=4, kind="eisenstein")
    f, g = S(3, 4, 5, cs1), S(3, 4, 5, cs2)
    vf, vg = ring.image_valuation(f), ring.image_valuation(g)
    vfg = ring.image_valuation(f * g)
    # additivity is exact below both the p-precision cap and the T-truncation
    # (the discarded tail T^5*(...) has image valuation >= 5 here)
    if vf + vg < min(5, ring.valuation_cap):
        assert vfg == vf + vg


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

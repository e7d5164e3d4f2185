"""Factored-ideal comparisons, classes, square roots, and tower slopes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwafitt.errors import (
    InputError,
    NotASquare,
    RingMismatch,
    SupportCollision,
)
from iwafitt.ideals import (
    ElementaryLambdaModule,
    HeightOnePrime,
    LambdaIdealFactored,
    PseudoClass,
    class_of,
    elementary_fitting_class,
    factor_series,
    odd_from_even,
    ord_at_prime,
    parity_audit,
    prec_leq,
    pseudo_square_root,
    sim,
    slope_report,
    specialize_elementary,
)
from iwafitt.ring import TruncatedSeries

PI = HeightOnePrime.pi(3)
T = HeightOnePrime.polynomial(3, [0, 1])
T3 = HeightOnePrime.polynomial(3, [3, 1])
Q = HeightOnePrime.polynomial(3, [9, 0, 1])


def ideal(basis, *gens):
    return LambdaIdealFactored(tuple(basis), tuple(gens))


# ------------------------------------------------------------------ primes


def test_prime_labels():
    assert PI.label() == "PI"
    assert T.label() == "T"
    assert T3.label() == "T+3"
    assert Q.label() == "T^2+9"
    assert HeightOnePrime.polynomial(3, [9, 3, 1]).label() == "T^2+3T+9"


def test_prime_validation():
    with pytest.raises(ValueError):
        HeightOnePrime.polynomial(3, [1, 1])  # constant term is a unit
    with pytest.raises(ValueError):
        HeightOnePrime.polynomial(3, [3, 2])  # not monic
    with pytest.raises(ValueError):
        HeightOnePrime.polynomial(3, [3.9, 1])  # coefficients are integers


@pytest.mark.parametrize("build", [
    lambda: LambdaIdealFactored((PI,), ((1.5,),)),
    lambda: LambdaIdealFactored((PI, T), ((1, "2"),)),
    lambda: LambdaIdealFactored((PI,), ((True,),)),
    lambda: ElementaryLambdaModule(((PI, (1, 2.0)),)),
    lambda: ElementaryLambdaModule(((T, ("1",)),)),
    lambda: PseudoClass((PI, T), (1, 2.5)),
    lambda: PseudoClass((PI,), (True,)),
], ids=["ideal-float", "ideal-str", "ideal-bool", "module-float", "module-str",
        "class-float", "class-bool"])
def test_library_exponents_must_be_integers(build):
    # these were silently run through int(): (1.5,) held the generator (1,)
    with pytest.raises(ValueError, match="integers"):
        build()


def test_quadratic_irreducibility_is_decided():
    # Eisenstein at 3
    assert HeightOnePrime.polynomial(3, [3, 0, 1]).verified
    # discriminant -36 = 3^2 * (-4), and -4 is not a square mod 3
    assert HeightOnePrime.polynomial(3, [9, 0, 1]).verified
    # (T+3)^2 factors
    with pytest.raises(ValueError):
        HeightOnePrime.polynomial(3, [9, 6, 1])
    # p = 2: disc(T^2+4) = -16, odd part -1 = 7 mod 8, not a square
    assert HeightOnePrime.polynomial(2, [4, 0, 1]).verified
    with pytest.raises(ValueError):
        HeightOnePrime.polynomial(2, [4, 4, 1])  # (T+2)^2


def test_cubic_primes_are_trusted_not_verified():
    cubic = HeightOnePrime.polynomial(3, [3, 0, 0, 1])
    assert not cubic.verified


# ------------------------------------------------------------- ord and sim


def test_ord_examples():
    I = ideal([PI, T], (2, 0), (1, 1))  # (p^2, pT)
    assert ord_at_prime(I, PI) == 1
    assert ord_at_prime(I, T) == 0
    f = ideal([T3], (1,))
    assert ord_at_prime(f, T3) == 1
    assert ord_at_prime(f, Q) == 0  # prime outside the support


def test_prec_examples():
    just_p = ideal([PI], (1,))
    p_and_t = ideal([PI, T], (1, 0), (0, 1))
    assert prec_leq(just_p, p_and_t)
    assert not prec_leq(p_and_t, just_p)
    assert prec_leq(just_p, just_p)


def test_class_examples():
    assert class_of(ideal([PI, T], (2, 0), (1, 1))).to_dict() == {"PI": 1}
    f = ideal([T3], (1,))
    assert class_of(f).to_dict() == {"T+3": 1}
    big = ideal([PI, T], (2, 2), (3, 2))
    assert class_of(big).to_dict() == {"PI": 2, "T": 2}


def test_class_canonical_order_and_trivial():
    c = class_of(ideal([Q, T, PI], (1, 1, 1)))
    assert c.primes == (PI, T, Q)
    assert class_of(ideal([PI], (0,))).is_trivial()


def test_sqrt_examples():
    sq = ideal([PI, T], (1, 1)).square()
    assert pseudo_square_root(sq).to_dict() == {"PI": 1, "T": 1}
    assert pseudo_square_root(ideal([PI, T], (2, 2), (3, 2))).to_dict() == {
        "PI": 1,
        "T": 1,
    }
    with pytest.raises(NotASquare):
        pseudo_square_root(ideal([PI, T], (1, 1)))


# ------------------------------------------------------- random properties


def random_ideal(rng, basis=(PI, T)):
    gens = [
        tuple(rng.randint(0, 1) for _ in basis)
        for _ in range(rng.randint(1, 2))
    ]
    return ideal(basis, *gens)


def test_sim_is_an_equivalence():
    rng = random.Random(7)
    seen_equal = 0
    for _ in range(500):
        a, b, c = (random_ideal(rng) for _ in range(3))
        assert sim(a, a)
        assert sim(a, b) == sim(b, a)
        if sim(a, b) and sim(b, c):
            seen_equal += 1
            assert sim(a, c)
    assert seen_equal > 20  # the transitivity branch actually fired


def dominated_variant(rng, I):
    """Same class, different presentation: adjoin dominated generators."""
    extra = tuple(
        e + rng.randint(0, 2) for e in I.generators[rng.randrange(len(I.generators))]
    )
    return LambdaIdealFactored(I.basis, I.generators + (extra,))


def test_sim_respects_sums_and_products():
    rng = random.Random(11)
    for _ in range(120):
        i1, i2 = random_ideal(rng), random_ideal(rng, basis=(PI, T, T3))
        j1, j2 = dominated_variant(rng, i1), dominated_variant(rng, i2)
        assert sim(i1, j1) and sim(i2, j2)
        assert sim(i1 + i2, j1 + j2)
        assert sim(i1 * i2, j1 * j2)


def test_class_is_idempotent():
    rng = random.Random(13)
    for _ in range(100):
        I = random_ideal(rng, basis=(PI, T, T3))
        c = class_of(I)
        assert class_of(c.as_ideal()) == c


def test_sqrt_of_square_recovers_class():
    rng = random.Random(17)
    for _ in range(100):
        I = random_ideal(rng, basis=(PI, T3))
        assert pseudo_square_root(I.square()) == class_of(I)


def test_equivalent_ideals_share_square_roots():
    rng = random.Random(19)
    for _ in range(100):
        base = tuple(2 * rng.randint(0, 2) for _ in range(2))
        I = ideal([PI, T], base)
        J = dominated_variant(rng, I)
        assert sim(I, J)
        assert pseudo_square_root(I) == pseudo_square_root(J)


# --------------------------------------------------------------- elementary


def E(*components):
    return ElementaryLambdaModule(tuple(components))


def test_elementary_fitting_class_examples():
    assert elementary_fitting_class(E((PI, (1, 2))), 1).to_dict() == {"PI": 1}
    both = E((PI, (1, 2)), (T, (0, 3)))
    assert elementary_fitting_class(both, 0).to_dict() == {"PI": 3, "T": 3}
    assert elementary_fitting_class(both, 2).is_trivial()


def test_elementary_fitting_class_chain():
    rng = random.Random(23)
    for _ in range(60):
        mod = E(
            (PI, tuple(sorted(rng.randint(0, 3) for _ in range(3)))),
            (T, tuple(sorted(rng.randint(0, 3) for _ in range(2)))),
        )
        prev = None
        for i in range(mod.width + 1):
            cur = elementary_fitting_class(mod, i).as_mapping()
            if prev is not None:
                for pr, e in cur.items():
                    assert e <= prev.get(pr, 0)
                assert all(pr in cur or e == 0 for pr, e in prev.items() if e == 0)
            prev = cur


def test_odd_from_even_examples():
    doubled = E((PI, (1, 1, 2, 2)))
    f0 = elementary_fitting_class(doubled, 0)
    f2 = elementary_fitting_class(doubled, 2)
    assert f0.to_dict() == {"PI": 6} and f2.to_dict() == {"PI": 2}
    assert odd_from_even(f0, f2).to_dict() == {"PI": 4}
    assert odd_from_even(f0, f2) == elementary_fitting_class(doubled, 1)
    assert odd_from_even(PseudoClass.trivial(), PseudoClass.trivial()).is_trivial()
    tsq = E((T, (1, 1)))
    assert odd_from_even(
        elementary_fitting_class(tsq, 0), elementary_fitting_class(tsq, 2)
    ).to_dict() == {"T": 1}


def test_odd_from_even_parity_guard():
    with pytest.raises(NotASquare):
        odd_from_even(
            PseudoClass((PI,), (1,)), PseudoClass.trivial()
        )


def test_odd_from_even_matches_direct_on_doubled_modules():
    rng = random.Random(29)
    for _ in range(100):
        M = E(
            (PI, tuple(sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 2))))),
            (T, tuple(sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 2))))),
        )
        Y = M.doubled()
        for i in range(Y.width // 2 + 1):
            f_lo = elementary_fitting_class(Y, 2 * i)
            f_hi = elementary_fitting_class(Y, 2 * i + 2)
            assert odd_from_even(f_lo, f_hi) == elementary_fitting_class(
                Y, 2 * i + 1
            )


# ------------------------------------------------------------ specialization


def test_specialize_linear_prime_down_its_own_tower():
    for j in (3, 4, 7):
        out = specialize_elementary(E((T, (2,))), T, j, 0)
        assert out.tower == "unramified"
        assert out.exponents == (2 * j,)
        assert out.m == 2 * j


def test_specialize_pi_down_the_ramified_tower():
    for j in (3, 5):
        out = specialize_elementary(E((PI, (1,))), PI, j, 0)
        assert out.tower == "eisenstein"
        assert out.m == j


def test_specialize_off_prime_stays_bounded():
    values = [specialize_elementary(E((T, (1,))), PI, j, 0).m for j in (3, 4, 5, 8)]
    assert values == [1, 1, 1, 1]


def test_specialize_support_collision():
    mod = E((HeightOnePrime.polynomial(3, [9, 1]), (1,)))  # prime T+9
    with pytest.raises(SupportCollision):
        specialize_elementary(mod, T, 2, 0)
    assert specialize_elementary(mod, T, 3, 0).m == 2


def test_specialize_rejects_towers_at_higher_degree():
    with pytest.raises(ValueError):
        specialize_elementary(E((PI, (1,))), Q, 4, 0)


def test_slope_law_on_random_modules():
    rng = random.Random(31)
    for _ in range(25):
        mod = E(
            (PI, tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))),
            (T, tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))),
            (T3, (rng.randint(0, 2),)),
        )
        P = (PI, T)[rng.randrange(2)]
        i = rng.randint(0, 2)
        report = slope_report(mod, P, i, window=range(3, 11))
        assert report["stabilized_slope"] == report["predicted_slope"]
        values, predicted = report["values"], report["predicted_slope"]
        assert values[10] - values[9] == values[9] - values[8] == predicted
        assert report["deviation"] <= 40


# ------------------------------------------------------------------ parity


def family_for(mod, P=PI, window=range(3, 9)):
    return [(j, specialize_elementary(mod, P, j, 0)) for j in window]


def test_parity_audit_examples():
    assert parity_audit(family_for(E((PI, (1, 1)))))
    assert parity_audit(family_for(E((PI, (1, 1, 2, 2)))))
    assert not parity_audit(family_for(E((PI, (1,)))))


def test_parity_audit_mixed_slopes_from_raw_rows():
    rows = [(j, (j, j, 2 * j, 2 * j)) for j in range(3, 8)]
    assert parity_audit(rows)
    rows = [(j, (j, 5, 5)) for j in range(3, 8)]
    assert not parity_audit(rows)
    with pytest.raises(ValueError):
        parity_audit(rows[:1])


# ------------------------------------------------------------- raw series


def S(coeffs, K=8, m=8):
    return TruncatedSeries.make(3, K, m, coeffs)


def test_factor_series_reads_exponents():
    basis = (PI, T)
    assert factor_series(S([0, 3]), basis) == (1, 1)  # p*T
    assert factor_series(S([0, 0, 9]), basis) == (2, 2)
    assert factor_series(S([2]), basis) == (0, 0)  # a unit


def test_factor_series_rejects_unsupported_generators():
    with pytest.raises(RingMismatch):
        factor_series(S([3, 1]), (T,))  # T+3 is not in the basis
    with pytest.raises(RingMismatch):
        factor_series(S([3]), (T,))  # content needs PI declared
    with pytest.raises(ValueError):
        factor_series(S([0]), (PI, T))


def test_ideal_from_series_generators():
    I = LambdaIdealFactored.from_series_generators(
        (PI, T, T3), [S([0, 9, 3]), S([9])]
    )
    # 3T(T+3) and 9
    assert I.generators == ((1, 1, 1), (2, 0, 0))
    assert class_of(I).to_dict() == {"PI": 1}


# -------------------------------------------------------------------- JSON


def test_ideal_from_dict():
    I = LambdaIdealFactored.from_dict(
        {
            "p": 3,
            "basis": ["PI", {"dist": [0, 1]}],
            "generators": [[2, 0], [1, 1]],
        }
    )
    assert class_of(I).to_dict() == {"PI": 1}


def test_ideal_from_dict_error_paths():
    with pytest.raises(InputError) as e:
        LambdaIdealFactored.from_dict({"basis": [0], "generators": [[0]]})
    assert e.value.json_path == "$.basis[0]"
    with pytest.raises(InputError) as e:
        LambdaIdealFactored.from_dict({"basis": ["PI"], "generators": [[1, 2]]})
    assert e.value.json_path == "$.generators[0]"
    with pytest.raises(InputError) as e:
        LambdaIdealFactored.from_dict({"basis": ["PI"], "generators": []})
    assert e.value.json_path == "$.generators"


def test_elementary_from_dict():
    mod = ElementaryLambdaModule.from_dict(
        {
            "p": 3,
            "components": [
                {"prime": "PI", "exponents": [2, 1]},
                {"prime": {"dist": [0, 1]}, "exponents": [3]},
            ],
        }
    )
    assert mod.components[0][1] == (1, 2)  # sorted on entry
    assert elementary_fitting_class(mod, 0).to_dict() == {"PI": 3, "T": 3}


# --------------------------------------------------------------- hypothesis


vectors = st.lists(st.integers(0, 3), min_size=2, max_size=2).map(tuple)


@settings(max_examples=200)
@given(st.lists(vectors, min_size=1, max_size=3), st.lists(vectors, min_size=1, max_size=3))
def test_prec_is_a_preorder_compatible_with_class(gv, hv):
    I, J = ideal([PI, T], *gv), ideal([PI, T], *hv)
    assert prec_leq(I, I)
    if prec_leq(I, J) and prec_leq(J, I):
        assert class_of(I) == class_of(J)
    # the product is before both factors
    assert prec_leq(I * J, I) and prec_leq(I * J, J)
    # the sum is after both
    assert prec_leq(I, I + J) and prec_leq(J, I + J)

"""Minor enumeration, diagonalization, and the structure formulas."""

import dataclasses
import gc
import random
import time
import weakref
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as zz_snf

from iwafitt import fitting
from iwafitt.errors import InsufficientPrecision, NotTorsion, RingMismatch
from iwafitt.fitting import (
    ElementaryDVRModule,
    PresentationMatrix,
    RingDescriptor,
    direct_sum_fitting,
    dvr_structure,
    fitting_from_structure,
    fitting_ideal,
    minor_fitting_exponent,
    smith_normal_form,
)
from iwafitt.ideals import ElementaryLambdaModule, HeightOnePrime, elementary_fitting_class
from iwafitt.ring import TruncatedSeries, padic_valuation

DVR = RingDescriptor("dvr", 3, 12)


def dvr_matrix(entries, ring=DVR):
    return PresentationMatrix.make(ring, entries)


def exp_of(M, i):
    return fitting_ideal(M, i).exponent


# ---------------------------------------------------------------- examples


def test_fitting_diag_123():
    M = dvr_matrix([[3, 0, 0], [0, 9, 0], [0, 0, 27]])
    # 2x2 minors of the diagonal are {p^3, p^4, p^5}; the minimum wins
    assert exp_of(M, 1) == 3
    assert exp_of(M, 0) == 6
    assert exp_of(M, 2) == 1
    assert exp_of(M, 3) == 0


def test_fitting_single_relation():
    for k in (1, 2, 5):
        M = dvr_matrix([[3**k]])
        assert exp_of(M, 0) == k
        assert exp_of(M, 1) == 0


def test_fitting_empty_presentation_is_full_ring():
    M = PresentationMatrix(DVR, 0, 0, ())
    assert exp_of(M, 0) == 0


def test_fitting_zero_ideal_when_relations_run_out():
    # two generators, one relation: the order-2 minors do not exist
    M = dvr_matrix([[3], [9]])
    assert exp_of(M, 0) == "full"
    arting = RingDescriptor("Zp_mod_pk", 3, 4)
    N = PresentationMatrix.make(arting, [[3], [9]])
    assert exp_of(N, 0) == 4


def test_fitting_rejects_bad_index():
    M = dvr_matrix([[3]])
    with pytest.raises(ValueError):
        fitting_ideal(M, -1)
    with pytest.raises(ValueError):
        fitting_ideal(M, True)


INDEX_SITES = {
    "fitting_ideal": lambda i: fitting_ideal(dvr_matrix([[3]]), i),
    "minor_fitting_exponent": lambda i: minor_fitting_exponent(dvr_matrix([[3]]), i),
    "fitting_from_structure": lambda i: fitting_from_structure(ElementaryDVRModule((1, 2)), i),
    "elementary_fitting_class": lambda i: elementary_fitting_class(
        ElementaryLambdaModule(((HeightOnePrime.pi(3), (1, 2)),)), i
    ),
    "ElementaryDVRModule": lambda e: ElementaryDVRModule((1, e)),
}


@pytest.mark.parametrize("site", sorted(INDEX_SITES))
@pytest.mark.parametrize("bad", [-1, True, 1.0, "1"], ids=repr)
def test_every_index_check_raises_one_error(site, bad):
    # one helper guards every index and exponent argument of the library
    with pytest.raises(ValueError, match=r"must be an integer >= \d+, got"):
        INDEX_SITES[site](bad)


def test_fitting_chain_on_small_example():
    M = dvr_matrix([[3, 1, 0], [0, 9, 3], [27, 0, 9]])
    exps = [exp_of(M, i) for i in range(4)]
    vals = [12 if e == "full" else e for e in exps]
    assert vals == sorted(vals, reverse=True)


# ---------------------------------------------------------------- Smith form


def test_snf_permuted_diagonal():
    cert = smith_normal_form(dvr_matrix([[9, 0], [0, 3]]))
    assert cert.exponents == (1, 2)


def test_snf_dense_two_by_two():
    # divisors of [[3,3],[3,9]]: gcd has valuation 1 and the determinant
    # 27-9 has valuation 2, so both exponents are 1
    cert = smith_normal_form(dvr_matrix([[3, 3], [3, 9]]))
    assert cert.exponents == (1, 1)


def test_snf_unit_divisor():
    cert = smith_normal_form(dvr_matrix([[1, 0], [0, 3]]))
    assert cert.exponents == (0, 1)


def test_snf_certificate_shape():
    M = dvr_matrix([[3, 3], [3, 9]])
    cert = smith_normal_form(M)
    assert cert.verifies(M)
    q = 3**12
    for i, e in enumerate(cert.exponents):
        assert cert.diagonal[i][i] == 3**e % q
    # off-diagonal must be clean zeros
    assert all(
        cert.diagonal[i][j] == 0
        for i in range(2)
        for j in range(2)
        if i != j
    )
    # the transformations are products of elementary ops: unit determinant
    for mat in (cert.left, cert.right):
        det = sympy.Matrix([list(r) for r in mat]).det()
        assert padic_valuation(3, int(det) % q, 12) == 0


def test_snf_refuses_zero_pivot_at_precision():
    with pytest.raises(InsufficientPrecision):
        smith_normal_form(dvr_matrix([[0]]))
    cert = smith_normal_form(dvr_matrix([[0]]), allow_zero_block=True)
    assert cert.exponents == (12,)


def test_snf_refuses_lambda_kind():
    with pytest.raises(RingMismatch):
        smith_normal_form(PresentationMatrix.make(LAM, [[[0, 1]]]))


def test_snf_over_zp_mod_pk():
    # Z/3^4 is a local principal ideal ring: the DVR pivoting applies as is
    arting = RingDescriptor("Zp_mod_pk", 3, 4)
    M = PresentationMatrix.make(arting, [[9, 3, 0], [27, 6, 0], [0, 0, 81]])
    cert = smith_normal_form(M, allow_zero_block=True)
    assert cert.verifies(M)
    # det of the 2x2 block is 54 - 81 = -27, so the divisors are p, p^2;
    # the third entry is 81 = 0 mod 3^4 and pads with K
    assert cert.exponents == (1, 2, 4)
    with pytest.raises(InsufficientPrecision):
        smith_normal_form(M)


def _bumped(mat, q):
    """mat with its first entry raised by 1 mod q."""
    first = ((mat[0][0] + 1) % q,) + mat[0][1:]
    return (first,) + mat[1:]


@pytest.mark.parametrize("p,entries,cols", [
    (3, [[3, 1], [9, 27]], 2),  # square
    (3, [[3, 1, 0], [0, 9, 3]], 3),  # wide
    (3, [[9, 3], [1, 0], [0, 27]], 2),  # tall
    (2, [], 3),  # no rows: only V has entries
    (2, [[], []], 0),  # no columns: only U has entries
], ids=["square", "wide", "tall", "zero_rows", "zero_cols"])
def test_snf_certificate_rejects_one_changed_entry(p, entries, cols):
    K = 5
    q = p**K
    ring = RingDescriptor("dvr", p, K)
    M = PresentationMatrix(ring, len(entries), cols, tuple(map(tuple, entries)))
    cert = smith_normal_form(M)
    assert cert.verifies(M)
    changed = 0
    for part in ("left", "diagonal", "right"):
        mat = getattr(cert, part)
        if not mat or not mat[0]:
            continue
        bad = dataclasses.replace(cert, **{part: _bumped(mat, q)})
        assert not bad.verifies(M), part
        changed += 1
    assert changed == (3 if entries and cols else 1)


def test_snf_certificate_rejects_singular_transforms_and_wrong_exponents():
    M = dvr_matrix([[3, 1], [9, 27]])
    cert = smith_normal_form(M)
    zero = ((0, 0), (0, 0))
    # a zero U with D = 0 satisfies U A V = D for any A
    assert not dataclasses.replace(cert, left=zero, diagonal=zero).verifies(M)
    assert not dataclasses.replace(cert, right=zero, diagonal=zero).verifies(M)
    # the exponents a Fitting chain reads must match the diagonal
    assert cert.exponents == (0, 2)
    for exps in ((0, 3), (2, 0), (0,), (0, 2, 2)):
        assert not dataclasses.replace(cert, exponents=exps).verifies(M)


# ---------------------------------------------------------------- structure


def test_structure_examples():
    assert dvr_structure(
        dvr_matrix([[3, 0, 0], [0, 9, 0], [0, 0, 27]])
    ).exponents == (1, 2, 3)
    assert dvr_structure(dvr_matrix([[3, 3], [3, 9]])).exponents == (1, 1)
    assert dvr_structure(dvr_matrix([[3**5]])).exponents == (5,)
    assert dvr_structure(dvr_matrix([[1, 0], [0, 3]])).exponents == (1,)


def test_structure_free_summand_always_rejected():
    M = dvr_matrix([[3], [9]])
    with pytest.raises(NotTorsion):
        dvr_structure(M)
    with pytest.raises(NotTorsion):
        dvr_structure(M, assume_torsion=True)


def test_structure_zero_divisor_needs_vouching():
    M = dvr_matrix([[3, 0], [0, 0]])
    with pytest.raises(NotTorsion):
        dvr_structure(M)
    assert dvr_structure(M, assume_torsion=True).exponents == (1, 12)


# ------------------------------------------------------- structure formulas


def test_fitting_from_structure_examples():
    E = ElementaryDVRModule((1, 2, 3))
    assert [fitting_from_structure(E, i) for i in range(4)] == [6, 3, 1, 0]
    assert fitting_from_structure(ElementaryDVRModule((7,)), 0) == 7
    assert fitting_from_structure(ElementaryDVRModule((1, 1, 2, 2)), 1) == 4


def test_fitting_from_structure_matches_minor_oracle():
    # the formula against direct minor enumeration on the diagonal matrix
    for exps in [(1, 2, 3), (1, 1, 2, 2), (4,), (2, 2)]:
        E = ElementaryDVRModule(exps)
        M = dvr_matrix(
            [
                [3**e if r == c else 0 for c in range(len(exps))]
                for r, e in enumerate(exps)
            ]
        )
        for i in range(len(exps) + 2):
            assert fitting_from_structure(E, i) == minor_fitting_exponent(M, i)


def test_direct_sum_examples():
    one, two = ElementaryDVRModule((1,)), ElementaryDVRModule((2,))
    assert direct_sum_fitting(one, two, 1) == 1
    empty = ElementaryDVRModule(())
    assert direct_sum_fitting(empty, two, 0) == fitting_from_structure(two, 0)
    pair = ElementaryDVRModule((1, 1))
    assert direct_sum_fitting(pair, pair, 2) == 2


def test_elementary_module_validation():
    with pytest.raises(ValueError):
        ElementaryDVRModule((2, 1))
    with pytest.raises(ValueError):
        ElementaryDVRModule((0, 1))


# ------------------------------------------------------------- bulk oracle


def random_torsion_matrix(rng, n, K=12, p=3):
    """U * diag(p^e) * V for random small exponents and unimodular U, V."""
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
    return dvr_matrix(A), exps


def test_minors_match_structure_on_random_matrices():
    rng = random.Random(20260822)
    for trial in range(210):
        n = rng.randint(1, 6)
        M, exps = random_torsion_matrix(rng, n)
        E = dvr_structure(M)
        assert list(E.exponents) == [e for e in exps if e > 0]
        for i in range(7):
            assert minor_fitting_exponent(M, i) == fitting_from_structure(
                E, i
            ), (trial, i)


def test_structure_against_integer_snf_oracle():
    rng = random.Random(404)
    for _ in range(20):
        n = rng.randint(2, 5)
        M, _ = random_torsion_matrix(rng, n)
        D = zz_snf(sympy.Matrix([list(r) for r in M.entries]), domain=sympy.ZZ)
        oracle = sorted(
            padic_valuation(3, int(D[i, i]), 12) for i in range(n)
        )
        cert = smith_normal_form(M)
        assert list(cert.exponents) == oracle


def test_planted_chain_at_n14_reads_the_smith_form():
    # by minors the middle index alone takes minutes; the Smith form
    # reads the whole chain in milliseconds
    rng = random.Random(14)
    ring = RingDescriptor("dvr", 3, 40)
    exps = sorted(rng.randint(0, 3) for _ in range(14))
    q = 3**40
    A = [[3 ** exps[r] if r == c else 0 for c in range(14)] for r in range(14)]
    for _ in range(60):
        i, j = rng.sample(range(14), 2)
        c = rng.randint(-9, 9)
        A[i] = [(a + c * b) % q for a, b in zip(A[i], A[j])]
        for row in A:
            row[j] = (row[j] + c * row[i]) % q
    M = PresentationMatrix.make(ring, A)
    t0 = time.perf_counter()
    chain = [exp_of(M, i) for i in range(15)]
    elapsed = time.perf_counter() - t0
    assert chain == [sum(exps[: 14 - i]) for i in range(15)]
    assert elapsed < 1.0, elapsed


# ---------------------------------------------------------------- properties


@st.composite
def principal_matrices(draw):
    """Rectangular Z/p^K or dvr matrices with zero entries and zero blocks."""
    kind = draw(st.sampled_from(("dvr", "Zp_mod_pk")))
    p = draw(st.sampled_from((2, 3, 5)))
    K = draw(st.integers(1, 8))
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    q = p**K
    entry = st.one_of(
        st.just(0),
        st.builds(lambda v, u: (p**v * u) % q, st.integers(0, K), st.integers(1, 40)),
    )
    entries = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    if draw(st.booleans()):
        # zero out a trailing block of rows and columns
        r0, c0 = draw(st.integers(0, n)), draw(st.integers(0, k))
        for r in range(r0, n):
            for c in range(c0, k):
                entries[r][c] = 0
    return PresentationMatrix.make(RingDescriptor(kind, p, K), entries)


@settings(max_examples=150, deadline=None)
@given(principal_matrices(), st.integers(0, 7))
def test_smith_reading_matches_minor_oracle(M, i):
    assert exp_of(M, i) == minor_fitting_exponent(M, i)


@st.composite
def dvr_matrices(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    q = 3**12
    entries = draw(
        st.lists(
            st.lists(
                st.builds(
                    lambda v, u: (3**v * u) % q,
                    st.integers(0, 4),
                    st.integers(1, 80),
                ),
                min_size=k,
                max_size=k,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return dvr_matrix(entries)


@settings(max_examples=80, deadline=None)
@given(dvr_matrices())
def test_chain_property(M):
    vals = [
        12 if (e := exp_of(M, i)) == "full" else e for i in range(M.rows + 1)
    ]
    assert vals == sorted(vals, reverse=True)


@settings(max_examples=80, deadline=None)
@given(dvr_matrices(), st.integers(0, 4), st.integers(1, 11))
def test_base_change(M, i, new_K):
    before = exp_of(M, i)
    before = 12 if before == "full" else before
    after = exp_of(M.reduce_precision(new_K), i)
    after = new_K if after == "full" else after
    assert after == min(before, new_K)


@settings(max_examples=80, deadline=None)
@given(dvr_matrices(), st.integers(0, 4), st.data())
def test_appending_relations_only_grows_the_ideal(M, i, data):
    extra = data.draw(
        st.lists(
            st.lists(st.integers(0, 3**6), min_size=1, max_size=1),
            min_size=M.rows,
            max_size=M.rows,
        )
    )
    before = exp_of(M, i)
    after = exp_of(M.append_columns(extra), i)
    before = 12 if before == "full" else before
    after = 12 if after == "full" else after
    assert after <= before


# ------------------------------------------------------------- series kind


LAM = RingDescriptor("lambda", 3, 6, 8)


def lam(coeffs):
    return TruncatedSeries.make(3, 6, 8, coeffs)


def test_series_fitting_generators():
    T = [0, 1]
    M = PresentationMatrix.make(LAM, [[T, [0]], [[0], [3]]])
    f0 = fitting_ideal(M, 0)
    assert [list(g.coeffs) for g in f0.generators] == [[0, 3, 0, 0, 0, 0, 0, 0]]
    f1 = fitting_ideal(M, 1)
    assert {g.coeffs for g in f1.generators} == {lam(T).coeffs, lam([3]).coeffs}


def test_series_fitting_dedupes_and_drops_zero():
    T = [0, 1]
    M = PresentationMatrix.make(LAM, [[T, T], [T, T]])
    assert fitting_ideal(M, 0).generators == ()
    assert [g.coeffs for g in fitting_ideal(M, 1).generators] == [lam(T).coeffs]


def test_series_fitting_unit_minor_short_circuits():
    M = PresentationMatrix.make(LAM, [[[1], [0, 1]], [[0], [1]]])
    gens = fitting_ideal(M, 0).generators
    assert len(gens) == 1 and gens[0].is_unit()
    assert fitting_ideal(M, 2).generators[0].is_unit()
    wide = PresentationMatrix.make(LAM, [[[0, 1]], [[3]]])
    assert fitting_ideal(wide, 0).generators == ()


def reference_series_generators(M, i):
    """Slow oracle: the generator tuples of the lambda ideal, from series.

    Laplace expansion along the first row with every product and sum a
    ``TruncatedSeries`` operation, then the first-seen deduplication,
    zero dropping and unit short-circuit of ``fitting_ideal``.
    """
    ring = M.ring
    one = TruncatedSeries.one(ring.p, ring.K, ring.m)
    zero = TruncatedSeries.zero(ring.p, ring.K, ring.m)
    r = M.rows - i
    if r <= 0:
        return [one.coeffs]
    if r > min(M.rows, M.cols):
        return []
    memo = {}

    def det(rs, cs):
        if not rs:
            return one
        if (rs, cs) not in memo:
            total = zero
            for idx, c in enumerate(cs):
                a = M.entries[rs[0]][c]
                if a != zero:
                    term = a * det(rs[1:], cs[:idx] + cs[idx + 1 :])
                    total = total + term if idx % 2 == 0 else total - term
            memo[rs, cs] = total
        return memo[rs, cs]

    gens = {}
    for rs in combinations(range(M.rows), r):
        for cs in combinations(range(M.cols), r):
            g = det(rs, cs)
            if g.is_unit():
                return [one.coeffs]
            if not g.is_zero():
                gens.setdefault(g.coeffs, None)
    return list(gens)


@st.composite
def series_matrices(draw):
    """Rectangular lambda matrices, some entries zero, some units."""
    p = draw(st.sampled_from((2, 3, 5)))
    K, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    unit_odds = draw(st.sampled_from((0, 0.1, 0.5)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    q = p**K

    def entry():
        if rnd.random() < 0.3:
            return [0]
        cs = [rnd.randrange(q) for _ in range(m)]
        if rnd.random() >= unit_odds:
            cs[0] = cs[0] * p % q
        return cs

    entries = [[entry() for _ in range(k)] for _ in range(n)]
    return PresentationMatrix.make(RingDescriptor("lambda", p, K, m), entries)


@settings(max_examples=200, deadline=None)
@given(series_matrices())
def test_series_generators_match_series_laplace_oracle(M):
    for i in range(M.rows + 2):
        got = [g.coeffs for g in fitting_ideal(M, i).generators]
        assert got == reference_series_generators(M, i)


def test_minor_table_interleaved_over_matrices():
    T = [0, 1]
    # row 0 holds no unit, so the first unit 2-minor sits at rows (1, 2):
    # the early break leaves a partial table of A's 2-minors behind
    A = PresentationMatrix.make(LAM, [
        [[3], T, [3, 1]],
        [[1], [3], T],
        [[3, 3], [1], [0, 0, 1]],
    ])
    B = PresentationMatrix.make(LAM, [
        [[3, 1], T, [0], [9, 2]],
        [T, [3], [0, 0, 1], [3]],
        [[0, 3], [9, 1], [3, 3], T],
    ])
    assert fitting_ideal(A, 1).generators[0].is_unit()
    for M in (A, B, A):
        for i in range(M.rows + 2):
            got = [g.coeffs for g in fitting_ideal(M, i).generators]
            assert got == reference_series_generators(M, i)
    # two enumerations running at once each keep the table they started with
    pairs = list(zip(fitting._minors(A, 2), fitting._minors(B, 2)))
    assert pairs == list(zip(list(fitting._minors(A, 2)), list(fitting._minors(B, 2))))


def test_minor_table_dies_with_its_matrix():
    M = PresentationMatrix.make(LAM, [[[3, 1], [0, 1]], [[0, 1], [3, 3]]])
    gc.collect()
    gc.disable()
    try:
        assert len(fitting_ideal(M, 0).generators) == 1
        assert fitting._table[0]() is M
        ref = weakref.ref(M)
        del M
        assert ref() is None
        assert fitting._table is None
    finally:
        gc.enable()


def test_minor_table_leaves_no_cycle_garbage():
    # the table that outlives each call is freed by reference counting
    unit = PresentationMatrix.make(LAM, [[[3, 1], [1]], [[0, 1], [3]]])
    full = PresentationMatrix.make(LAM, [[[3, 1], [0, 1]], [[0, 1], [3, 3]]])
    D = dvr_matrix([[3, 1, 0], [0, 9, 3], [1, 0, 27]])
    gc.collect()
    gc.disable()
    try:
        assert fitting_ideal(unit, 1).generators[0].is_unit()  # early break
        assert gc.collect() == 0
        assert len(fitting_ideal(full, 0).generators) == 1  # full enumeration
        assert gc.collect() == 0
        assert [minor_fitting_exponent(D, i) for i in (0, 1)] == [1, 0]
        assert gc.collect() == 0
    finally:
        gc.enable()


def _count_smith_calls(monkeypatch):
    calls = []
    real = fitting.smith_normal_form

    def counted(M, *args, **kwargs):
        calls.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(fitting, "smith_normal_form", counted)
    return calls


@pytest.mark.parametrize("kind", ["dvr", "Zp_mod_pk"])
def test_smith_slot_diagonalizes_once_per_chain(monkeypatch, kind):
    calls = _count_smith_calls(monkeypatch)
    ring = RingDescriptor(kind, 3, 6)
    M = PresentationMatrix.make(ring, [[3, 1, 0], [0, 9, 3], [1, 0, 27]])
    if kind == "dvr":
        assert dvr_structure(M).exponents == (1,)
    chain = [exp_of(M, i) for i in range(M.rows + 2)]
    assert chain == [minor_fitting_exponent(M, i) for i in range(M.rows + 2)]
    assert chain == [1, 0, 0, 0, 0]
    assert len(calls) == 1
    # the public routine stays uncached: a fresh verified certificate each call
    assert smith_normal_form(M) is not smith_normal_form(M)


def test_smith_slot_interleaved_over_matrices():
    A = dvr_matrix([[3, 1, 0], [0, 9, 3], [1, 0, 27]])
    B = PresentationMatrix.make(
        RingDescriptor("Zp_mod_pk", 2, 5), [[4, 2], [8, 0], [0, 16]]
    )
    C = dvr_matrix([[9, 0], [3, 27]], RingDescriptor("dvr", 3, 3))
    for M in (A, B, A, C, B, C):
        for i in range(M.rows + 2):
            assert exp_of(M, i) == minor_fitting_exponent(M, i), (M, i)


@pytest.mark.parametrize("oracle_first", [True, False])
def test_smith_slot_and_minor_table_share_the_slot(oracle_first):
    M = dvr_matrix([[3, 1, 0], [0, 9, 3], [1, 0, 27]])
    fresh = dvr_matrix([list(row) for row in M.entries])
    want = [minor_fitting_exponent(fresh, i) for i in range(M.rows + 1)]
    for step in ((0, 1) if oracle_first else (1, 0)):
        got = [
            minor_fitting_exponent(M, i) if step == 0 else exp_of(M, i)
            for i in range(M.rows + 1)
        ]
        assert got == want
    # each part was filled once and neither dropped the other
    assert fitting._table[0]() is M
    assert fitting._table[1] is not None and fitting._table[2] == (0, 0, 1)


def test_smith_slot_dies_with_its_matrix():
    M = dvr_matrix([[3, 1, 0], [0, 9, 3], [1, 0, 27]])
    gc.collect()
    gc.disable()
    try:
        assert dvr_structure(M).exponents == (1,)
        assert exp_of(M, 0) == 1
        assert gc.collect() == 0
        assert fitting._table[0]() is M and fitting._table[2] == (0, 0, 1)
        ref = weakref.ref(M)
        del M
        assert ref() is None
        assert fitting._table is None
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------------- JSON


def test_matrix_from_dict_round_trip():
    doc = {
        "ring": {"kind": "dvr", "p": 3, "K": 12},
        "rows": 2,
        "cols": 2,
        "entries": [[3, 0], [0, 9]],
    }
    M = PresentationMatrix.from_dict(doc)
    assert exp_of(M, 0) == 3


def test_matrix_from_dict_reports_paths():
    from iwafitt.errors import InputError

    with pytest.raises(InputError) as e:
        PresentationMatrix.from_dict({"ring": {"kind": "nope"}})
    assert e.value.json_path == "$.ring.kind"
    with pytest.raises(InputError) as e:
        PresentationMatrix.from_dict(
            {
                "ring": {"kind": "dvr", "p": 3, "K": 2},
                "rows": 1,
                "cols": 2,
                "entries": [[1, "x"]],
            }
        )
    assert e.value.json_path == "$.entries[0][1]"
    with pytest.raises(InputError) as e:
        PresentationMatrix.from_dict([1, 2])
    assert e.value.json_path == "$"


def test_matrix_rows_cannot_change_after_construction():
    # the slot keyed by the matrix object must not serve a stale answer
    ring = RingDescriptor("lambda", 3, 4, 2)
    row = [TruncatedSeries.make(3, 4, 2, [3, 0])]
    M = PresentationMatrix(ring, 1, 1, (row,))
    assert fitting_ideal(M, 0).to_dict()["generators"] == [[3, 0]]
    row[0] = TruncatedSeries.make(3, 4, 2, [9, 1])
    assert M.entries == ((TruncatedSeries.make(3, 4, 2, [3, 0]),),)
    assert fitting_ideal(M, 0).to_dict()["generators"] == [[3, 0]]
    fresh = PresentationMatrix(ring, 1, 1, (row,))
    assert fitting_ideal(fresh, 0).to_dict()["generators"] == [[9, 1]]
    # the principal kinds hold their rows the same way
    D = PresentationMatrix(DVR, 1, 2, ([3, 9],))
    assert D.entries == ((3, 9),) and exp_of(D, 0) == 1


def test_entry_coercion_rejects_cross_ring():
    with pytest.raises(RingMismatch):
        PresentationMatrix.make(DVR, [[lam([1])]])
    with pytest.raises(RingMismatch):
        PresentationMatrix.make(LAM, [[3]])
    with pytest.raises(RingMismatch):
        PresentationMatrix.make(
            LAM, [[TruncatedSeries.make(5, 6, 8, [1])]]
        )

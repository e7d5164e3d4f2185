"""Slow reference oracle for the index layer's checks.

The reference functions below rebuild index keys as strings for every
localization pair and rescan every key once per stratum, exactly as the
first implementation did. The library parses each key once and reads
all stratum minima from one pass; these tests compare the two on
simulated systems and on single-entry mutations of them.
"""

from hypothesis import given, settings, strategies as st

from iwafitt.errors import EmptyStratum
from iwafitt.euler import (
    AdmissiblePrimeLabel,
    EulerSystemData,
    SelmerShape,
    partial_global,
    partial_j,
    partial_j_kappa,
    reciprocity_check,
    simulate_system,
    verify_artkappa,
    verify_artsel,
)

IDS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


# ------------------------------------------------------------ reference


def ref_ids(key):
    return [] if key == "1" else [int(s) for s in key.split(".")]


def ref_key(ids):
    return ".".join(str(i) for i in sorted(ids)) if ids else "1"


def ref_weight(key):
    return len(ref_ids(key))


def ref_reciprocity(data):
    for (m_key, ident), loc in data.loc_ord.items():
        ids = ref_ids(m_key)
        if ident not in ids:
            return False
        ind = data.ind_lambda.get(ref_key([i for i in ids if i != ident]))
        if ind is None:
            continue
        if min(ind, data.i_n_val.get(m_key, data.k)) != loc:
            return False
    for (n_key, ident), loc in data.loc_unr.items():
        ids = ref_ids(n_key)
        if ident in ids:
            return False
        m_key = ref_key(ids + [ident])
        ind_m = data.ind_lambda.get(m_key)
        if ind_m is None:
            continue
        if min(loc, data.i_n_val.get(m_key, data.k)) != ind_m:
            return False
    return True


def ref_partial_j(data, j):
    vals = [
        min(ind, data.i_n_val.get(key, data.k))
        for key, ind in data.ind_lambda.items()
        if ref_weight(key) == j
    ]
    if not vals:
        raise EmptyStratum(f"no index of weight {j} carries a lambda element")
    return min(vals)


def ref_partial_j_kappa(data, j):
    vals = [ind for key, ind in data.ind_kappa.items() if ref_weight(key) == j]
    if not vals:
        raise EmptyStratum(f"no index of weight {j} carries a kappa element")
    return min(vals)


def ref_strata(index_map):
    return sorted({ref_weight(key) for key in index_map})


def ref_verify(data, shape, k):
    """(artsel report, artkappa report) from per-stratum scans."""

    def closed_form(delta, start):
        return min(k, delta + sum(shape.d[start:]))

    js = ref_strata(data.ind_lambda)
    ra = {"delta": None, "strata": [], "all_match": True}
    if js:
        delta = min(ref_partial_j(data, j) for j in js)
        ra["delta"] = delta
        for j in js:
            obs = ref_partial_j(data, j)
            exp = closed_form(delta, (j - shape.e) // 2)
            ra["strata"].append(
                {"j": j, "observed": obs, "expected": exp, "match": obs == exp}
            )
        ra["all_match"] = all(s["match"] for s in ra["strata"])
    js = ref_strata(data.ind_kappa)
    rk = {"delta": None, "strata": [], "bridge": [], "all_match": True}
    if js:
        delta = min(ref_partial_j_kappa(data, j) for j in js)
        rk["delta"] = delta
        for j in js:
            obs = ref_partial_j_kappa(data, j)
            exp = closed_form(delta, (j + 1) // 2)
            rk["strata"].append(
                {"j": j, "observed": obs, "expected": exp, "match": obs == exp}
            )
        lam_js = set(ref_strata(data.ind_lambda))
        for j in js:
            if j + 1 in lam_js:
                a, b = ref_partial_j_kappa(data, j), ref_partial_j(data, j + 1)
                rk["bridge"].append(
                    {"j": j, "kappa": a, "lambda_next": b, "match": a == b}
                )
        rk["all_match"] = all(s["match"] for s in rk["strata"]) and all(
            b["match"] for b in rk["bridge"]
        )
    return ra, rk


def outcome(fn, *args):
    try:
        return fn(*args)
    except EmptyStratum as exc:
        return ("EmptyStratum", str(exc))


# ------------------------------------------------------------ systems


@st.composite
def systems(draw):
    e = draw(st.integers(0, 1))
    d = tuple(sorted(draw(st.lists(st.integers(1, 3), max_size=2)), reverse=True))
    shape = SelmerShape(e, d)
    nu_max = draw(st.integers(0, min(4, 2 * len(shape.d) + e + 1)))
    k = draw(st.integers(1, 6))
    generic = draw(st.integers(max(2 * nu_max, 2), 8))
    nongeneric = draw(st.integers(0, 2))
    ids = draw(st.permutations(IDS))[: generic + nongeneric]
    pool = [
        AdmissiblePrimeLabel(ident, draw(st.integers(1, k + 2)), n < generic)
        for n, ident in enumerate(ids)
    ]
    seed = draw(st.integers(0, 2**32 - 1))
    data, _ = simulate_system(shape, k, pool, seed=seed, nu_max=nu_max)
    return shape, k, data


def assert_agree(data, shape, k):
    assert reciprocity_check(data) is ref_reciprocity(data)
    assert (verify_artsel(data, shape, k), verify_artkappa(data, shape, k)) == (
        ref_verify(data, shape, k)
    )
    for j in range(0, 8):
        assert outcome(partial_j, data, j) == outcome(ref_partial_j, data, j)
        assert outcome(partial_j_kappa, data, j) == outcome(
            ref_partial_j_kappa, data, j
        )
    lam = ref_strata(data.ind_lambda)
    want = min(ref_partial_j(data, j) for j in lam) if lam else "empty"
    try:
        got = partial_global(data)
    except EmptyStratum:
        got = "empty"
    assert got == want


@settings(max_examples=150, deadline=None)
@given(systems())
def test_library_matches_oracle_on_simulated_systems(case):
    shape, k, data = case
    assert ref_reciprocity(data)
    assert_agree(data, shape, k)


MAPS = ("ind_lambda", "ind_kappa", "i_n_val", "loc_ord", "loc_unr")


@settings(max_examples=400, deadline=None)
@given(systems(), st.data())
def test_library_matches_oracle_on_single_entry_mutations(case, choice):
    shape, k, data = case
    data = EulerSystemData.from_dict(data.to_dict())
    kind = choice.draw(st.sampled_from(("bump", "delete", "foreign_pair")))
    name = choice.draw(st.sampled_from(MAPS))
    table = getattr(data, name)
    if kind == "foreign_pair" or not table:
        # a pair whose prime id is absent from (loc_ord) or already in
        # (loc_unr) its key; the ids may lie outside the pool
        key = choice.draw(st.sampled_from(sorted(data.i_n_val)))
        have = ref_ids(key)
        value = choice.draw(st.integers(0, k + 1))
        if choice.draw(st.booleans()) or not have:
            outside = [i for i in IDS + (31, 101) if i not in have]
            data.loc_ord[(key, choice.draw(st.sampled_from(outside)))] = value
        else:
            data.loc_unr[(key, choice.draw(st.sampled_from(have)))] = value
    else:
        entry = choice.draw(st.sampled_from(sorted(table)))
        if kind == "delete":
            del table[entry]
        else:
            step = choice.draw(st.sampled_from((-1, 1)))
            table[entry] = max(0, table[entry] + step) if table[entry] else 1
    assert_agree(data, shape, k)


def test_mutations_flip_both_verdicts():
    # a fixed spot check that the oracle is not vacuous: raising one
    # lambda index breaks reciprocity for the library and the oracle
    shape = SelmerShape(0, (2, 1))
    pool = [AdmissiblePrimeLabel(i, 8) for i in IDS[:8]]
    data, _ = simulate_system(shape, 6, pool, seed=3, nu_max=4)
    for key in list(data.ind_lambda)[:5]:
        bad = EulerSystemData.from_dict(data.to_dict())
        bad.ind_lambda[key] += 1
        assert reciprocity_check(bad) is ref_reciprocity(bad) is False

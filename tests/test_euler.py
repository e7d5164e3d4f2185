"""Simulator, stratum-minimum, and reconstruction tests for iwafitt.euler."""

import random

import pytest

from iwafitt.errors import (
    EmptyStratum,
    InputError,
    NoStabilization,
    NotMonotone,
    ParityMismatch,
    PoolExhausted,
)
from iwafitt.euler import (
    AdmissiblePrimeLabel,
    EulerSystemData,
    SelmerShape,
    _derive,
    artkappa_rhs,
    artsel_rhs,
    construct_C,
    construct_D,
    delta_limit,
    highfitt_consistency,
    index_key,
    key_weight,
    partial_global,
    partial_j,
    partial_j_kappa,
    reciprocity_check,
    reconstruct_shape,
    sha_exponents,
    simulate_system,
    stabilization_index,
    synthetic_c_family,
    verify_artkappa,
    verify_artsel,
)
from iwafitt.fitting import ElementaryDVRModule, fitting_from_structure
from iwafitt.ideals import (
    ElementaryLambdaModule,
    HeightOnePrime,
    LambdaIdealFactored,
    class_of,
    specialized_ideal_ord,
)
from iwafitt.ring import TruncatedSeries

IDS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

PI = HeightOnePrime.pi(3)
T = HeightOnePrime.polynomial(3, (0, 1))


def gpool(n, k_ell):
    return [AdmissiblePrimeLabel(IDS[i], k_ell=k_ell) for i in range(n)]


def series(coeffs):
    return TruncatedSeries.make(3, 6, 8, coeffs)


# ------------------------------------------------------------ basic types


def test_shape_normalization_and_parsing():
    assert SelmerShape(0, (2, 1, 0, 0)).d == (2, 1)
    assert SelmerShape(1).d == ()
    assert SelmerShape.from_string("0:2,1") == SelmerShape(0, (2, 1))
    assert SelmerShape.from_string("1:") == SelmerShape(1, ())


def test_shape_rejects_bad_input():
    with pytest.raises(ValueError):
        SelmerShape(2, ())
    with pytest.raises(ValueError):
        SelmerShape(0, (1, 2))  # increasing
    with pytest.raises(ValueError):
        SelmerShape(0, (-1,))
    for e, d in ((True, ()), (1.0, ()), (0, (2.0,)), (0, ("1",)), (0, (True,))):
        with pytest.raises(ValueError):
            SelmerShape(e, d)  # was read through int() or `in (0, 1)`
    with pytest.raises(ValueError):
        SelmerShape.from_string("2:1")
    with pytest.raises(ValueError):
        SelmerShape.from_string("no-colon")
    # the d-part is canonical decimals only, not whatever int() reads
    for text in ("0:+2", "0: 2", "0:02", "0:\u0662", "0:2,,1", "0:2,", "0:,"):
        with pytest.raises(ValueError):
            SelmerShape.from_string(text)
    assert SelmerShape.from_string("1:") == SelmerShape(1, ())
    assert SelmerShape.from_string("0:2,1") == SelmerShape(0, (2, 1))


def test_label_validation_and_order():
    with pytest.raises(ValueError):
        AdmissiblePrimeLabel(2, k_ell=0)
    lab = AdmissiblePrimeLabel.from_dict({"id": 7, "k": 3, "generic": False})
    assert (lab.ident, lab.k_ell, lab.generic) == (7, 3, False)
    assert AdmissiblePrimeLabel.from_dict(lab.to_dict()) == lab
    with pytest.raises(InputError):
        AdmissiblePrimeLabel.from_dict({"id": "x"})
    with pytest.raises(InputError):
        AdmissiblePrimeLabel.from_dict({"id": 2, "k": True})
    assert sorted([AdmissiblePrimeLabel(5), AdmissiblePrimeLabel(2)])[0].ident == 2


@pytest.mark.parametrize("ident", [1, 0, -3])
def test_label_ids_below_two_are_refused(ident):
    # id 1 would share the key "1" with the empty product
    with pytest.raises(ValueError):
        AdmissiblePrimeLabel(ident)
    with pytest.raises(InputError, match=r"\$\.pool\[0\]\.id"):
        EulerSystemData.from_dict(
            {"epsilon": 0, "k": 3, "pool": [{"id": ident}]}
        )


def test_index_key_and_weight():
    assert index_key([]) == "1"
    assert key_weight("1") == 0
    labs = [AdmissiblePrimeLabel(5), AdmissiblePrimeLabel(2)]
    assert index_key(labs) == "2.5"
    assert key_weight("2.3.5") == 3


# ------------------------------------------------------- stratum minima


def test_stratum_minimum_applies_precision_cap():
    data = EulerSystemData(
        epsilon=1, k=5, pool=(),
        ind_lambda={"2": 2}, i_n_val={"2": 5},
    )
    assert partial_j(data, 1) == 2
    data2 = EulerSystemData(
        epsilon=1, k=5, pool=(),
        ind_lambda={"2": 4}, i_n_val={"2": 3},
    )
    assert partial_j(data2, 1) == 3
    # index with no recorded precision falls back to the ambient length
    data3 = EulerSystemData(epsilon=1, k=4, pool=(), ind_lambda={"1": 6})
    assert partial_j(data3, 0) == 4


def test_stratum_minimum_errors_and_global():
    data = EulerSystemData(
        epsilon=0, k=5, pool=(), ind_lambda={"2": 3}, i_n_val={"2": 5},
    )
    with pytest.raises(EmptyStratum):
        partial_j(data, 0)
    assert partial_global(data) == 3
    kap = EulerSystemData(epsilon=1, k=5, pool=(), ind_kappa={"1": 2})
    assert partial_j_kappa(kap, 0) == 2
    with pytest.raises(EmptyStratum):
        partial_j_kappa(kap, 2)
    with pytest.raises(EmptyStratum):
        partial_global(EulerSystemData(epsilon=0, k=3, pool=()))


def test_stratum_prediction_closed_form():
    shape = SelmerShape(0, (2, 1))
    assert artsel_rhs(shape, 5, 1, 0) == 4
    assert artsel_rhs(shape, 5, 1, 2) == 2
    assert artsel_rhs(shape, 5, 1, 4) == 1
    # no doubled part: every stratum sits at min(k, delta)
    flat = SelmerShape(1, ())
    for j in (1, 3, 5):
        assert artsel_rhs(flat, 4, 2, j) == 2
        assert artsel_rhs(flat, 4, 9, j) == 4  # saturation
    with pytest.raises(ParityMismatch):
        artsel_rhs(shape, 5, 1, 1)


def test_kappa_prediction_shifts_into_lambda():
    # the closed forms satisfy the shift-by-one identity at every level
    for e in (0, 1):
        for d in ((), (1,), (3, 2), (2, 2, 1)):
            shape = SelmerShape(e, d)
            for k in (2, 5):
                for delta in (0, 1, 3):
                    for j in range(e + 1, 9, 2):
                        assert artkappa_rhs(shape, k, delta, j) == artsel_rhs(
                            shape, k, delta, j + 1
                        )
    with pytest.raises(ParityMismatch):
        artkappa_rhs(SelmerShape(0, (1,)), 5, 1, 2)


# ------------------------------------------------------------- simulator


def test_simulate_free_rank_one_shape():
    data, states = simulate_system(SelmerShape(1, ()), 4, gpool(6, 9), seed=5)
    expected = min(4, data.delta_sim)
    assert all(v == expected for v in data.ind_lambda.values())
    assert all(v == expected for v in data.ind_kappa.values())
    assert all(s.d == () for s in states.values())


def test_simulate_hand_trace_smallest_shape():
    # seed 11 draws delta_sim = 0, so the indices read off the lengths:
    # one doubled length 1 at the root, consumed by the first prime.
    data, states = simulate_system(
        SelmerShape(0, (1,)), 3, gpool(4, 8), seed=11
    )
    assert data.delta_sim == 0
    assert data.ind_lambda["1"] == 1
    assert states["2"] == states["3"]
    assert states["2"].e == 1 and states["2"].d == ()
    assert data.ind_kappa["2"] == 0
    assert data.ind_lambda["2.3"] == 0


def test_simulate_is_deterministic_per_seed():
    shape = SelmerShape(0, (2,))
    a, sa = simulate_system(shape, 4, gpool(6, 9), seed=77)
    b, sb = simulate_system(shape, 4, gpool(6, 9), seed=77)
    assert a.to_dict() == b.to_dict()
    assert sa == sb


def test_simulate_rejects_bad_pools():
    with pytest.raises(PoolExhausted):
        simulate_system(SelmerShape(0, ()), 3, gpool(3, 5), seed=1, nu_max=2)
    with pytest.raises(ValueError):
        simulate_system(
            SelmerShape(0, ()), 3,
            [AdmissiblePrimeLabel(2), AdmissiblePrimeLabel(2)], seed=1,
        )
    with pytest.raises(ValueError):
        simulate_system(SelmerShape(0, ()), 0, gpool(4, 5), seed=1)


def test_simulated_strata_match_predictions():
    # 500 seeded runs; depth reaches the stratum whose tail is empty, so
    # each side's observed global index is sharp and every populated
    # stratum must equal its closed form. Nongeneric labels only bump
    # lengths upward, so the minima stay on all-generic paths.
    rng = random.Random(20260822)
    nongeneric_trials = 0
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
            nongeneric_trials += 1
            for extra in range(rng.randint(1, 2)):
                pool.append(
                    AdmissiblePrimeLabel(
                        IDS[n_generic + extra], k_ell=k + 1, generic=False
                    )
                )
        data, _ = simulate_system(
            shape, k, pool, seed=rng.getrandbits(32), nu_max=nu_max
        )
        ra = verify_artsel(data, shape, k)
        rk = verify_artkappa(data, shape, k)
        assert ra["all_match"], (trial, shape, k, ra)
        assert rk["all_match"], (trial, shape, k, rk)
        assert reciprocity_check(data), (trial, shape, k)
        if e == 1:
            bridge_entries += len(rk["bridge"])
    assert nongeneric_trials >= 100
    assert bridge_entries > 0


def test_bridge_between_sides_on_indefinite_start():
    rng = random.Random(99)
    seen = 0
    for _ in range(40):
        d0 = rng.randint(0, 3)
        shape = SelmerShape(1, (d0,) if d0 else ())
        k = rng.randint(2, 5)
        nu_max = 2 * len(shape.d) + 1
        data, _ = simulate_system(
            shape, k, gpool(2 * nu_max + 2, k + 2),
            seed=rng.getrandbits(32), nu_max=nu_max,
        )
        rep = verify_artkappa(data, shape, k)
        assert rep["bridge"], "expected at least one bridged stratum pair"
        assert all(b["match"] for b in rep["bridge"])
        seen += len(rep["bridge"])
    assert seen >= 40


def test_reciprocity_frozen_examples():
    bad = EulerSystemData(
        epsilon=0, k=5, pool=(),
        ind_lambda={"2.3": 2}, i_n_val={"2.3": 5},
        loc_unr={("2", 3): 1},
    )
    assert reciprocity_check(bad) is False
    # the ordinary law caps at the target's precision
    capped = EulerSystemData(
        epsilon=0, k=5, pool=(),
        ind_lambda={"2": 4}, i_n_val={"2": 5, "2.3": 3},
        loc_ord={("2.3", 3): 3},
    )
    assert reciprocity_check(capped) is True
    wrong_cap = EulerSystemData(
        epsilon=0, k=5, pool=(),
        ind_lambda={"2": 4}, i_n_val={"2": 5, "2.3": 3},
        loc_ord={("2.3", 3): 4},
    )
    assert reciprocity_check(wrong_cap) is False


def test_single_index_perturbations_are_detected():
    shape = SelmerShape(0, (2, 1))
    data, _ = simulate_system(shape, 6, gpool(8, 10), seed=3, nu_max=4)
    assert data.delta_sim == 2
    assert reciprocity_check(data)
    for key in list(data.ind_lambda)[:6]:
        mutated = EulerSystemData.from_dict(data.to_dict())
        mutated.ind_lambda[key] += 1
        assert not reciprocity_check(mutated), key
    for loc_key in list(data.loc_ord)[:4]:
        mutated = EulerSystemData.from_dict(data.to_dict())
        mutated.loc_ord[loc_key] += 1
        assert not reciprocity_check(mutated), loc_key
    for loc_key in list(data.loc_unr)[:4]:
        mutated = EulerSystemData.from_dict(data.to_dict())
        mutated.loc_unr[loc_key] += 1
        assert not reciprocity_check(mutated), loc_key
    # kappa indices sit outside the two laws; the stratum report flags them
    mutated = EulerSystemData.from_dict(data.to_dict())
    mutated.ind_kappa["2"] -= 1
    assert not verify_artkappa(mutated, shape, 6)["all_match"]


def test_system_data_json_round_trip_and_errors():
    data, _ = simulate_system(SelmerShape(1, (1,)), 3, gpool(6, 7), seed=8)
    doc = data.to_dict()
    again = EulerSystemData.from_dict(doc)
    assert again.to_dict() == doc
    with pytest.raises(InputError, match=r"\$\.epsilon"):
        EulerSystemData.from_dict({"epsilon": 2, "k": 3})
    with pytest.raises(InputError, match=r"\$\.k"):
        EulerSystemData.from_dict({"epsilon": 0, "k": 0})
    with pytest.raises(InputError, match=r"\$\.pool\[0\]\.id"):
        EulerSystemData.from_dict({"epsilon": 0, "k": 3, "pool": [{"id": "x"}]})
    with pytest.raises(InputError, match=r"\$\.ind_lambda\.1"):
        EulerSystemData.from_dict({"epsilon": 0, "k": 3, "ind_lambda": {"1": -1}})
    with pytest.raises(InputError, match=r"\$\.loc_ord\.2\.3"):
        EulerSystemData.from_dict(
            {"epsilon": 0, "k": 3, "loc_ord": {"2": {"3": True}}}
        )


@pytest.mark.parametrize(
    "key", ["a.b", "", "0", "1.2", "3.2", "2.2", "02", "2..3", "2.", " 2",
            "+2", "\u0663", "2.3.1"],
)
@pytest.mark.parametrize(
    "name", ["ind_lambda", "ind_kappa", "i_n_val", "loc_ord", "loc_unr"]
)
def test_system_data_refuses_noncanonical_keys(name, key):
    value = {"5": 1} if name.startswith("loc") else 1
    doc = {"epsilon": 0, "k": 3, name: {key: value}}
    with pytest.raises(InputError) as info:
        EulerSystemData.from_dict(doc)
    assert info.value.json_path == f"$.{name}.{key}"


def test_system_data_accepts_canonical_keys():
    doc = {
        "epsilon": 0, "k": 3,
        "ind_lambda": {"1": 1, "2.3.101": 0},
        "i_n_val": {"2.3.101": 3},
        "loc_unr": {"2.3": {"101": 0}},
    }
    data = EulerSystemData.from_dict(doc)
    assert data.loc_unr == {("2.3", 101): 0}
    assert reciprocity_check(data)

@pytest.mark.parametrize("ident", ["x", "03", " 3", "+3", "1", "0", "-5", "3.5"])
def test_system_data_refuses_noncanonical_prime_ids(ident):
    # "03" and "3" would otherwise merge into one pair, last value winning
    with pytest.raises(InputError) as info:
        EulerSystemData.from_dict(
            {"epsilon": 0, "k": 3, "loc_ord": {"2.3": {"3": 1, ident: 2}}}
        )
    assert info.value.json_path == f"$.loc_ord.2.3.{ident}"


# ------------------------------------------- limits and reconstruction


def test_limit_of_stratum_values():
    assert delta_limit({1: 1, 2: 2, 3: 2, 4: 2}, j=0) == 2
    assert delta_limit({1: 3, 2: 3}, j=0) == 3
    with pytest.raises(NoStabilization):
        delta_limit({1: 1, 2: 2, 3: 3}, j=0)
    with pytest.raises(NoStabilization):
        delta_limit({1: 4}, j=0)


def test_shape_reconstruction_frozen_examples():
    dv = {1: 4, 3: 2, 5: 1, 7: 1}
    assert reconstruct_shape(dv, 1) == SelmerShape(1, (2, 1))
    assert sha_exponents(dv, 1, 0) == 6
    assert reconstruct_shape({0: 3, 2: 3}, 0) == SelmerShape(0, ())
    with pytest.raises(ParityMismatch):
        reconstruct_shape({2: 3}, 1)
    with pytest.raises(ValueError):
        reconstruct_shape({1: 4, 5: 2}, 1)  # gap at j=3
    with pytest.raises(NotMonotone):
        reconstruct_shape({1: 2, 3: 4}, 1)
    with pytest.raises(NotMonotone):
        reconstruct_shape({0: 4, 2: 3, 4: 0}, 0)  # lengths (1, 3) increase
    with pytest.raises(ParityMismatch):
        sha_exponents(dv, 1, 1)
    with pytest.raises(ValueError):
        sha_exponents(dv, 1, 8)


def test_roundtrip_shape_through_simulation():
    # simulate one shape at five consecutive lengths, read off the
    # stabilized stratum values, and recover the shape exactly. The
    # lengths all clear delta + total doubled length, so nothing
    # saturates, and the seed-drawn delta is length-independent here.
    shape = SelmerShape(1, (2, 1))
    fam = {
        k: simulate_system(shape, k, gpool(10, 24), seed=42, nu_max=5)[0]
        for k in range(8, 13)
    }
    assert len({f.delta_sim for f in fam.values()}) == 1
    dv = {j: delta_limit(fam, j) for j in (1, 3, 5)}
    e = (fam[8].epsilon + 1) % 2
    assert reconstruct_shape(dv, e) == shape
    doubled = ElementaryDVRModule((1, 1, 2, 2))
    for i in (0, 2, 4):
        ex = sha_exponents(dv, e, i)
        assert ex % 2 == 0
        assert ex == fitting_from_structure(doubled, i)


def test_stabilization_index_examples():
    assert stabilization_index({k: 5 for k in range(1, 5)}, PI, 1) == 1
    assert stabilization_index({1: 3, 2: 2, 3: 2, 4: 2}, PI, 1) == 2
    # a hidden defect of order 4 pins the stabilization level at 4
    fam = {
        k: LambdaIdealFactored((PI,), ((min(k, 4),),)) for k in range(1, 8)
    }
    assert stabilization_index(fam, PI, 1) == 4
    with pytest.raises(NoStabilization):
        stabilization_index(
            {k: LambdaIdealFactored((PI,), ((k,),)) for k in range(1, 5)},
            PI, 1,
        )


def test_specialized_ideal_ord_frozen_values():
    I = LambdaIdealFactored((PI, T), ((1, 1), (2, 0)))
    assert specialized_ideal_ord(I, T, 3) == 2
    assert specialized_ideal_ord(I, PI, 2) == 3
    P9 = HeightOnePrime.polynomial(3, (9, 1))
    from iwafitt.errors import SupportCollision

    with pytest.raises(SupportCollision):
        specialized_ideal_ord(LambdaIdealFactored((P9,), ((1,),)), T, 2)
    assert specialized_ideal_ord(LambdaIdealFactored((P9,), ((1,),)), T, 3) == 2
    # a basis prime no generator touches cannot collide
    K = LambdaIdealFactored((T, P9), ((1, 0),))
    assert specialized_ideal_ord(K, T, 2) == 2
    with pytest.raises(ValueError):
        specialized_ideal_ord(I, T, 0)


# ----------------------------------------------------- ideal assembly


def test_ideal_assembly_parity_filters():
    elems = {
        "1": series((3, 3)),      # 3(1+T)
        "2": series((0, 3)),      # 3T
        "2.3": series((9,)),      # 9
    }
    basis = (PI, T)
    c1 = construct_C(elems, 1, 0, basis)
    assert c1.generators == ((1, 0),)
    c2 = construct_C(elems, 2, 0, basis)
    assert set(c2.generators) == {(1, 0), (2, 0)}
    d1 = construct_D(elems, 1, 0, basis)
    assert d1.generators == ((1, 1),)
    # opposite starting parity picks the complementary keys
    c_odd = construct_C(elems, 1, 1, basis)
    assert c_odd.generators == ((1, 1),)


def test_ideal_assembly_hidden_class():
    # generators manufactured as powers of p*T: the assembled ideal's
    # class is the smallest included power
    elems = {
        "1": series((0, 0, 0, 27)),        # (pT)^3
        "2.3": series((0, 3)),             # (pT)^1
    }
    c0 = construct_C(elems, 0, 0, (PI, T))
    assert class_of(c0).as_mapping() == {PI: 3, T: 3}
    c2 = construct_C(elems, 2, 0, (PI, T))
    assert class_of(c2).as_mapping() == {PI: 1, T: 1}


def test_highfitt_consistency_examples():
    X = ElementaryLambdaModule(((PI, (1, 1)),))
    fam = synthetic_c_family(X)
    assert class_of(fam[0]).as_mapping() == {PI: 1}
    assert highfitt_consistency(X, fam)["all_match"]
    trivial = ElementaryLambdaModule(())
    assert highfitt_consistency(trivial, synthetic_c_family(trivial))["all_match"]
    X2 = ElementaryLambdaModule(((PI, (1, 1)), (T, (1, 1))))
    rep = highfitt_consistency(X2, synthetic_c_family(X2))
    assert rep["all_match"]
    assert {entry["i"] for entry in rep["odd"]} == {1}


def test_highfitt_consistency_random_doubled_modules():
    rng = random.Random(314)
    primes = (PI, T, HeightOnePrime.polynomial(3, (3, 1)))
    for _ in range(100):
        comps = []
        for P in rng.sample(primes, rng.randint(1, 3)):
            pairs = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
            exps = tuple(sorted(pairs + pairs))
            comps.append((P, exps))
        X = ElementaryLambdaModule(tuple(comps))
        rep = highfitt_consistency(X, synthetic_c_family(X))
        assert rep["all_match"], (comps, rep)
        assert rep["odd"], "odd strata should be populated for doubled modules"

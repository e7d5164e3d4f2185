"""Index calculus for a two-parity family of cohomology-free elements.

The objects here are bookkeeping only: symbolic prime labels, square-free
index sets over them, and integer divisibility indices in a local ring of
length k. A seeded simulator walks the lattice of square-free indices,
evolving a module shape one prime at a time, and assigns every index its
lambda- or kappa-side divisibility plus localization data wired to
satisfy the two reciprocity laws. Everything downstream -- stratum
minima, the closed-form stratum predictions, shape reconstruction from
stabilized minima, and the C/D ideal assembly -- consumes only this data.

Parity conventions. A shape carries e in {0,1}; an index n with nu(n)
factors is "definite" when (e + nu(n)) is even, and the lambda indices
live exactly on definite n, kappa on the rest. The reported epsilon is
(e+1) mod 2, so lambda strata are the j with j = epsilon+1 (mod 2).
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field, replace

from .errors import (
    EmptyStratum,
    InputError,
    NoStabilization,
    NotMonotone,
    ParityMismatch,
    PoolExhausted,
    parse_decimal,
    read_int,
    read_list,
    read_obj,
)
from .ideals import (
    ElementaryLambdaModule,
    HeightOnePrime,
    LambdaIdealFactored,
    class_of,
    elementary_fitting_class,
    pseudo_square_root,
    specialized_ideal_ord,
)


def _derive(seed, *parts) -> int:
    text = "|".join(str(x) for x in (seed,) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest(), 16)


@dataclass(frozen=True, order=True)
class AdmissiblePrimeLabel:
    """A symbolic admissible prime: id, its congruence depth, genericity."""

    ident: int
    k_ell: int = 1
    generic: bool = True

    def __post_init__(self) -> None:
        # id 1 would collide with "1", the key of the empty product
        if self.ident < 2:
            raise ValueError(f"prime id must be >= 2, got {self.ident}")
        if self.k_ell < 1:
            raise ValueError(f"k_ell must be >= 1, got {self.k_ell}")

    def to_dict(self) -> dict:
        return {"id": self.ident, "k": self.k_ell, "generic": self.generic}

    @classmethod
    def from_dict(cls, doc, path: str = "$") -> AdmissiblePrimeLabel:
        doc = read_obj(doc, path)
        ident = read_int(doc.get("id"), f"{path}.id", 2)
        k_ell = read_int(doc.get("k", 1), f"{path}.k", 1)
        generic = doc.get("generic", True)
        if not isinstance(generic, bool):
            raise InputError("'generic' must be a boolean", f"{path}.generic")
        return cls(ident, k_ell, generic)


def index_key(labels) -> str:
    ids = sorted(lab.ident for lab in labels)
    return ".".join(str(i) for i in ids) if ids else "1"


def key_weight(key: str) -> int:
    """nu of a dot-joined index key; the empty product is "1"."""
    return 0 if key == "1" else key.count(".") + 1


def _key_ids(key: str) -> tuple:
    return () if key == "1" else tuple(map(int, key.split(".")))


_PRIME_ID = re.compile(r"[1-9][0-9]*")
_DOTTED_IDS = re.compile(r"[1-9][0-9]*(?:\.[1-9][0-9]*)*")


def _is_canonical_key(key: str) -> bool:
    """Whether key reads exactly as index_key would write it."""
    if key == "1":
        return True
    if not _DOTTED_IDS.fullmatch(key):
        return False
    ids = _key_ids(key)
    return ids[0] >= 2 and list(ids) == sorted(set(ids))


def check_index_keys(keys, path: str) -> None:
    """Refuse the first key index_key would not write, naming path.key."""
    for key in keys:
        if not _is_canonical_key(key):
            raise InputError(
                "index keys must be '1' or increasing prime ids >= 2 joined by dots",
                f"{path}.{key}",
            )


@dataclass(frozen=True)
class SelmerShape:
    """Starting shape: free parity bit e and the doubled-part lengths d."""

    e: int
    d: tuple = ()

    def __post_init__(self) -> None:
        if type(self.e) is not int or self.e not in (0, 1):
            raise ValueError(f"e must be 0 or 1, got {self.e!r}")
        d = tuple(self.d)
        if any(type(x) is not int for x in d):
            raise ValueError(f"d entries must be integers, got {d}")
        while d and d[-1] == 0:
            d = d[:-1]
        object.__setattr__(self, "d", d)
        if any(x < 0 for x in d):
            raise ValueError(f"d entries must be >= 0, got {d}")
        if any(a < b for a, b in zip(d, d[1:])):
            raise ValueError(f"d must be non-increasing, got {d}")

    @classmethod
    def from_string(cls, text: str) -> SelmerShape:
        """Parse "e:d0,d1,..."; an empty d-part is allowed ("1:").

        Each d entry is a canonical decimal, so "+2", " 2", "02" and an
        empty entry between commas are refused.
        """
        head, sep, tail = text.partition(":")
        d = [parse_decimal(x) for x in tail.split(",")] if tail else []
        if not sep or head not in ("0", "1") or None in d:
            raise ValueError(f"shape must look like 'e:d0,d1,...', got {text!r}")
        return cls(int(head), tuple(d))


@dataclass(frozen=True)
class SimState:
    """Shape of the module family at one index."""

    e: int
    d: tuple


@dataclass
class EulerSystemData:
    """Divisibility indices of one simulated (or imported) system.

    ind_lambda is keyed by definite index keys, ind_kappa by indefinite
    ones; i_n_val holds min(k, min k_ell over the factors); the two
    localization maps are keyed by (index key, prime id).

    An index key is canonical: "1" for the empty product, otherwise the
    decimal prime ids (each >= 2, no leading zeros) in strictly
    increasing order joined by dots, as index_key writes it; from_dict
    rejects any other form. String keys stay the public shape of these
    maps, and of the simulator's states, in the simulator's insertion
    order. Inside simulate_system and reciprocity_check an index is an
    int bitmask over numbered prime ids, so n*ell is n | bit and n/ell
    is n ^ bit; reciprocity_check parses each key into its mask once.
    """

    epsilon: int
    k: int
    pool: tuple
    delta_sim: int | None = None
    ind_lambda: dict = field(default_factory=dict)
    ind_kappa: dict = field(default_factory=dict)
    i_n_val: dict = field(default_factory=dict)
    loc_ord: dict = field(default_factory=dict)
    loc_unr: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def nest(flat):
            out = {}
            for (key, ident), v in sorted(flat.items()):
                out.setdefault(key, {})[str(ident)] = v
            return out

        return {
            "epsilon": self.epsilon,
            "k": self.k,
            "pool": [lab.to_dict() for lab in self.pool],
            "delta_sim": self.delta_sim,
            "ind_lambda": dict(sorted(self.ind_lambda.items())),
            "ind_kappa": dict(sorted(self.ind_kappa.items())),
            "i_n_val": dict(sorted(self.i_n_val.items())),
            "loc_ord": nest(self.loc_ord),
            "loc_unr": nest(self.loc_unr),
        }

    @classmethod
    def from_dict(cls, doc, path: str = "$") -> EulerSystemData:
        doc = read_obj(doc, path)
        eps = read_int(doc.get("epsilon"), f"{path}.epsilon", 0, 1)
        k = read_int(doc.get("k"), f"{path}.k", 1)
        pool = tuple(
            AdmissiblePrimeLabel.from_dict(p, f"{path}.pool[{i}]")
            for i, p in enumerate(read_list(doc.get("pool", []), f"{path}.pool"))
        )
        seen = set()
        for i, lab in enumerate(pool):
            if lab.ident in seen:
                raise InputError("pool ids must be distinct", f"{path}.pool[{i}].id")
            seen.add(lab.ident)
        delta_sim = doc.get("delta_sim")
        if delta_sim is not None:
            read_int(delta_sim, f"{path}.delta_sim")

        canonical = set()

        def read_map(name):
            at = f"{path}.{name}"
            raw = read_obj(doc.get(name, {}), at)
            fresh = raw.keys() - canonical
            if not all(map(_is_canonical_key, fresh)):
                check_index_keys(raw, at)  # names the first in document order
            canonical.update(fresh)
            return at, raw

        def int_map(name):
            at, raw = read_map(name)
            if not all(type(v) is int and v >= 0 for v in raw.values()):
                for key, v in raw.items():
                    read_int(v, f"{at}.{key}", 0)
            return dict(raw)

        def loc_map(name):
            at, raw = read_map(name)
            out = {}
            for key, per in raw.items():
                for ident, v in read_obj(per, f"{at}.{key}").items():
                    # one text per id, or "3" and "03" would merge
                    if not _PRIME_ID.fullmatch(ident) or ident == "1":
                        raise InputError(
                            "prime ids must be decimal integers >= 2",
                            f"{at}.{key}.{ident}",
                        )
                    if type(v) is not int or v < 0:
                        read_int(v, f"{at}.{key}.{ident}", 0)
                    out[(key, int(ident))] = v
            return out

        return cls(
            eps,
            k,
            pool,
            delta_sim,
            int_map("ind_lambda"),
            int_map("ind_kappa"),
            int_map("i_n_val"),
            loc_map("loc_ord"),
            loc_map("loc_unr"),
        )


def simulate_system(shape, k, pool, seed, nu_max=None):
    """Walk every square-free index up to nu_max and assign its indices.

    Deterministic per seed. Primes act in sorted id order: on a definite
    state the largest doubled length is consumed and the parity flips;
    on an indefinite state only the parity flips. Nongeneric labels then
    add a seeded non-negative bump to each remaining length, so no
    stratum ever dips below its all-generic floor. Divisibility indices
    follow as min(k, val I_n, delta + remaining length); localizations
    are filled so that both reciprocity laws hold on the nose.

    Returns (EulerSystemData, dict key -> SimState).
    """
    if k < 1:
        raise ValueError(f"ring length k must be >= 1, got {k}")
    labels = sorted(pool)
    if len({lab.ident for lab in labels}) != len(labels):
        raise ValueError("pool ids must be distinct")
    generic_count = sum(1 for lab in labels if lab.generic)
    if nu_max is None:
        nu_max = generic_count // 2
    if generic_count < 2 * nu_max:
        raise PoolExhausted(
            f"need at least {2 * nu_max} generic labels for depth {nu_max}, "
            f"have {generic_count}"
        )
    delta = random.Random(_derive(seed, "delta")).randint(0, min(k, 3))
    epsilon = (shape.e + 1) % 2
    data = EulerSystemData(epsilon, k, tuple(labels), delta)
    states = {}
    # An index is a bitmask over the sorted pool, bit b set when labels[b]
    # divides it, so n*ell is n | bit. Each level lists the indices of one
    # size: every index of the level below, extended by each bit above its
    # highest. That is the order of combinations(labels, size), so keys
    # and every map's insertion order are those of the id tuples. Indices
    # of one size with only generic factors share one state; one with a
    # nongeneric factor walks its own, since the bumps hash its key.
    names = [str(lab.ident) for lab in labels]
    nongeneric = sum(1 << b for b, lab in enumerate(labels) if not lab.generic)

    def walk(mask, key):
        e_cur, d_cur = shape.e, list(shape.d)
        for b, lab in enumerate(labels):
            if not mask >> b & 1:
                continue
            if e_cur == 0 and d_cur:
                d_cur.pop(0)
            if not lab.generic:
                prng = random.Random(_derive(seed, "perturb", key, lab.ident))
                d_cur = sorted(
                    (x + prng.randint(0, 1) for x in d_cur), reverse=True
                )
            e_cur ^= 1
        return SimState(e_cur, tuple(d_cur))

    key_at, val_at, lam_at = {}, {}, {}  # mask -> key, I_n value, lambda index
    level = [(0, 0, "1", k)]  # (mask, lowest bit free to add, key, I_n value)
    generic = SimState(shape.e, shape.d)  # the state of all-generic indices
    for size in range(nu_max + 1):
        if size:
            level = [
                (mask | 1 << b, b + 1, f"{key}.{names[b]}" if mask else names[b],
                 min(val, labels[b].k_ell))
                for mask, low, key, val in level
                for b in range(low, len(labels))
            ]
            # a generic prime consumes the largest length on a definite state
            generic = SimState(
                generic.e ^ 1, generic.d[1:] if generic.e == 0 else generic.d
            )
        for mask, _, key, val in level:
            state = walk(mask, key) if mask & nongeneric else generic
            states[key] = state
            key_at[mask] = key
            data.i_n_val[key] = val_at[mask] = val
            ind = min(val, delta + sum(state.d))
            if state.e == 0:
                data.ind_lambda[key] = lam_at[mask] = ind
            else:
                data.ind_kappa[key] = ind
    bits = [(1 << b, lab.ident) for b, lab in enumerate(labels)]
    loc_ord, loc_unr = data.loc_ord, data.loc_unr
    for n, key in key_at.items():
        if n.bit_count() >= nu_max:
            break
        ind_n = lam_at.get(n)
        for bit, ident in bits:
            if n & bit:
                continue
            m = n | bit
            val_m = val_at[m]
            if ind_n is not None:
                loc_ord[(key_at[m], ident)] = ind_n if ind_n < val_m else val_m
            else:
                ind_m = lam_at[m]
                loc_unr[(key, ident)] = ind_m if ind_m < val_m else k
    return data, states


# ----------------------------------------------------------- stratum minima


def _stratum_minima(index_map, cap=None, k=None) -> dict:
    """weight -> least index of that weight, in one pass over the keys.

    With cap (the i_n_val map) each index is first capped at its I_n
    valuation, falling back to the ambient length k.
    """
    minima = {}
    for key, ind in index_map.items():
        if cap is not None:
            ind = min(ind, cap.get(key, k))
        w = key_weight(key)
        if w not in minima or ind < minima[w]:
            minima[w] = ind
    return minima


def _lambda_minima(data: EulerSystemData) -> dict:
    return _stratum_minima(data.ind_lambda, data.i_n_val, data.k)


def partial_j(data: EulerSystemData, j: int) -> int:
    """Stratum minimum on the lambda side, with the I_n cap applied."""
    minima = _lambda_minima(data)
    if j not in minima:
        raise EmptyStratum(f"no index of weight {j} carries a lambda element")
    return minima[j]


def partial_j_kappa(data: EulerSystemData, j: int) -> int:
    minima = _stratum_minima(data.ind_kappa)
    if j not in minima:
        raise EmptyStratum(f"no index of weight {j} carries a kappa element")
    return minima[j]


def partial_global(data: EulerSystemData) -> int:
    minima = _lambda_minima(data)
    if not minima:
        raise EmptyStratum("the lambda side is empty")
    return min(minima.values())


# ------------------------------------------------------------- closed forms


def artsel_rhs(shape: SelmerShape, k: int, delta: int, j: int) -> int:
    """Predicted lambda stratum value: min(k, delta + tail of d)."""
    if (j - shape.e) % 2:
        raise ParityMismatch(
            f"stratum {j} has no lambda elements for e={shape.e}"
        )
    tail = sum(shape.d[(j - shape.e) // 2 :])
    return min(k, delta + tail)


def artkappa_rhs(shape: SelmerShape, k: int, delta: int, j: int) -> int:
    """Predicted kappa stratum value; strata sit at the opposite parity."""
    if (j - shape.e) % 2 == 0:
        raise ParityMismatch(
            f"stratum {j} has no kappa elements for e={shape.e}"
        )
    tail = sum(shape.d[(j + 1) // 2 :])
    return min(k, delta + tail)


def _strata_report(minima, rhs) -> tuple:
    """(delta, entries): each stratum minimum against rhs(delta, j)."""
    delta = min(minima.values())
    strata = []
    for j in sorted(minima):
        observed, expected = minima[j], rhs(delta, j)
        strata.append(
            {
                "j": j,
                "observed": observed,
                "expected": expected,
                "match": observed == expected,
            }
        )
    return delta, strata


def verify_artsel(data: EulerSystemData, shape: SelmerShape, k: int) -> dict:
    """Compare every populated lambda stratum against the closed form."""
    minima = _lambda_minima(data)
    if not minima:
        return {"delta": None, "strata": [], "all_match": True}
    delta, strata = _strata_report(
        minima, lambda delta, j: artsel_rhs(shape, k, delta, j)
    )
    return {
        "delta": delta,
        "strata": strata,
        "all_match": all(s["match"] for s in strata),
    }


def verify_artkappa(data: EulerSystemData, shape: SelmerShape, k: int) -> dict:
    """Kappa strata against the closed form, plus the shift-by-one bridge."""
    minima = _stratum_minima(data.ind_kappa)
    if not minima:
        return {"delta": None, "strata": [], "bridge": [], "all_match": True}
    delta, strata = _strata_report(
        minima, lambda delta, j: artkappa_rhs(shape, k, delta, j)
    )
    lam = _lambda_minima(data)
    bridge = [
        {
            "j": j,
            "kappa": minima[j],
            "lambda_next": lam[j + 1],
            "match": minima[j] == lam[j + 1],
        }
        for j in sorted(minima)
        if j + 1 in lam
    ]
    ok = all(s["match"] for s in strata) and all(b["match"] for b in bridge)
    return {"delta": delta, "strata": strata, "bridge": bridge, "all_match": ok}


# -------------------------------------------------------------- reciprocity


class _Bits(dict):
    """Prime id -> bitmask bit; an id seen for the first time takes the
    next free bit."""

    def __missing__(self, ident):
        bit = self[ident] = 1 << len(self)
        return bit


class _Masks(dict):
    """Index key -> bitmask over a _Bits numbering, parsed once per key."""

    def __init__(self, bits):
        super().__init__({"1": 0})
        self.bits = bits

    def __missing__(self, key):
        head, _, last = key.rpartition(".")
        mask = self[head or "1"] | self.bits[int(last)]
        self[key] = mask
        return mask


def reciprocity_check(data: EulerSystemData) -> bool:
    """Both explicit laws, as valuation equalities, over all stored pairs.

    The maps stay keyed by string; each key is parsed once into a bitmask.
    Pool ids take the low bits and any other id, which imported data may
    name, the next free bit. For a pair (n, ell), ell divides n when
    n & bit, and the neighbour n/ell or n*ell is n ^ bit or n | bit.
    """
    bits = _Bits()
    for lab in data.pool:
        bits[lab.ident]  # numbers the pool ids first
    masks = _Masks(bits)
    lam = {masks[key]: ind for key, ind in data.ind_lambda.items()}
    cap = {masks[key]: v for key, v in data.i_n_val.items()}
    k = data.k
    for (m_key, ident), loc in data.loc_ord.items():
        m, b = masks[m_key], bits[ident]
        if not m & b:
            return False
        ind = lam.get(m ^ b)
        if ind is not None:
            val = cap.get(m, k)
            if (ind if ind < val else val) != loc:
                return False
    for (n_key, ident), loc in data.loc_unr.items():
        n, b = masks[n_key], bits[ident]
        if n & b:
            return False
        m = n | b
        ind_m = lam.get(m)
        if ind_m is not None:
            val = cap.get(m, k)
            if (loc if loc < val else val) != ind_m:
                return False
    return True


# ------------------------------------------------- limits and reconstruction


def _stable_suffix_start(pairs):
    """(key, value) pairs sorted by key: first key of the constant tail.

    The tail must have length >= 2 to count as stabilized.
    """
    if len(pairs) < 2:
        raise NoStabilization("need at least two levels to detect a limit")
    tail_value = pairs[-1][1]
    start = None
    for key, value in reversed(pairs):
        if value == tail_value:
            start = key
        else:
            break
    covered = [key for key, _ in pairs if key >= start]
    if len(covered) < 2:
        raise NoStabilization(
            f"value still moving at the end of the range: {pairs}"
        )
    return start, tail_value


def delta_limit(family, j: int) -> int:
    """Stabilized stratum value across systems of increasing length k.

    family: mapping k -> EulerSystemData (or a precomputed integer).
    """
    pairs = []
    for k in sorted(family):
        entry = family[k]
        value = entry if isinstance(entry, int) else partial_j(entry, j)
        pairs.append((k, value))
    return _stable_suffix_start(pairs)[1]


def stabilization_index(family, P: HeightOnePrime, j: int) -> int:
    """Least k past which the specialized ideal stops moving.

    family: mapping k -> LambdaIdealFactored (or a precomputed ord).
    The ord of each ideal is taken in O_j down the tower at P.
    """
    pairs = []
    for k in sorted(family):
        entry = family[k]
        value = (
            entry
            if isinstance(entry, int)
            else specialized_ideal_ord(entry, P, j)
        )
        pairs.append((k, value))
    return _stable_suffix_start(pairs)[0]


def reconstruct_shape(delta_values, e: int) -> SelmerShape:
    """Shape from stabilized stratum values d_i = delta(2i+e)-delta(2i+2+e)."""
    if e not in (0, 1):
        raise ValueError(f"e must be 0 or 1, got {e}")
    js = sorted(delta_values)
    if not js:
        raise ValueError("no stratum values supplied")
    for j in js:
        if (j - e) % 2:
            raise ParityMismatch(
                f"stratum {j} is not a lambda stratum for e={e}"
            )
    if js != list(range(e, js[-1] + 1, 2)):
        raise ValueError(f"stratum values must cover e, e+2, ... got {js}")
    d = []
    for a, b in zip(js, js[1:]):
        step = delta_values[a] - delta_values[b]
        if step < 0:
            raise NotMonotone(
                f"stratum values increase from j={a} to j={b}"
            )
        d.append(step)
    if any(x < y for x, y in zip(d, d[1:])):
        raise NotMonotone(f"derived lengths are not non-increasing: {d}")
    return SelmerShape(e, tuple(d))


def sha_exponents(delta_values, e: int, i: int) -> int:
    """Doubled defect exponent 2*(delta(i+e) - delta) at an even index."""
    if i % 2:
        raise ParityMismatch(
            f"index {i} is odd; only even indices carry this exponent"
        )
    js = sorted(delta_values)
    if i + e not in delta_values:
        raise ValueError(f"stratum {i + e} missing from the supplied values")
    limit = delta_values[js[-1]]
    return 2 * (delta_values[i + e] - limit)


# --------------------------------------------------------- ideal assembly


def _assemble(elements, parity: int, top: int, basis) -> LambdaIdealFactored:
    """The ideal generated by the elements of weight = parity mod 2, <= top."""
    picked = [
        elements[key]
        for key in sorted(elements)
        if key_weight(key) % 2 == parity and key_weight(key) <= top
    ]
    return LambdaIdealFactored.from_series_generators(basis, picked)


def construct_C(elements, i: int, e: int, basis) -> LambdaIdealFactored:
    """Assemble the i-th lambda ideal from supplied series elements.

    elements: mapping index key -> TruncatedSeries. Kept are the keys on
    the lambda side (weight matching e mod 2) of weight <= i + e; the
    generators are factored over the declared basis.
    """
    return _assemble(elements, e % 2, i + e, basis)


def construct_D(elements, i: int, e: int, basis) -> LambdaIdealFactored:
    """Kappa-side counterpart: opposite parity, weight <= i."""
    return _assemble(elements, (e + 1) % 2, i, basis)


# ------------------------------------------------------- doubled-module law


def synthetic_c_family(X: ElementaryLambdaModule) -> dict:
    """Even-index companion ideals of a doubled module: C_i with C_i^2
    matching the i-th Fitting class. Exists because every even class of
    a doubled module is a square."""
    family = {}
    for i in range(0, X.width + 1, 2):
        family[i] = pseudo_square_root(
            elementary_fitting_class(X, i)
        ).as_ideal()
    return family


def highfitt_consistency(X: ElementaryLambdaModule, c_family) -> dict:
    """Check the even squares and the odd products against X's classes."""
    even, odd = [], []
    for i, ideal in sorted(c_family.items()):
        want = elementary_fitting_class(X, i)
        got = class_of(ideal)
        got_sq = got.mult(got)
        even.append({"i": i, "match": got_sq == want})
    for i in range(1, X.width + 1, 2):
        if i - 1 in c_family and i + 1 in c_family:
            want = elementary_fitting_class(X, i)
            got = class_of(c_family[i - 1]).mult(class_of(c_family[i + 1]))
            odd.append({"i": i, "match": got == want})
    entries = even + odd
    return {
        "even": even,
        "odd": odd,
        "all_match": all(x["match"] for x in entries),
    }

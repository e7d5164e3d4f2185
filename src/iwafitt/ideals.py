"""Divisibility-up-to-bounded-error calculus for ideals of the series ring.

Everything here works with ideals in factored form: a declared basis of
height-one primes (the prime (p), written PI, and monic distinguished
polynomials) plus generators given as exponent vectors over that basis.
Two ideals compare through their minimal exponent per prime; agreement
of those vectors is an equivalence, and each class has one principal
representative, the vector itself. On top of that sit pseudo-square
roots, the Fitting classes of elementary modules, the reconstruction of
odd-index classes from even neighbors, and slope checks under the two
deformation towers.

Irreducibility of declared primes is decided exactly through degree 2
(Eisenstein or a discriminant square test); higher degrees are taken on
trust and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (InputError, NotASquare, RingMismatch, SupportCollision,
                     check_index, read_ints, read_list, read_obj, read_p)
from .fitting import ElementaryDVRModule, fitting_from_structure
from .ring import SpecializationRing, TruncatedSeries, weierstrass_divide


def _is_square_unit(p: int, u: int) -> bool:
    # unit of Z_p: square iff QR mod p (odd p), iff 1 mod 8 (p = 2)
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def _quadratic_is_irreducible(p: int, c0: int, c1: int) -> bool:
    # T^2 + c1 T + c0 with p | c0, p | c1
    v0 = 0
    c = c0
    while c and c % p == 0:
        c //= p
        v0 += 1
    if c0 != 0 and v0 == 1:
        return True  # Eisenstein
    disc = c1 * c1 - 4 * c0
    if disc == 0:
        return False
    v = 0
    while disc % p == 0:
        disc //= p
        v += 1
    if v % 2 == 1:
        return True
    return not _is_square_unit(p, disc)


@dataclass(frozen=True)
class HeightOnePrime:
    """A height-one prime: PI = (p), or a monic distinguished polynomial.

    ``dist`` holds exact integer coefficients (c_0, ..., c_{d-1}, 1);
    None means PI. ``verified`` records whether irreducibility was
    actually checked (always true through degree 2, a trust flag above).
    """

    p: int
    dist: tuple | None = None
    verified: bool = True

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.dist is None:
            return
        coeffs = tuple(self.dist)
        if any(type(c) is not int for c in coeffs):
            raise ValueError(f"coefficients must be integers, got {coeffs}")
        object.__setattr__(self, "dist", coeffs)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError(f"distinguished polynomial must be monic, got {coeffs}")
        if any(c % self.p for c in coeffs[:-1]):
            raise ValueError(
                f"non-leading coefficients must be divisible by p={self.p}"
            )
        deg = len(coeffs) - 1
        if deg == 2 and not _quadratic_is_irreducible(self.p, coeffs[0], coeffs[1]):
            raise ValueError(f"{self.label()} factors; it is not a prime")
        object.__setattr__(self, "verified", deg <= 2)

    @classmethod
    def pi(cls, p: int) -> HeightOnePrime:
        return cls(p, None)

    @classmethod
    def polynomial(cls, p: int, coeffs) -> HeightOnePrime:
        return cls(p, tuple(coeffs))

    @property
    def degree(self) -> int:
        return 0 if self.dist is None else len(self.dist) - 1

    def label(self) -> str:
        if self.dist is None:
            return "PI"
        parts = []
        for e in range(len(self.dist) - 1, -1, -1):
            c = self.dist[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                parts.append(f"{head}T" + (f"^{e}" if e > 1 else ""))
        return "+".join(parts)

    def as_series(self, K: int, m: int) -> TruncatedSeries:
        if self.dist is None:
            return TruncatedSeries.make(self.p, K, m, [self.p])
        if len(self.dist) > m:
            raise ValueError(f"truncation m={m} cannot hold degree {self.degree}")
        return TruncatedSeries.make(self.p, K, m, list(self.dist))

    def _sort_key(self):
        return (1, self.degree, self.dist) if self.dist else (0, 0, ())

    @classmethod
    def from_dict(cls, doc, p: int, path: str = "$") -> HeightOnePrime:
        if doc == "PI":
            return cls.pi(p)
        if not isinstance(doc, dict):
            raise InputError('prime must be "PI" or {"dist": [c0,...,1]}', path)
        dist = read_ints(doc.get("dist"), f"{path}.dist")
        try:
            return cls.polynomial(p, dist)
        except ValueError as exc:
            raise InputError(str(exc), f"{path}.dist") from exc

    def to_dict(self):
        return "PI" if self.dist is None else {"dist": list(self.dist)}


def _merge_basis(*bases):
    merged = []
    for basis in bases:
        for prime in basis:
            if prime not in merged:
                merged.append(prime)
    if len({pr.p for pr in merged}) > 1:
        raise RingMismatch("primes from different residue characteristics")
    return tuple(merged)


@dataclass(frozen=True)
class LambdaIdealFactored:
    """A nonzero ideal, given by exponent-vector generators over a basis."""

    basis: tuple
    generators: tuple

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        gens = tuple(tuple(g) for g in self.generators)
        if any(type(e) is not int for g in gens for e in g):
            raise ValueError(f"exponents must be integers, got {gens}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "generators", gens)
        if len(set(basis)) != len(basis):
            raise ValueError("basis primes must be pairwise distinct")
        if len({pr.p for pr in basis}) > 1:
            raise RingMismatch("basis mixes residue characteristics")
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        for g in gens:
            if len(g) != len(basis):
                raise ValueError(
                    f"generator length {len(g)} != basis size {len(basis)}"
                )
            if any(e < 0 for e in g):
                raise ValueError(f"exponents must be >= 0, got {g}")

    @classmethod
    def from_dict(
        cls, doc, default_p: int = 3, path: str = "$"
    ) -> LambdaIdealFactored:
        doc = read_obj(doc, path)
        p = read_p(doc, path, default_p)
        basis_doc = read_list(doc.get("basis"), f"{path}.basis")
        basis = tuple(
            HeightOnePrime.from_dict(b, p, f"{path}.basis[{i}]")
            for i, b in enumerate(basis_doc)
        )
        gens_doc = read_list(doc.get("generators"), f"{path}.generators")
        if not gens_doc:
            raise InputError("must be a non-empty list", f"{path}.generators")
        for i, g in enumerate(gens_doc):
            at = f"{path}.generators[{i}]"
            if len(read_ints(g, at, 0)) != len(basis):
                raise InputError(f"generator must list {len(basis)} exponents", at)
        try:
            return cls(basis, tuple(map(tuple, gens_doc)))
        except ValueError as exc:
            raise InputError(str(exc), f"{path}.basis") from exc

    @classmethod
    def from_series_generators(cls, basis, series_list) -> LambdaIdealFactored:
        """Factor raw series generators by trial division against the basis.

        The p-power content is stripped first (that is the PI exponent);
        what remains must fall apart into declared primes times a unit,
        or the ideal simply is not supported on the declared basis.
        """
        basis = tuple(basis)
        gens = [factor_series(f, basis) for f in series_list]
        return cls(basis, tuple(gens))

    def _on(self, basis):
        index = {pr: i for i, pr in enumerate(self.basis)}
        out = []
        for g in self.generators:
            out.append(
                tuple(g[index[pr]] if pr in index else 0 for pr in basis)
            )
        return tuple(out)

    def __add__(self, other: LambdaIdealFactored) -> LambdaIdealFactored:
        basis = _merge_basis(self.basis, other.basis)
        gens = tuple(dict.fromkeys(self._on(basis) + other._on(basis)))
        return LambdaIdealFactored(basis, gens)

    def __mul__(self, other: LambdaIdealFactored) -> LambdaIdealFactored:
        basis = _merge_basis(self.basis, other.basis)
        gens = dict.fromkeys(
            tuple(a + b for a, b in zip(g, h))
            for g in self._on(basis)
            for h in other._on(basis)
        )
        return LambdaIdealFactored(basis, tuple(gens))

    def square(self) -> LambdaIdealFactored:
        return self * self


def factor_series(f: TruncatedSeries, basis) -> tuple:
    """Exponent vector of one series generator over the declared basis."""
    if f.is_zero():
        raise ValueError("the zero series cannot generate a nonzero ideal")
    mu = f.content_valuation()
    if mu and not any(pr.dist is None for pr in basis):
        raise RingMismatch(
            f"generator carries p-content {mu} but PI is not in the basis"
        )
    g = f.divide_content(mu)
    exps = {}
    for prime in basis:
        if prime.dist is None:
            continue
        P = prime.as_series(g.K, g.m)
        count = 0
        while True:
            q, r = weierstrass_divide(g, P)
            if not r.is_zero():
                break
            g, count = q, count + 1
        exps[prime] = count
    if not g.is_unit():
        raise RingMismatch(
            "generator does not factor into the declared primes; "
            f"residual {g} is not a unit"
        )
    return tuple(
        mu if pr.dist is None else exps.get(pr, 0) for pr in basis
    )


def ord_at_prime(I: LambdaIdealFactored, P: HeightOnePrime) -> int:
    """Exponent of P in the localization: min over generators."""
    if P in I.basis:
        idx = I.basis.index(P)
        return min(g[idx] for g in I.generators)
    return 0


def _ord_vector(I: LambdaIdealFactored, basis) -> tuple:
    gens = I._on(basis)
    return tuple(min(g[i] for g in gens) for i in range(len(basis)))


def prec_leq(I: LambdaIdealFactored, J: LambdaIdealFactored) -> bool:
    """The relation I before J: I divisible at every prime of the support."""
    basis = _merge_basis(I.basis, J.basis)
    vi, vj = _ord_vector(I, basis), _ord_vector(J, basis)
    return all(a >= b for a, b in zip(vi, vj))


def sim(I: LambdaIdealFactored, J: LambdaIdealFactored) -> bool:
    return class_of(I) == class_of(J)


@dataclass(frozen=True)
class PseudoClass:
    """The principal representative of an ideal class: prime -> exponent.

    Canonical form: zero exponents dropped, PI first, polynomial primes
    sorted by degree then coefficients. The trivial class is empty.
    """

    primes: tuple
    exponents: tuple

    def __post_init__(self) -> None:
        if any(type(e) is not int for e in self.exponents):
            raise ValueError(f"class exponents must be integers, got {self.exponents}")
        pairs = [
            (pr, e)
            for pr, e in zip(self.primes, self.exponents)
            if e != 0
        ]
        if any(e < 0 for _, e in pairs):
            raise ValueError("class exponents must be >= 0")
        pairs.sort(key=lambda pe: pe[0]._sort_key())
        object.__setattr__(self, "primes", tuple(pr for pr, _ in pairs))
        object.__setattr__(self, "exponents", tuple(e for _, e in pairs))

    @classmethod
    def trivial(cls) -> PseudoClass:
        return cls((), ())

    def is_trivial(self) -> bool:
        return not self.primes

    def as_mapping(self) -> dict:
        return dict(zip(self.primes, self.exponents))

    def exponent_at(self, P: HeightOnePrime) -> int:
        return self.as_mapping().get(P, 0)

    def mult(self, other: PseudoClass) -> PseudoClass:
        acc = self.as_mapping()
        for pr, e in other.as_mapping().items():
            acc[pr] = acc.get(pr, 0) + e
        return PseudoClass(tuple(acc), tuple(acc.values()))

    def sqrt(self) -> PseudoClass:
        if any(e % 2 for e in self.exponents):
            raise NotASquare(
                f"odd exponent in {self.to_dict()}; no square root exists"
            )
        return PseudoClass(self.primes, tuple(e // 2 for e in self.exponents))

    def as_ideal(self) -> LambdaIdealFactored:
        return LambdaIdealFactored(self.primes, (self.exponents,))

    def to_dict(self) -> dict:
        return {pr.label(): e for pr, e in zip(self.primes, self.exponents)}


def class_of(I: LambdaIdealFactored) -> PseudoClass:
    return PseudoClass(I.basis, _ord_vector(I, I.basis))


def pseudo_square_root(J) -> PseudoClass:
    """Halve the class vector; refuse when some exponent is odd."""
    cls = J if isinstance(J, PseudoClass) else class_of(J)
    return cls.sqrt()


def odd_from_even(f_even: PseudoClass, f_next_even: PseudoClass) -> PseudoClass:
    """The class between two even-index Fitting classes.

    Their product must be a square; the halved vector is the odd-index
    class, and a parity failure means the inputs do not come from a
    doubled module.
    """
    return f_even.mult(f_next_even).sqrt()


@dataclass(frozen=True)
class ElementaryLambdaModule:
    """Direct sum of cyclic pieces, grouped by prime.

    components: (prime, non-decreasing exponent tuple) pairs. Zero
    exponents are legal padding and contribute nothing.
    """

    components: tuple

    def __post_init__(self) -> None:
        comps = tuple((pr, tuple(ks)) for pr, ks in self.components)
        object.__setattr__(self, "components", comps)
        primes = [pr for pr, _ in comps]
        if len(set(primes)) != len(primes):
            raise ValueError("components must use pairwise distinct primes")
        for pr, ks in comps:
            if any(type(k) is not int for k in ks):
                raise ValueError(f"exponents at {pr.label()} must be integers, got {ks}")
            if any(k < 0 for k in ks):
                raise ValueError(f"exponents at {pr.label()} must be >= 0")
            if any(a > b for a, b in zip(ks, ks[1:])):
                raise ValueError(
                    f"exponents at {pr.label()} must be non-decreasing"
                )

    @property
    def width(self) -> int:
        """Common cyclic-factor count: longest list, others zero-padded."""
        return max((len(ks) for _, ks in self.components), default=0)

    def doubled(self) -> ElementaryLambdaModule:
        return ElementaryLambdaModule(
            tuple((pr, tuple(sorted(ks + ks))) for pr, ks in self.components)
        )

    @classmethod
    def from_dict(
        cls, doc, default_p: int = 3, path: str = "$"
    ) -> ElementaryLambdaModule:
        doc = read_obj(doc, path)
        p = read_p(doc, path, default_p)
        comps = []
        comps_doc = read_list(doc.get("components"), f"{path}.components")
        for i, c in enumerate(comps_doc):
            at = f"{path}.components[{i}]"
            prime = HeightOnePrime.from_dict(read_obj(c, at).get("prime"), p, f"{at}.prime")
            ks = read_ints(c.get("exponents"), f"{at}.exponents", 0)
            comps.append((prime, tuple(sorted(ks))))
        try:
            return cls(tuple(comps))
        except ValueError as exc:
            raise InputError(str(exc), f"{path}.components") from exc


def elementary_fitting_class(E: ElementaryLambdaModule, i: int) -> PseudoClass:
    """Class of the i-th Fitting ideal of an elementary module.

    With all exponent lists zero-padded to the common width, the prime
    P picks up the sum of its first (width - i) exponents.
    """
    check_index(i)
    ell = E.width
    primes, exps = [], []
    for pr, ks in E.components:
        padded = (0,) * (ell - len(ks)) + ks
        e = sum(padded[: max(0, ell - i)])
        primes.append(pr)
        exps.append(e)
    return PseudoClass(tuple(primes), tuple(exps))


@dataclass(frozen=True)
class SpecializedModule:
    """One rung of a deformation tower: the module over O_j and its index."""

    j: int
    tower: str  # "eisenstein" or "unramified"
    exponents: tuple
    m: int


def _tower_for(P: HeightOnePrime, j: int, K: int, m: int) -> SpecializationRing:
    if P.dist is None:
        return SpecializationRing(P.p, j, K, "eisenstein")
    if P.degree != 1:
        raise ValueError(
            "deformation towers exist for PI and linear primes only, "
            f"got degree {P.degree}"
        )
    return SpecializationRing(P.p, j, K, "unramified", a=-P.dist[0] % P.p**K)


def _image_weights(primes, used, P: HeightOnePrime, j: int):
    """The level-j tower ring at P and each prime's image valuation in it.

    A ``used`` prime whose image is zero meets the deformed prime.
    """
    if j < 1:
        raise ValueError(f"tower level j must be >= 1, got {j}")
    maxdeg = max((pr.degree for pr in primes), default=0)
    m_work = max(maxdeg + 1, 2)
    K_work = max(maxdeg, 1) * j + 4
    ring = _tower_for(P, j, K_work, m_work)
    weights = []
    for pr, u in zip(primes, used):
        w = ring.image_valuation(pr.as_series(K_work, m_work))
        if u and w >= ring.valuation_cap:
            raise SupportCollision(
                f"the deformed prime at level j={j} meets {pr.label()}"
            )
        weights.append(w)
    return ring, weights


def specialize_elementary(
    E: ElementaryLambdaModule, P: HeightOnePrime, j: int, i: int
) -> SpecializedModule:
    """Push an elementary module down the j-th rung of the tower at P.

    The basis prime at P contributes exponent j per unit of its own
    exponent; other primes contribute the exact valuation of their image
    in O_j, which stays bounded in j. The result records the specialized
    divisor exponents and the requested Fitting exponent m_j.
    """
    primes = [pr for pr, _ in E.components]
    ring, weights = _image_weights(primes, [True] * len(primes), P, j)
    exps = []
    for (_, ks), w in zip(E.components, weights):
        for k in ks:
            if k and w:
                exps.append(k * w)
    module = ElementaryDVRModule(tuple(sorted(exps)))
    return SpecializedModule(
        j, ring.kind, module.exponents, fitting_from_structure(module, i)
    )


def specialized_ideal_ord(
    I: LambdaIdealFactored, P: HeightOnePrime, j: int
) -> int:
    """Valuation of a factored ideal's image at level j of the tower at P.

    The image ideal is generated by the generator images, so its
    valuation is the minimum over generators of the exponent-weighted
    image valuations of the basis primes.
    """
    used = [any(g[t] for g in I.generators) for t in range(len(I.basis))]
    _, weights = _image_weights(I.basis, used, P, j)
    return min(sum(e * w for e, w in zip(g, weights)) for g in I.generators)


def slope_report(
    E: ElementaryLambdaModule,
    P: HeightOnePrime,
    i: int,
    window=range(3, 11),
) -> dict:
    """Observed growth of m_j over a j-window, against the predicted slope.

    The prediction is the exponent of P in the i-th Fitting class; the
    report carries per-level values, the stabilized successive
    difference, and the largest deviation |m_j - slope*j| seen.
    """
    window = list(window)
    if len(window) < 3:
        raise ValueError("slope detection needs a window of at least 3 levels")
    values = {j: specialize_elementary(E, P, j, i).m for j in window}
    diffs = [
        values[b] - values[a] for a, b in zip(window, window[1:])
    ]
    predicted = elementary_fitting_class(E, i).exponent_at(P)
    deviation = max(abs(values[j] - predicted * j) for j in window)
    return {
        "window": window,
        "values": values,
        "stabilized_slope": diffs[-1],
        "predicted_slope": predicted,
        "deviation": deviation,
    }


def parity_audit(family) -> bool:
    """Even-multiplicity check across a specialization family.

    family: (j, exponents) pairs, exponents sorted ascending; also
    accepts SpecializedModule or ElementaryDVRModule values. Each slot
    gets the rational slope over the window endpoints; the family passes
    iff every slope class contains an even number of slots.
    """
    rows = []
    for j, mod in family:
        if isinstance(mod, (SpecializedModule, ElementaryDVRModule)):
            exps = mod.exponents
        else:
            exps = tuple(mod)
        rows.append((j, tuple(sorted(exps))))
    if len(rows) < 2:
        raise ValueError("a parity audit needs at least two tower levels")
    rows.sort()
    lengths = {len(exps) for _, exps in rows}
    if len(lengths) != 1:
        return False
    (j0, first), (j1, last) = rows[0], rows[-1]
    if j0 == j1:
        raise ValueError("tower levels must be distinct")
    slopes = [
        Fraction(b - a, j1 - j0) for a, b in zip(first, last)
    ]
    counts = {}
    for s in slopes:
        counts[s] = counts.get(s, 0) + 1
    return all(c % 2 == 0 for c in counts.values())

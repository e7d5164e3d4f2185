"""Exact arithmetic in the coefficient rings.

Two layers live here:

* truncated power series in one variable over the residues mod p^K
  (``TruncatedSeries``, an element of O[[T]] mod (p^K, T^m)),
* the decomposition of a nonzero series into p-power content, a monic
  polynomial congruent to a power of T mod p, and a unit series
  (``WeierstrassForm``), together with division with remainder by such
  polynomials.

``SpecializationRing`` models the small local rings a series ring maps onto
when one height-one prime is deformed: either a totally ramified extension
Z_p[x]/(x^j + p) or an unramified copy of Z_p. Valuations of images are
computed exactly, not bounded.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientPrecision, RingMismatch, check_index

__all__ = [
    "TruncatedSeries",
    "WeierstrassForm",
    "SpecializationRing",
    "padic_valuation",
    "weierstrass_prepare",
    "weierstrass_divide",
]


def padic_valuation(p: int, value: int, K: int) -> int:
    """Largest v <= K with p^v dividing ``value``, read in Z/p^K.

    Args:
        p: the prime (any integer >= 2 is accepted; primality is the
            caller's contract).
        value: an integer, reduced mod p^K before inspection.
        K: the working precision, >= 1.

    Returns:
        The valuation in the range [0, K]. The zero residue gets K by
        convention: at precision K, "divisible by p^K" is all we can say.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    value %= p**K
    if value == 0:
        return K
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """An element of O[[T]] mod (p^K, T^m), O = Z_p.

    Coefficients are stored as canonical residues mod p^K, exactly m of
    them (index i is the T^i coefficient). Arithmetic truncates at T^m and
    reduces mod p^K, so the type is closed under ring operations at fixed
    (p, K, m). p, K, m and every coefficient must be ``int``: bools,
    floats and other integer-like types are refused with ValueError.
    """

    p: int
    K: int
    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        p, K, m, coeffs = self.p, self.K, self.m, self.coeffs
        if not (type(p) is type(K) is type(m) is int and p >= 2 and K >= 1 and m >= 1):
            check_index(p, 2, "p")
            check_index(K, 1, "K")
            check_index(m, 1, "m")
        if len(coeffs) != m:
            raise ValueError(f"need exactly m={m} coefficients, got {len(coeffs)}")
        if not {int}.issuperset(map(type, coeffs)):
            raise ValueError(f"coefficients must be integers, got {coeffs!r}")
        # int.__rmod__(q, c) is c % q, without a generator frame per coefficient
        object.__setattr__(self, "coeffs", tuple(map((p**K).__rmod__, coeffs)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of_residues(cls, p: int, K: int, m: int, coeffs: tuple) -> TruncatedSeries:
        """Trusted constructor: a tuple of m ints already in [0, p^K).

        Skips every check and the reduction of the public constructor, so
        only kernels whose outputs are reduced by construction call it.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "p", p)
        object.__setattr__(s, "K", K)
        object.__setattr__(s, "m", m)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    @classmethod
    def make(cls, p: int, K: int, m: int, coeffs) -> TruncatedSeries:
        """Build from any iterable, zero-padding or truncating to length m."""
        cs = list(coeffs)[:m]
        cs += [0] * (m - len(cs))
        return cls(p, K, m, tuple(cs))

    @classmethod
    def zero(cls, p: int, K: int, m: int) -> TruncatedSeries:
        return cls(p, K, m, (0,) * m)

    @classmethod
    def one(cls, p: int, K: int, m: int) -> TruncatedSeries:
        return cls.make(p, K, m, [1])

    # -- structure ---------------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.p**self.K

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        """Units are exactly the series with unit constant term."""
        return self.coeffs[0] % self.p != 0

    def content_valuation(self) -> int:
        """min over coefficients of their p-adic valuation (K if zero)."""
        return min(padic_valuation(self.p, c, self.K) for c in self.coeffs)

    def _compat(self, other: TruncatedSeries) -> None:
        if (self.p, self.K, self.m) != (other.p, other.K, other.m):
            raise RingMismatch(
                f"series over (p={self.p},K={self.K},m={self.m}) vs "
                f"(p={other.p},K={other.K},m={other.m})"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._compat(other)
        return TruncatedSeries(
            self.p, self.K, self.m,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._compat(other)
        return TruncatedSeries(
            self.p, self.K, self.m,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.p, self.K, self.m, tuple(-c for c in self.coeffs))

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._compat(other)
        out = [0] * self.m
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            # truncation at T^m: only j < m - i contributes
            for j in range(self.m - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(self.p, self.K, self.m, tuple(out))

    def scale(self, c: int) -> TruncatedSeries:
        return TruncatedSeries(self.p, self.K, self.m, tuple(c * a for a in self.coeffs))

    def inverse(self) -> TruncatedSeries:
        """Inverse of a unit series, solved coefficient by coefficient."""
        if not self.is_unit():
            raise ZeroDivisionError("series has non-unit constant term")
        q = self.modulus
        c0_inv = pow(self.coeffs[0], -1, q)
        out = [0] * self.m
        out[0] = c0_inv
        for n in range(1, self.m):
            acc = 0
            for i in range(1, n + 1):
                a = self.coeffs[i]
                if a:
                    acc += a * out[n - i]
            out[n] = (-c0_inv * acc) % q
        return TruncatedSeries(self.p, self.K, self.m, tuple(out))

    # -- precision moves ---------------------------------------------------

    def divide_content(self, mu: int) -> TruncatedSeries:
        """Divide by p^mu; the result is only determined at precision K - mu."""
        if mu == 0:
            return self
        if mu >= self.K:
            raise InsufficientPrecision(
                f"cannot strip p^{mu} at precision K={self.K}"
            )
        pm = self.p**mu
        for i, c in enumerate(self.coeffs):
            if c % pm != 0:
                raise ValueError(f"coefficient {i} not divisible by p^{mu}")
        return TruncatedSeries(
            self.p, self.K - mu, self.m, tuple(c // pm for c in self.coeffs)
        )

    def lift_precision(self, K_new: int) -> TruncatedSeries:
        """Reinterpret at a higher precision (coefficients lift as given)."""
        if K_new < self.K:
            raise ValueError("use reduce_precision to lower K")
        return TruncatedSeries(self.p, K_new, self.m, self.coeffs)

    def reduce_precision(self, K_new: int) -> TruncatedSeries:
        if K_new > self.K:
            raise ValueError("use lift_precision to raise K")
        return TruncatedSeries(self.p, K_new, self.m, self.coeffs)

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*T" if c != 1 else "T")
            else:
                terms.append(f"{c}*T^{i}" if c != 1 else f"T^{i}")
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True, slots=True)
class WeierstrassForm:
    """Decomposition p^mu * P * U of a nonzero truncated series.

    P (``distinguished``) is monic of some degree d with every lower
    coefficient divisible by p; U (``unit``) has a unit constant term. Both
    are carried at precision K - mu: after p^mu is stripped, the factors are
    only determined mod p^(K-mu). ``recompose`` returns to the original
    precision.
    """

    mu: int
    distinguished: TruncatedSeries
    unit: TruncatedSeries

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        P, U = self.distinguished, self.unit
        P._compat(U)
        _distinguished_degree(P)
        if not U.is_unit():
            raise ValueError("unit part has non-unit constant term")

    def recompose(self, K: int) -> TruncatedSeries:
        """p^mu * P * U, reinterpreted at the original precision K."""
        prod = self.distinguished * self.unit
        lifted = prod.lift_precision(K)
        return lifted.scale(self.distinguished.p**self.mu)


def weierstrass_prepare(f: TruncatedSeries) -> WeierstrassForm:
    """Split f as p^mu * P * U with P monic distinguished and U a unit.

    The truncated ring admits several (P, U) pairs with the same product;
    they differ by coefficients of U above degree m-1-deg(P), whose
    contribution is invisible past the truncation. We return the canonical
    pair, the unique one with deg(U) <= m-1-deg(P). Algorithm: strip the
    p-power content, seed P = T^d at the lowest unit coefficient, then run
    quadratic Hensel lifting on P and the inverse w of U mod P together
    (von zur Gathen-Gerhard, Modern Computer Algebra, 15.4). Each round
    recomputes U as the exact polynomial quotient of g by the monic
    candidate P, so the degree bound on U holds by construction; takes one
    Newton step w <- w*(2 - U*w) mod P, after seeding w mod p once; and
    adds the remainder times w mod P to P. P and w both double their
    p-adic precision each round: O(log K) rounds, each two long divisions
    by P (O(m*d) for d = deg P) and three products mod P (O(d^2)).

    Raises:
        InsufficientPrecision: if f is 0 at precision K (mu cannot be
            read off), or if the lift fails to converge.
    """
    if f.is_zero():
        raise InsufficientPrecision(
            f"series is 0 at precision K={f.K}; content exponent unknown"
        )
    mu = f.content_valuation()
    g = f.divide_content(mu)
    Kp = g.K
    p, m, q = g.p, g.m, g.modulus
    d = next(i for i, c in enumerate(g.coeffs) if c % p != 0)

    P = [0] * d + [1]  # coefficients of the monic candidate, degree d
    w = None  # inverse of U mod (P, p^k), its precision doubling with P's
    for _ in range(Kp.bit_length() + 2):
        U, err = _monic_divmod(g.coeffs, P, q)
        if all(c == 0 for c in err):
            break
        ubar = _monic_divmod(U, P, q)[1]
        if w is None:
            # seed mod p by series recursion, as P = T^d mod p
            u0_inv = pow(ubar[0], -1, p)
            w = [0] * d
            w[0] = u0_inv
            for k in range(1, d):
                acc = sum(ubar[t] * w[k - t] for t in range(1, k + 1))
                w[k] = (-u0_inv * acc) % p
        # one step w <- w*(2 - U*w) per round keeps pace with the factor
        corr = [-c for c in _mul_mod_monic(ubar, w, P, q)]
        corr[0] += 2
        w = _mul_mod_monic(w, corr, P, q)
        delta = _mul_mod_monic(err, w, P, q)
        P[:d] = [(a + b) % q for a, b in zip(P, delta)]
    else:
        U, err = _monic_divmod(g.coeffs, P, q)
        if any(c != 0 for c in err):
            raise InsufficientPrecision("factor lift did not converge")

    return WeierstrassForm(
        mu,
        TruncatedSeries._of_residues(p, Kp, m, tuple(P + [0] * (m - d - 1))),
        TruncatedSeries._of_residues(p, Kp, m, tuple(U)),
    )


def weierstrass_divide(
    f: TruncatedSeries, P: TruncatedSeries
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Division with remainder by a monic distinguished polynomial.

    Returns (q, r) with f = q*P + r at precision, deg r < deg P, and q
    supported below T^(m - deg P). The divisor's leading coefficient is 1,
    so plain top-down long division is exact mod p^K; no iteration budget
    is ever exceeded for polynomial inputs.

    Args:
        f: dividend (any series, zero allowed).
        P: monic distinguished polynomial presented as a series over the
            same (p, K, m).

    Raises:
        RingMismatch: mismatched (p, K, m).
        ValueError: P not monic distinguished or of degree >= m.
    """
    f._compat(P)
    d = _distinguished_degree(P)
    quot, rem = _monic_divmod(f.coeffs, P.coeffs[: d + 1], f.modulus)
    r = TruncatedSeries._of_residues(f.p, f.K, f.m, tuple(rem) + (0,) * (f.m - d))
    return TruncatedSeries._of_residues(f.p, f.K, f.m, tuple(quot)), r


def _monic_divmod(coeffs, P, q: int) -> tuple:
    """Top-down long division of a coefficient list by monic P, mod q.

    P lists its coefficients up to the leading 1, so deg P = len(P) - 1.
    Returns (quotient, remainder) as lists of residues in [0, q): the
    quotient as long as the dividend, the remainder of length deg P.
    The dividend may be unreduced. Each step reduces only the leading
    coefficient it divides out, and subtracts its multiple of P from the
    d coefficients below it in one slice update; the remainder is reduced
    once at the end. P is monic, so every quotient coefficient is the
    same residue as under a reduction after each multiply-add.
    """
    d = len(P) - 1
    low = P[:d]
    rem = list(coeffs)
    quot = [0] * len(rem)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] % q
        if c:
            j = i - d
            quot[j] = c
            rem[j:i] = [r - c * t for r, t in zip(rem[j:i], low)]
    return quot, [r % q for r in rem[:d]]


def _mul_mod_monic(a: list, b: list, P: list, q: int) -> list:
    """a * b mod (P, q) for monic P, as a list of deg P residues.

    The product is built from slice updates and left unreduced; the one
    reduction is that of the remainder in ``_monic_divmod``.
    """
    n = len(b)
    prod = [0] * (len(a) + n - 1)
    for i, ai in enumerate(a):
        if ai:
            prod[i : i + n] = [x + ai * y for x, y in zip(prod[i : i + n], b)]
    red = _monic_divmod(prod, P, q)[1]
    return red + [0] * (len(P) - 1 - len(red))


def _distinguished_degree(P: TruncatedSeries) -> int:
    """Degree of a monic distinguished polynomial given as a series.

    Raises ValueError unless P is monic with every lower coefficient
    divisible by p.
    """
    for d in range(P.m - 1, -1, -1):
        c = P.coeffs[d]
        if c == 0:
            continue
        if c != 1:
            raise ValueError("polynomial is not monic")
        for i in range(d):
            if P.coeffs[i] % P.p:
                raise ValueError(f"coefficient {i} is a unit; not distinguished")
        return d
    raise ValueError("polynomial is zero")


@dataclass(frozen=True, slots=True)
class SpecializationRing:
    """The local ring a series ring maps onto when one prime is deformed.

    Two kinds are supported:

    * ``kind="eisenstein"``: Z_p[x]/(x^j + p), the target when the prime
      (p) itself is deformed by T^j. Totally ramified of degree j; the
      image of T is the uniformizer; val(p) = j.
    * ``kind="unramified"``: Z_p, the target when a linear prime (T - a)
      with val(a) >= 1 is deformed by p^j; T maps to a - p^j and val(p) = 1.

    Valuations are computed on canonical representatives, so they are exact
    (up to the precision cap), not monomial-wise lower bounds.
    """

    p: int
    j: int
    K: int
    kind: str
    a: int = 0  # the linear prime's root, unramified kind only

    def __post_init__(self) -> None:
        if self.kind not in ("eisenstein", "unramified"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.j < 1:
            raise ValueError("deformation index j must be >= 1")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.kind == "unramified":
            if self.a % self.p != 0:
                raise ValueError("linear prime root must have valuation >= 1")

    @property
    def valuation_cap(self) -> int:
        """Values at or above this are indistinguishable from 0 here."""
        return self.j * self.K if self.kind == "eisenstein" else self.K

    def image_valuation(self, f: TruncatedSeries) -> int:
        """Valuation of the image of f, normalized so the uniformizer has 1.

        For the eisenstein kind the representative is reduced to degree < j
        via x^j = -p; the j monomial valuations j*v_p(b_i) + i then live in
        distinct residue classes mod j, so their minimum is the exact
        valuation (no cancellation is possible). For the unramified kind
        the image is an integer and v_p applies directly.

        Returns the cap value when the image is 0 at this precision.
        """
        if f.p != self.p:
            raise RingMismatch(f"series over p={f.p}, ring over p={self.p}")
        if self.kind == "unramified":
            t = (self.a - self.p**self.j) % self.p**self.K
            acc = 0
            for c in reversed(f.coeffs):
                acc = (acc * t + c) % self.p**self.K
            return padic_valuation(self.p, acc, self.K)
        # eisenstein: fold x^j -> -p into a degree-(< j) representative
        q = self.p**self.K
        b = [0] * self.j
        for i, c in enumerate(f.coeffs):
            e, r = divmod(i, self.j)
            b[r] = (b[r] + c * pow(-self.p, e, q)) % q
        best = self.valuation_cap
        for i, c in enumerate(b):
            v = padic_valuation(self.p, c, self.K)
            if v < self.K:
                best = min(best, self.j * v + i)
        return best

"""Finitely presented modules over local rings at finite precision.

A module enters as a presentation matrix A: the cokernel of the map
R^cols -> R^rows it describes. Three coefficient rings are supported:

* ``Zp_mod_pk``: the artinian quotient Z/p^K, elements plain residues;
* ``dvr``: p-adic integers tracked at precision K (residues again, but
  an entry of valuation K is merely indistinguishable from zero);
* ``lambda``: the truncated two-variable ring from :mod:`iwafitt.ring`.

Over the two principal kinds a Fitting ideal is an exponent a, meaning
(p^a), read from the Smith normal form (a certified diagonalization by
elementary operations): the sum of the r smallest invariant exponents,
capped at K. The string marker ``"full"`` stands for the dvr zero ideal
at precision, where every minor sits above what precision K can see.
Over the series ring the ideal is the raw deduplicated list of minors,
and any further normalization is left to the ideal calculus layer. One
memoized minor enumerator serves the series ring and the slow
principal-kind oracle ``minor_fitting_exponent``. It works on plain
coefficient tuples mod p^K (length m for series, length 1 for the
principal kinds), packed into one integer each so that a Laplace term
is one integer product, and reduces once per minor; only the distinct
generators kept are built as series. One module-level slot holds what
is known of the last matrix read: its minor table, so a Fitting chain
over the series ring evaluates each minor once, and over the principal
kinds its verified Smith exponents, so a chain and ``dvr_structure``
diagonalize it once. The DVR kind also gets the elementary-divisor
reading of a torsion cokernel.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import (InputError, InsufficientPrecision, NotTorsion, RingMismatch,
                     check_index, read_int, read_ints, read_list, read_obj)
from .ring import TruncatedSeries, padic_valuation

_PRINCIPAL_KINDS = ("Zp_mod_pk", "dvr")
_KINDS = _PRINCIPAL_KINDS + ("lambda",)


@dataclass(frozen=True)
class RingDescriptor:
    """Which coefficient ring the matrix entries live in.

    ``m`` is the T-truncation order and only meaningful for the
    ``lambda`` kind; the principal kinds leave it None.
    """

    kind: str
    p: int
    K: int
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise RingMismatch(f"unknown ring kind {self.kind!r}")
        if self.p < 2:
            raise RingMismatch(f"p must be >= 2, got {self.p}")
        if self.K < 1:
            raise RingMismatch(f"precision K must be >= 1, got {self.K}")
        if self.kind == "lambda":
            if self.m is None or self.m < 1:
                raise RingMismatch("lambda kind needs a truncation order m >= 1")
        elif self.m is not None:
            raise RingMismatch(f"kind {self.kind!r} does not take m")

    @property
    def modulus(self) -> int:
        return self.p**self.K


def _coerce_entry(ring: RingDescriptor, value, path: str = "$"):
    if ring.kind == "lambda":
        if isinstance(value, TruncatedSeries):
            if (value.p, value.K, value.m) != (ring.p, ring.K, ring.m):
                raise RingMismatch(
                    "series entry has parameters "
                    f"(p={value.p}, K={value.K}, m={value.m}), descriptor says "
                    f"(p={ring.p}, K={ring.K}, m={ring.m})"
                )
            return value
        if isinstance(value, (list, tuple)):
            coeffs = read_ints(list(value), path)
            return TruncatedSeries.make(ring.p, ring.K, ring.m, coeffs)
        raise RingMismatch(
            f"lambda entries must be series or coefficient lists, got {type(value).__name__}"
        )
    if type(value) is not int:
        raise RingMismatch(
            f"{ring.kind} entries must be integers, got {type(value).__name__}"
        )
    return value % ring.modulus


@dataclass(frozen=True)
class PresentationMatrix:
    """An n x k_rel relation matrix presenting coker(R^k_rel -> R^n).

    ``entries`` is stored as a tuple of row tuples whatever sequences it
    was given as: the minor table and Smith exponents kept for a matrix
    object must not go stale when a caller mutates a row it still holds.
    """

    ring: RingDescriptor
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple(tuple(row) for row in self.entries)
        )
        if self.rows < 0 or self.cols < 0:
            raise RingMismatch("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise RingMismatch(
                f"expected {self.rows} rows, got {len(self.entries)}"
            )
        for row in self.entries:
            if len(row) != self.cols:
                raise RingMismatch(
                    f"expected {self.cols} entries per row, got {len(row)}"
                )

    @classmethod
    def make(cls, ring: RingDescriptor, entries) -> PresentationMatrix:
        """Build from any nested iterable, coercing entries into the ring."""
        coerced = tuple(
            tuple(_coerce_entry(ring, e) for e in row) for row in entries
        )
        rows = len(coerced)
        cols = len(coerced[0]) if rows else 0
        return cls(ring, rows, cols, coerced)

    @classmethod
    def from_dict(cls, doc, path: str = "$") -> PresentationMatrix:
        """Parse the JSON matrix document, reporting the offending path."""
        doc = read_obj(doc, path)
        ring_at = f"{path}.ring"
        ring_doc = read_obj(doc.get("ring"), ring_at)
        kind = ring_doc.get("kind")
        if kind not in _KINDS:
            raise InputError(f"kind must be one of {list(_KINDS)}", f"{ring_at}.kind")
        ring = RingDescriptor(
            kind,
            read_int(ring_doc.get("p"), f"{ring_at}.p", 2),
            read_int(ring_doc.get("K"), f"{ring_at}.K", 1),
            read_int(ring_doc.get("m"), f"{ring_at}.m", 1) if kind == "lambda" else None,
        )
        rows = read_int(doc.get("rows"), f"{path}.rows", 0)
        cols = read_int(doc.get("cols"), f"{path}.cols", 0)
        entries = read_list(doc.get("entries"), f"{path}.entries")
        if len(entries) != rows:
            raise InputError(f"must be a list of {rows} rows", f"{path}.entries")
        coerced = []
        for i, row in enumerate(entries):
            at = f"{path}.entries[{i}]"
            if len(read_list(row, at)) != cols:
                raise InputError(f"row must be a list of {cols} entries", at)
            out = []
            for j, e in enumerate(row):
                try:
                    out.append(_coerce_entry(ring, e, f"{at}[{j}]"))
                except RingMismatch as exc:
                    raise InputError(str(exc), f"{at}[{j}]") from exc
            coerced.append(tuple(out))
        return cls(ring, rows, cols, tuple(coerced))

    def reduce_precision(self, new_K: int) -> PresentationMatrix:
        """The same presentation with every entry reduced mod p^new_K."""
        if new_K > self.ring.K:
            raise InsufficientPrecision(
                f"cannot lift entries from K={self.ring.K} to K={new_K}"
            )
        ring = RingDescriptor(self.ring.kind, self.ring.p, new_K, self.ring.m)
        if ring.kind == "lambda":
            rows = tuple(
                tuple(e.reduce_precision(new_K) for e in row)
                for row in self.entries
            )
        else:
            q = ring.modulus
            rows = tuple(tuple(e % q for e in row) for row in self.entries)
        return PresentationMatrix(ring, self.rows, self.cols, rows)

    def append_columns(self, extra) -> PresentationMatrix:
        """Adjoin relation columns (same ring); the cokernel only shrinks."""
        coerced = [
            [_coerce_entry(self.ring, e) for e in row] for row in extra
        ]
        if len(coerced) != self.rows:
            raise RingMismatch("extra columns must match the row count")
        rows = tuple(
            old + tuple(new) for old, new in zip(self.entries, coerced)
        )
        return PresentationMatrix(
            self.ring, self.rows, self.cols + len(coerced[0]) if self.rows else 0, rows
        )


@dataclass(frozen=True)
class FittingIdealResult:
    """One Fitting ideal, in the shape its ring allows.

    Principal kinds fill ``exponent``: an int a for (p^a), or the marker
    string "full" for the zero ideal at precision. The series kind fills
    ``generators`` instead and leaves ``exponent`` None.
    """

    index: int
    kind: str
    exponent: object = None
    generators: tuple | None = None

    def to_dict(self) -> dict:
        if self.kind == "lambda":
            return {
                "index": self.index,
                "generators": [list(g.coeffs) for g in self.generators],
            }
        return {"index": self.index, "exponent": self.exponent}


# What is known of the last matrix read: [weakref to M, minor table
# (packed rows, q, m, w, memo) or None, Smith exponents or None]. One
# slot, so it never holds more than one matrix, each part is filled on
# first use, and the weakref's callback empties it when that matrix dies.
_table = None


def _drop_table(ref) -> None:
    global _table
    if _table is not None and _table[0] is ref:
        _table = None


def _slot(M: PresentationMatrix) -> list:
    """The slot for M, started empty if it held another matrix."""
    global _table
    if _table is None or _table[0]() is not M:
        _table = [weakref.ref(M, _drop_table), None, None]
    return _table


def _smith_exponents(M: PresentationMatrix) -> tuple:
    """M's Smith exponents, K-padded, from one verified diagonalization."""
    slot = _slot(M)
    if slot[2] is None:
        slot[2] = smith_normal_form(M, allow_zero_block=True).exponents
    return slot[2]


def _minors(M: PresentationMatrix, r: int):
    """Yield every r x r minor of M, row subsets outer, column subsets inner.

    A minor is a coefficient tuple mod p^K: length m over the series
    ring, length 1 over the principal kinds. Laplace expansion along the
    first row, memoized on (row-subset, col-subset).

    Each tuple c is packed into the integer sum c_k * 2^(w*k) (Kronecker
    substitution), so one integer product is a whole polynomial product.
    All packed values have slots in [0, p^K): odd Laplace terms use the
    entry's negation mod p^K. A slot of an unreduced sum then stays below
    cols * m * p^2K < 2^w, so no slot carries into the next, and each
    minor is reduced once, slot by slot, truncated at T^m.

    The packed rows and the memo form one minor table per matrix, kept
    in the single module-level slot keyed by a weak reference to M, next
    to the Smith exponents; neither part drops the other. The width w
    depends only on (cols, m, p^K), so minors of every order share the
    table, and a Fitting chain i = 0, 1, ... evaluates each minor once.
    The table holds M's minors of all orders computed so far for as long
    as M is alive: it is emptied when M dies, and replaced when another
    matrix is read. A generator keeps its own table once started, and an
    early break leaves only finished minors in it.
    """
    slot = _slot(M)
    table = slot[1]
    if table is None:
        ring = M.ring
        if ring.kind == "lambda":
            m, entries = ring.m, [[e.coeffs for e in row] for row in M.entries]
        else:
            m, entries = 1, [[(e,) for e in row] for row in M.entries]
        q = ring.modulus
        w = (M.cols * m * q * q).bit_length()
        rows = tuple(
            tuple((_pack(cs, q, w), _pack([-c for c in cs], q, w)) for cs in row)
            for row in entries
        )
        table = slot[1] = (rows, q, m, w, {})
    rows, q, m, w, memo = table
    mask = (1 << w) - 1
    for rs in combinations(range(M.rows), r):
        for cs in combinations(range(M.cols), r):
            x = _laplace(rows, rs, cs, q, m, w, memo)
            yield tuple((x >> (w * k)) & mask for k in range(m))


def _pack(coeffs, q: int, w: int) -> int:
    return sum(c % q << (w * k) for k, c in enumerate(coeffs))


def _laplace(rows, rs, cs, q: int, m: int, w: int, memo: dict) -> int:
    """The packed minor on rows rs and columns cs, reduced mod q below T^m.

    A plain recursive function rather than a closure, so the memo holds
    only integers keyed by index tuples: no reference cycle, and it is
    freed by reference counting alone with its minor table.
    """
    if len(rs) == 1:
        return rows[rs[0]][cs[0]][0]
    key = (rs, cs)
    hit = memo.get(key)
    if hit is not None:
        return hit
    row = rows[rs[0]]
    rest = rs[1:]
    acc = 0
    for idx, c in enumerate(cs):
        a = row[c][idx % 2]
        if a:
            acc += a * _laplace(rows, rest, cs[:idx] + cs[idx + 1 :], q, m, w, memo)
    mask = (1 << w) - 1
    out = 0
    for k in range(m):
        out |= ((acc >> (w * k)) & mask) % q << (w * k)
    memo[key] = out
    return out


def _minor_valuation(M: PresentationMatrix, r: int) -> int:
    """Min valuation over all r x r minors; K when all sit at the floor."""
    p, K = M.ring.p, M.ring.K
    best = K
    for (d,) in _minors(M, r):
        best = min(best, padic_valuation(p, d, K))
        if best == 0:
            break
    return best


def _smith_valuation(M: PresentationMatrix, r: int) -> int:
    """Sum of the r smallest invariant exponents, capped at K."""
    return min(M.ring.K, sum(_smith_exponents(M)[:r]))


def _principal_exponent(M: PresentationMatrix, i: int, valuation):
    """Exponent a of the ideal (p^a), "full" for the dvr zero ideal.

    ``valuation(M, r)`` is asked only for 0 < r <= min(rows, cols).
    """
    ring = M.ring
    r = M.rows - i
    if r <= 0:
        v = 0
    elif r > min(M.rows, M.cols):
        v = ring.K
    else:
        v = valuation(M, r)
    return "full" if v >= ring.K and ring.kind == "dvr" else v


def minor_fitting_exponent(M: PresentationMatrix, i: int):
    """The principal-kind Fitting exponent read off every (rows - i)-minor.

    Exponential in the matrix size, and independent of the Smith form:
    the slow oracle that ``fitting_ideal`` is checked against.
    """
    check_index(i)
    return _principal_exponent(M, i, _minor_valuation)


def fitting_ideal(M: PresentationMatrix, i: int) -> FittingIdealResult:
    """The i-th Fitting ideal of the cokernel presented by M.

    Generated by the (rows - i)-minors, with the order-0 minor taken to
    be 1 (so the ideal is the full ring once i reaches the generator
    count) and the zero ideal once the minor order exceeds both matrix
    dimensions. Over the principal kinds invertible row and column
    operations leave the minor ideals unchanged, so the exponent is read
    from the Smith form, computed once per matrix: the sum of the r
    smallest invariant exponents, capped at K. Over the series ring the
    minors themselves are the generators.
    """
    check_index(i)
    ring = M.ring
    if ring.kind != "lambda":
        return FittingIdealResult(
            i, ring.kind, exponent=_principal_exponent(M, i, _smith_valuation)
        )
    r = M.rows - i
    one = TruncatedSeries.one(ring.p, ring.K, ring.m)
    if r <= 0:
        return FittingIdealResult(i, ring.kind, generators=(one,))
    gens = {}  # coefficient tuples, in first-seen order
    if r <= min(M.rows, M.cols):
        for g in _minors(M, r):
            if g[0] % ring.p:
                gens = {one.coeffs: None}
                break
            if any(g):
                gens[g] = None
    return FittingIdealResult(
        i, ring.kind,
        generators=tuple(
            TruncatedSeries._of_residues(ring.p, ring.K, ring.m, g) for g in gens
        ),
    )


@dataclass(frozen=True)
class SmithCertificate:
    """Diagonalization D = U A V over Z/p^K or the DVR, residues mod p^K.

    ``exponents`` lists the diagonal valuations, non-decreasing; an
    entry equal to K marks a diagonal slot the precision cannot tell
    from zero. U and V are products of elementary operations, so both
    have unit determinant.
    """

    exponents: tuple
    left: tuple
    diagonal: tuple
    right: tuple

    def verifies(self, M: PresentationMatrix) -> bool:
        """Whether this certifies M's Smith form, every part checked.

        D must be n x k, zero off the diagonal, with p^e mod p^K in slot
        t for the t-th of the min(n, k) non-decreasing exponents in
        [0, K]; U and V must be square with a unit determinant; and
        U A V must equal D. Without the determinant check a zero U (with
        D = 0) would certify any matrix.
        """
        p, K = M.ring.p, M.ring.K
        q = p**K
        n, k = M.rows, M.cols
        exps = self.exponents
        if (
            len(exps) != min(n, k)
            or any(not 0 <= e <= K for e in exps)
            or any(a > b for a, b in zip(exps, exps[1:]))
            or len(self.diagonal) != n
            or any(len(row) != k for row in self.diagonal)
            or any(
                d != (p ** exps[i] % q if i == j else 0)
                for i, row in enumerate(self.diagonal)
                for j, d in enumerate(row)
            )
            or not _unit_determinant(self.left, n, p)
            or not _unit_determinant(self.right, k, p)
        ):
            return False
        UA = [
            [
                sum(self.left[i][t] * M.entries[t][j] for t in range(n)) % q
                for j in range(k)
            ]
            for i in range(n)
        ]
        UAV = [
            [
                sum(UA[i][t] * self.right[t][j] for t in range(k)) % q
                for j in range(k)
            ]
            for i in range(n)
        ]
        return all(
            UAV[i][j] == self.diagonal[i][j]
            for i in range(n)
            for j in range(k)
        )


def _unit_determinant(rows, n: int, p: int) -> bool:
    """Whether rows form an n x n matrix invertible mod p^K.

    That is, its reduction mod p has full rank: elimination there finds
    a pivot prime to p in every column.
    """
    if len(rows) != n or any(len(row) != n for row in rows):
        return False
    A = [[e % p for e in row] for row in rows]
    for t in range(n):
        piv = next((i for i in range(t, n) if gcd(A[i][t], p) == 1), None)
        if piv is None:
            return False
        A[t], A[piv] = A[piv], A[t]
        inv = pow(A[t][t], -1, p)
        for i in range(t + 1, n):
            if A[i][t]:
                c = A[i][t] * inv
                A[i] = [(a - c * b) % p for a, b in zip(A[i], A[t])]
    return True


def smith_normal_form(
    M: PresentationMatrix, allow_zero_block: bool = False
) -> SmithCertificate:
    """Diagonalize a principal-kind matrix by elementary operations.

    Both Z/p^K and the DVR at precision K are local principal ideal
    rings, so the same pivoting serves both. Pivots are chosen by
    minimal valuation, ties broken by (row, col).
    Once the remaining block is indistinguishable from zero the routine
    either pads the exponents with K (``allow_zero_block``) or refuses,
    since precision K cannot certify those divisors.
    """
    if M.ring.kind not in _PRINCIPAL_KINDS:
        raise RingMismatch(
            f"Smith normal form needs a principal kind, got {M.ring.kind!r}"
        )
    p, K = M.ring.p, M.ring.K
    q = p**K
    n, k = M.rows, M.cols
    A = [list(row) for row in M.entries]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(k)] for i in range(k)]
    lim = min(n, k)
    exps = []
    t = 0
    while t < lim:
        best = None
        for i in range(t, n):
            for j in range(t, k):
                v = padic_valuation(p, A[i][j], K)
                if best is None or v < best[0]:
                    best = (v, i, j)
        v, bi, bj = best
        if v >= K:
            if not allow_zero_block:
                raise InsufficientPrecision(
                    f"pivot valuation is indistinguishable from K={K}"
                )
            exps.extend([K] * (lim - t))
            break
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
            for row in V:
                row[t], row[bj] = row[bj], row[t]
        pv = p**v
        uinv = pow(A[t][t] // pv, -1, q)
        A[t] = [(e * uinv) % q for e in A[t]]
        U[t] = [(e * uinv) % q for e in U[t]]
        # pivot is now exactly p^v; it divides the whole block, so one
        # subtraction per entry clears the cross
        for i in range(n):
            if i != t and A[i][t]:
                c = A[i][t] // pv
                A[i] = [(a - c * b) % q for a, b in zip(A[i], A[t])]
                U[i] = [(a - c * b) % q for a, b in zip(U[i], U[t])]
        for j in range(k):
            if j != t and A[t][j]:
                c = A[t][j] // pv
                for row in A:
                    row[j] = (row[j] - c * row[t]) % q
                for row in V:
                    row[j] = (row[j] - c * row[t]) % q
        exps.append(v)
        t += 1
    cert = SmithCertificate(
        tuple(exps),
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in A),
        tuple(tuple(r) for r in V),
    )
    if not cert.verifies(M):
        raise AssertionError("diagonalization certificate failed to verify")
    return cert


@dataclass(frozen=True)
class ElementaryDVRModule:
    """A torsion DVR module recorded by its divisor exponents.

    Exponents are sorted non-decreasing and all >= 1; the empty tuple is
    the zero module.
    """

    exponents: tuple

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        object.__setattr__(self, "exponents", exps)
        for e in exps:
            check_index(e, 1, "exponent")
        if any(a > b for a, b in zip(exps, exps[1:])):
            raise ValueError(f"exponents must be non-decreasing, got {exps}")

    @property
    def length(self) -> int:
        return sum(self.exponents)


def dvr_structure(
    M: PresentationMatrix, assume_torsion: bool = False
) -> ElementaryDVRModule:
    """Elementary divisors of the cokernel, provided it is torsion.

    A presentation with fewer relation columns than generators leaves a
    free summand and is rejected outright. A divisor at the precision
    cap K cannot be told from zero; it is rejected too unless the caller
    vouches for torsion via ``assume_torsion``, in which case it is
    taken at face value as exponent K.
    """
    if M.ring.kind != "dvr":
        raise RingMismatch(
            f"structure reading needs the dvr kind, got {M.ring.kind!r}"
        )
    if M.cols < M.rows:
        raise NotTorsion(
            f"{M.rows - M.cols} generator(s) have no relation column; "
            "the cokernel has a free summand"
        )
    exps = _smith_exponents(M)
    K = M.ring.K
    if not assume_torsion and any(e >= K for e in exps):
        raise NotTorsion(
            f"a divisor exponent reached the precision cap K={K}; "
            "pass assume_torsion to accept it"
        )
    return ElementaryDVRModule(tuple(e for e in exps if e > 0))


def fitting_from_structure(E: ElementaryDVRModule, i: int) -> int:
    """Fitting exponent of an elementary module: sum of the n-i smallest."""
    check_index(i)
    n = len(E.exponents)
    return sum(E.exponents[: max(0, n - i)])


def direct_sum_fitting(E1: ElementaryDVRModule, E2: ElementaryDVRModule, i: int) -> int:
    """Fitting exponent of E1 + E2 via the splitting formula.

    Computed as the minimum of c_{s}(E1) + c_{i-s}(E2) over splittings
    of i, then cross-checked against the merged exponent list; the two
    must agree.
    """
    best = min(
        fitting_from_structure(E1, s) + fitting_from_structure(E2, i - s)
        for s in range(i + 1)
    )
    merged = ElementaryDVRModule(tuple(sorted(E1.exponents + E2.exponents)))
    via_merge = fitting_from_structure(merged, i)
    if best != via_merge:
        raise AssertionError(
            f"splitting minimum {best} disagrees with merged exponent {via_merge}"
        )
    return best

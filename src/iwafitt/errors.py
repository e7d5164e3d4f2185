"""Exception types shared across the library, and the JSON field readers.

Every failure mode that callers are expected to catch has its own class;
anything else surfaces as a plain ValueError from validation code, such
as ``check_index`` on a library argument. Malformed JSON input raises
InputError from the readers at the bottom.
"""

from __future__ import annotations


class IwafittError(Exception):
    """Base class for all library-specific errors."""


class InsufficientPrecision(IwafittError):
    """The requested result cannot be certified at the working precision."""


class RingMismatch(IwafittError):
    """Operands live over different coefficient rings."""


class NotTorsion(IwafittError):
    """A cokernel has (or may have, at this precision) a free summand."""


class NotASquare(IwafittError):
    """No pseudo-square root exists over the declared prime basis."""


class SupportCollision(IwafittError):
    """A specialization prime meets the support of the module being specialized."""


class ParityMismatch(IwafittError):
    """A stratum or Fitting index has the wrong parity for the requested formula."""


class EmptyStratum(IwafittError):
    """No index of the requested weight exists in the data."""


class PoolExhausted(IwafittError):
    """The admissible-prime pool is too small for the requested simulation."""


class NotMonotone(IwafittError):
    """Input sequence violates the required monotonicity."""


class NoStabilization(IwafittError):
    """A family did not stabilize within the supplied range."""


class InputError(IwafittError):
    """Malformed user input; carries a JSON-path pointer to the offending node."""

    def __init__(self, message: str, json_path: str = "$") -> None:
        super().__init__(f"{json_path}: {message}")
        self.message = message
        self.json_path = json_path


# JSON field readers: every type and bounds check on a parsed document (or
# a CLI flag) goes through these, so each refusal names its full path.


def read_int(value, path: str, lo: int | None = None, hi: int | None = None) -> int:
    """A JSON integer in [lo, hi]; bools and floats are refused."""
    if type(value) is not int or (lo is not None and value < lo) or (
        hi is not None and value > hi
    ):
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise InputError(f"must be an integer{bounds}", path)
    return value


def check_index(value, lo: int = 0, what: str = "index") -> int:
    """A library argument that must be an integer >= lo.

    The one check behind every Fitting index, divisor exponent and series
    parameter p, K, m; bools, floats and strings are refused like
    negatives, with ValueError.
    """
    if type(value) is not int or value < lo:
        raise ValueError(f"{what} must be an integer >= {lo}, got {value!r}")
    return value


def parse_decimal(text: str) -> int | None:
    """The integer text names when written as ``str`` writes it, else None.

    "03", " 3", "+3", "1_0" and non-ASCII digits are refused rather than
    read as 3 or 10, so two spellings never name the same integer.
    """
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def read_decimal(text: str, path: str) -> int:
    """An object key, flag or environment value naming an integer, as
    ``parse_decimal`` reads it."""
    value = parse_decimal(text)
    if value is None:
        raise InputError(f"must be a canonical decimal integer, got {text!r}", path)
    return value


def read_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InputError("must be a list", path)
    return value


def read_ints(value, path: str, lo: int | None = None) -> list:
    """A JSON list of integers >= lo, each refusal naming its element."""
    # one pass over the whole list; element paths are built on failure only
    if (
        type(value) is not list
        or not {int}.issuperset(map(type, value))
        or (lo is not None and value and min(value) < lo)
    ):
        for i, v in enumerate(read_list(value, path)):
            read_int(v, f"{path}[{i}]", lo)
    return value


def read_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InputError("must be an object", path)
    return value


def read_p(doc: dict, path: str = "$", default: int = 3) -> int:
    """The residue characteristic of a document: 'p', an integer >= 2."""
    return read_int(doc.get("p", default), f"{path}.p", 2)

"""Batch command-line front door: JSON in, canonical JSON out.

Layout: one binary, subcommand per operation family. Results go to
stdout as canonical JSON (sorted keys, no whitespace) so runs are
byte-identical at fixed input, flags, and seed; the human-facing echo,
precision banner, and wall-clock duration go to stderr. Exit code 0 on
success, 1 when a verification-style command reports a mismatch (or a
domain operation refuses its input), 2 on malformed input, with the
offending JSON path named on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from . import acceptance
from .errors import InputError, IwafittError
from .euler import (
    AdmissiblePrimeLabel,
    EulerSystemData,
    SelmerShape,
    construct_C,
    construct_D,
    reciprocity_check,
    reconstruct_shape,
    sha_exponents,
    simulate_system,
    stabilization_index,
    verify_artkappa,
    verify_artsel,
)
from .fitting import PresentationMatrix, fitting_ideal
from .ideals import (
    ElementaryLambdaModule,
    HeightOnePrime,
    LambdaIdealFactored,
    class_of,
    elementary_fitting_class,
    ord_at_prime,
    parity_audit,
    prec_leq,
    pseudo_square_root,
    sim,
    slope_report,
    specialize_elementary,
)
from .ring import TruncatedSeries

_POOL_IDS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@dataclass
class RunReport:
    """What one invocation produced: echo, banner, payload, verdict, time."""

    echo: str
    banner: str
    payload: dict
    passed: bool
    seconds: float


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _text_lines(payload, prefix=""):
    lines = []
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_text_lines(value, prefix=f"{name}."))
        else:
            lines.append(f"{name} = {json.dumps(value)}")
    return lines


def _load_doc(arg):
    if arg is None:
        raise InputError("this command needs --in (a path or inline JSON)", "$")
    if arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {arg}: {exc}", "$") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}", "$") from exc
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object", "$")
    return doc


def _require_index(args):
    if args.index is None or args.index < 0:
        raise InputError("this command needs --index >= 0", "--index")
    return args.index


def _require_stratum(args):
    if args.stratum is None or args.stratum < 1:
        raise InputError("this command needs --stratum >= 1", "--stratum")
    return args.stratum


def _seed_of(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get("IWAFITT_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(
            f"IWAFITT_SEED must be an integer, got {raw!r}", "env:IWAFITT_SEED"
        ) from exc


def _parse_shape(text, where="--shape"):
    if text is None:
        raise InputError("this command needs a shape (e:d0,d1,...)", where)
    try:
        return SelmerShape.from_string(text)
    except ValueError as exc:
        raise InputError(str(exc), where) from exc


def _shape_from_doc(obj, path):
    if isinstance(obj, str):
        return _parse_shape(obj, path)
    if isinstance(obj, dict) and obj.get("e") in (0, 1):
        try:
            return SelmerShape(obj["e"], tuple(obj.get("d", ())))
        except (TypeError, ValueError) as exc:
            raise InputError(str(exc), path) from exc
    raise InputError("shape must be 'e:d0,d1,...' or {e, d}", path)


def _parse_pool(text, k):
    """Comma list of id[:k_ell[:g|n]]; bare k_ell defaults to 2k."""
    labels = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        try:
            ident = int(bits[0])
            k_ell = int(bits[1]) if len(bits) > 1 and bits[1] else 2 * k
        except ValueError as exc:
            raise InputError(f"bad pool entry {part!r}", "--pool") from exc
        generic = True
        if len(bits) > 2:
            if bits[2] not in ("g", "n"):
                raise InputError(
                    f"pool genericity flag must be g or n, got {bits[2]!r}",
                    "--pool",
                )
            generic = bits[2] == "g"
        try:
            labels.append(AdmissiblePrimeLabel(ident, k_ell, generic))
        except ValueError as exc:
            raise InputError(str(exc), "--pool") from exc
    if not labels:
        raise InputError("pool is empty", "--pool")
    ids = [lab.ident for lab in labels]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise InputError(f"pool id {dup} appears more than once", "--pool")
    return labels


def _default_pool(k, nu_max):
    count = max(6, 2 * nu_max)
    return [AdmissiblePrimeLabel(_POOL_IDS[i], k_ell=2 * k) for i in range(count)]


def _prime_from(doc, key, p, path):
    if key not in doc:
        raise InputError(f"missing '{key}'", path)
    return HeightOnePrime.from_dict(doc[key], p, path)


def _int_field(doc, key, path, default=None):
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"'{key}' must be an integer", path)
    return value


# ------------------------------------------------------------- handlers


def _cmd_fitt(args):
    M = PresentationMatrix.from_dict(_load_doc(args.inp))
    i = _require_index(args)
    if args.K is not None:
        if args.K < 1:
            raise InputError("--K must be >= 1", "--K")
        M = M.reduce_precision(args.K)
    result = fitting_ideal(M, i)
    payload = result.to_dict()
    payload.pop("index", None)
    return payload, True, f"p={M.ring.p} K={M.ring.K}"


def _ideal_of(doc):
    """The ideal a document carries, and its p (the unit ideal has no basis)."""
    sub = doc.get("ideal", doc)
    return LambdaIdealFactored.from_dict(sub), sub.get("p", 3)


def _cmd_ideal_ord(args):
    doc = _load_doc(args.inp)
    I, p = _ideal_of(doc)
    P = _prime_from(doc, "prime", p, "$.prime")
    return {"ord": ord_at_prime(I, P)}, True, f"p={p}"


def _two_ideals(args):
    doc = _load_doc(args.inp)
    if "left" not in doc or "right" not in doc:
        raise InputError("need 'left' and 'right' ideal objects", "$")
    left = doc["left"]
    return (
        LambdaIdealFactored.from_dict(left),
        LambdaIdealFactored.from_dict(doc["right"]),
        left.get("p", 3),
    )


def _cmd_ideal_prec(args):
    I, J, p = _two_ideals(args)
    return {"prec": prec_leq(I, J)}, True, f"p={p}"


def _cmd_ideal_sim(args):
    I, J, p = _two_ideals(args)
    return {"sim": sim(I, J)}, True, f"p={p}"


def _cmd_ideal_principal(args):
    I, p = _ideal_of(_load_doc(args.inp))
    return {"class": class_of(I).to_dict()}, True, f"p={p}"


def _cmd_ideal_sqrt(args):
    I, p = _ideal_of(_load_doc(args.inp))
    return {"class": pseudo_square_root(I).to_dict()}, True, f"p={p}"


def _module_of(doc, key=None):
    sub = doc.get(key, doc) if key else doc.get("module", doc)
    return ElementaryLambdaModule.from_dict(sub)


def _cmd_module_fitt_class(args):
    E = _module_of(_load_doc(args.inp))
    cls = elementary_fitting_class(E, _require_index(args))
    return {"class": cls.to_dict()}, True, ""


def _cmd_module_specialize(args):
    doc = _load_doc(args.inp)
    E = _module_of(doc)
    p = doc.get("p", 3)
    P = _prime_from(doc, "prime", p, "$.prime")
    spec = specialize_elementary(E, P, _require_stratum(args), _require_index(args))
    payload = {
        "j": spec.j,
        "tower": spec.tower,
        "exponents": list(spec.exponents),
        "fitting_exponent": spec.m,
    }
    return payload, True, f"tower={spec.tower} j={spec.j}"


def _cmd_module_slope(args):
    doc = _load_doc(args.inp)
    E = _module_of(doc)
    p = doc.get("p", 3)
    P = _prime_from(doc, "prime", p, "$.prime")
    rep = slope_report(E, P, _require_index(args))
    payload = {
        "window": list(rep["window"]),
        "values": {str(j): v for j, v in rep["values"].items()},
        "stabilized_slope": rep["stabilized_slope"],
        "predicted_slope": rep["predicted_slope"],
        "deviation": rep["deviation"],
    }
    return payload, True, f"prime={P.label()}"


def _cmd_module_parity(args):
    doc = _load_doc(args.inp)
    rows_doc = doc.get("rows")
    if not isinstance(rows_doc, list) or not rows_doc:
        raise InputError("need a non-empty 'rows' list", "$.rows")
    rows = []
    for i, row in enumerate(rows_doc):
        if not isinstance(row, dict) or "j" not in row or "exponents" not in row:
            raise InputError("row must carry 'j' and 'exponents'", f"$.rows[{i}]")
        rows.append((row["j"], row["exponents"]))
    try:
        balanced = parity_audit(rows)
    except ValueError as exc:
        raise InputError(str(exc), "$.rows") from exc
    return {"balanced": balanced}, balanced, f"{len(rows)} rows"


def _euler_inputs(args):
    shape = _parse_shape(args.shape)
    if args.k is None or args.k < 1:
        raise InputError("this command needs --k >= 1", "--k")
    nu_max = 2 * len(shape.d) + shape.e
    pool = (
        _parse_pool(args.pool, args.k)
        if args.pool
        else _default_pool(args.k, nu_max)
    )
    return shape, args.k, pool, nu_max


def _cmd_euler_simulate(args):
    shape, k, pool, nu_max = _euler_inputs(args)
    data, _ = simulate_system(shape, k, pool, seed=_seed_of(args), nu_max=nu_max)
    return data.to_dict(), True, f"k={k} nu_max={nu_max} pool={len(pool)}"


def _cmd_euler_verify(args):
    if args.inp:
        doc = _load_doc(args.inp)
        data = EulerSystemData.from_dict(doc.get("data", doc))
        if args.shape:
            shape = _parse_shape(args.shape)
        elif "shape" in doc:
            shape = _shape_from_doc(doc["shape"], "$.shape")
        else:
            raise InputError("need a shape (--shape or doc key)", "$.shape")
        k = args.k if args.k is not None else data.k
        banner = f"k={k} external data"
    else:
        shape, k, pool, nu_max = _euler_inputs(args)
        data, _ = simulate_system(
            shape, k, pool, seed=_seed_of(args), nu_max=nu_max
        )
        banner = f"k={k} nu_max={nu_max} pool={len(pool)}"
    ra = verify_artsel(data, shape, k)
    rk = verify_artkappa(data, shape, k)
    recip = reciprocity_check(data)
    payload = {
        "artsel": ra,
        "artkappa": rk,
        "reciprocity": recip,
        "all_match": ra["all_match"] and rk["all_match"] and recip,
    }
    return payload, payload["all_match"], banner


def _cmd_euler_reconstruct(args):
    doc = _load_doc(args.inp)
    dv_doc = doc.get("delta_values")
    if not isinstance(dv_doc, dict) or not dv_doc:
        raise InputError("need a non-empty 'delta_values' map", "$.delta_values")
    dv = {}
    for key, value in dv_doc.items():
        try:
            j = int(key)
        except ValueError as exc:
            raise InputError(
                f"stratum key must be an integer, got {key!r}",
                "$.delta_values",
            ) from exc
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise InputError(
                "stratum values must be integers >= 0", f"$.delta_values.{key}"
            )
        dv[j] = value
    e = _int_field(doc, "e", "$.e")
    shape = reconstruct_shape(dv, e)
    payload = {"e": shape.e, "d": list(shape.d)}
    if args.index is not None:
        payload["sha_exponent"] = sha_exponents(dv, e, args.index)
    return payload, True, f"{len(dv)} strata"


def _cmd_euler_c_ideal(args):
    doc = _load_doc(args.inp)
    p = doc.get("p", 3)
    K = args.K if args.K is not None else _int_field(doc, "K", "$.K", 8)
    m = args.m if args.m is not None else _int_field(doc, "m", "$.m", 8)
    basis_doc = doc.get("basis")
    if not isinstance(basis_doc, list) or not basis_doc:
        raise InputError("need a non-empty 'basis' list", "$.basis")
    basis = tuple(
        HeightOnePrime.from_dict(b, p, f"$.basis[{i}]")
        for i, b in enumerate(basis_doc)
    )
    elems_doc = doc.get("elements")
    if not isinstance(elems_doc, dict) or not elems_doc:
        raise InputError("need a non-empty 'elements' map", "$.elements")
    elements = {}
    for key, coeffs in elems_doc.items():
        if not isinstance(coeffs, list) or any(
            isinstance(c, bool) or not isinstance(c, int) for c in coeffs
        ):
            raise InputError(
                "element must be a coefficient list", f"$.elements.{key}"
            )
        elements[key] = TruncatedSeries.make(p, K, m, coeffs)
    e = _int_field(doc, "e", "$.e")
    if e not in (0, 1):
        raise InputError("'e' must be 0 or 1", "$.e")
    build = construct_D if args.side == "kappa" else construct_C
    try:
        ideal = build(elements, _require_index(args), e, basis)
    except ValueError as exc:
        raise InputError(str(exc), "$.elements") from exc
    return {"class": class_of(ideal).to_dict()}, True, f"p={p} K={K} m={m}"


def _cmd_euler_stabilize(args):
    doc = _load_doc(args.inp)
    fam_doc = doc.get("family")
    if not isinstance(fam_doc, dict) or not fam_doc:
        raise InputError("need a non-empty 'family' map", "$.family")
    p = doc.get("p", 3)
    family = {}
    for key, value in fam_doc.items():
        try:
            k = int(key)
        except ValueError as exc:
            raise InputError(
                f"family key must be an integer, got {key!r}", "$.family"
            ) from exc
        if isinstance(value, bool):
            raise InputError("family value must be an integer or ideal",
                             f"$.family.{key}")
        if isinstance(value, int):
            family[k] = value
        else:
            family[k] = LambdaIdealFactored.from_dict(value, default_p=p)
    P = _prime_from(doc, "prime", p, "$.prime")
    k0 = stabilization_index(family, P, _require_stratum(args))
    return {"k0": k0}, True, f"{len(family)} levels"


def _cmd_selftest(args):
    results = acceptance.run(args.filter)
    if not results:
        raise InputError(
            f"no acceptance criterion matches {args.filter!r}", "--filter"
        )
    for r in results:
        print(r.line(), file=sys.stderr)
    payload = {
        "all_pass": all(r.passed for r in results),
        "criteria": [
            {"number": r.number, "ident": r.ident, "passed": r.passed}
            for r in results
        ],
    }
    return payload, payload["all_pass"], f"{len(results)} criteria"


# ------------------------------------------------------------- plumbing


def _add_common(sp, *, index=False, stratum=False, seed=False, km=False):
    sp.add_argument("--in", dest="inp", metavar="DOC",
                    help="input file path, or inline JSON starting with {")
    sp.add_argument("--out", metavar="PATH",
                    help="write the JSON payload here instead of stdout")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    if index:
        sp.add_argument("--index", type=int, help="Fitting/assembly index i")
    if stratum:
        sp.add_argument("--stratum", type=int, help="stratum or tower level j")
    if seed:
        sp.add_argument("--seed", type=int,
                        help="simulation seed (falls back to IWAFITT_SEED)")
    if km:
        sp.add_argument("--K", type=int, help="coefficient precision")
        sp.add_argument("--m", type=int, help="series truncation order")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="iwafitt",
        description="exact Fitting-ideal arithmetic, ideal-class calculus, "
                    "and a seeded index-calculus simulator",
    )
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("fitt", help="Fitting ideal of a presentation matrix")
    _add_common(sp, index=True)
    sp.add_argument("--K", type=int, help="reduce to this precision first")
    sp.set_defaults(func=_cmd_fitt)

    ideal = subs.add_parser("ideal", help="factored-ideal calculus")
    isubs = ideal.add_subparsers(dest="subcommand")
    for name, fn in (
        ("ord", _cmd_ideal_ord),
        ("prec", _cmd_ideal_prec),
        ("sim", _cmd_ideal_sim),
        ("principal", _cmd_ideal_principal),
        ("sqrt", _cmd_ideal_sqrt),
    ):
        sp = isubs.add_parser(name)
        _add_common(sp)
        sp.set_defaults(func=fn)

    mod = subs.add_parser("lambda-module", help="elementary module operations")
    msubs = mod.add_subparsers(dest="subcommand")
    sp = msubs.add_parser("fitt-class")
    _add_common(sp, index=True)
    sp.set_defaults(func=_cmd_module_fitt_class)
    sp = msubs.add_parser("specialize")
    _add_common(sp, index=True, stratum=True)
    sp.set_defaults(func=_cmd_module_specialize)
    sp = msubs.add_parser("slope")
    _add_common(sp, index=True)
    sp.set_defaults(func=_cmd_module_slope)
    sp = msubs.add_parser("parity")
    _add_common(sp)
    sp.set_defaults(func=_cmd_module_parity)

    eul = subs.add_parser("euler", help="index-calculus simulator")
    esubs = eul.add_subparsers(dest="subcommand")
    for name, fn, flags in (
        ("simulate", _cmd_euler_simulate, {"seed": True}),
        ("verify", _cmd_euler_verify, {"seed": True}),
        ("reconstruct", _cmd_euler_reconstruct, {"index": True}),
        ("c-ideal", _cmd_euler_c_ideal, {"index": True, "km": True}),
        ("stabilize", _cmd_euler_stabilize, {"stratum": True}),
    ):
        sp = esubs.add_parser(name)
        _add_common(sp, **flags)
        if name in ("simulate", "verify"):
            sp.add_argument("--k", type=int, help="ring length k")
            sp.add_argument("--shape", help="starting shape, e:d0,d1,...")
            sp.add_argument(
                "--pool",
                help="comma list of id[:k_ell[:g|n]]; default is a generic "
                     "pool sized to the shape with k_ell = 2k",
            )
        if name == "c-ideal":
            sp.add_argument("--side", choices=("lambda", "kappa"),
                            default="lambda")
        sp.set_defaults(func=fn)

    sp = subs.add_parser("selftest", help="run the acceptance criteria")
    _add_common(sp)
    sp.add_argument("--filter", help="only criteria whose name matches")
    sp.set_defaults(func=_cmd_selftest)
    return parser


def _emit(report: RunReport, args) -> None:
    print(f"# iwafitt {report.echo}", file=sys.stderr)
    if report.banner:
        print(f"# {report.banner}", file=sys.stderr)
    print(f"# {'pass' if report.passed else 'FAIL'} in "
          f"{report.seconds * 1000:.0f} ms", file=sys.stderr)
    if args.format == "text":
        body = "\n".join(_text_lines(report.payload)) + "\n"
    else:
        body = _canonical(report.payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    echo = " ".join(argv if argv is not None else sys.argv[1:])
    t0 = time.perf_counter()
    try:
        payload, passed, banner = args.func(args)
    except InputError as exc:
        print(f"input error at {exc.json_path}: {exc.message}", file=sys.stderr)
        return 2
    except IwafittError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report = RunReport(echo, banner, payload, passed,
                       time.perf_counter() - t0)
    _emit(report, args)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

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

from . import acceptance
from .errors import (InputError, IwafittError, parse_decimal, read_decimal, read_int,
                     read_ints, read_list, read_obj, read_p)
from .euler import (
    AdmissiblePrimeLabel,
    EulerSystemData,
    SelmerShape,
    check_index_keys,
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
    return read_obj(doc, "$")


def _read_flag(text, flag, lo=None):
    """An integer flag, or IWAFITT_SEED, read by read_decimal, so "+3",
    " 3" and "03" are refused rather than read as 3; absent reads None."""
    return read_int(None if text is None else read_decimal(text, flag), flag, lo)


def _require_index(args):
    return _read_flag(args.index, "--index", 0)


def _require_stratum(args):
    return _read_flag(args.stratum, "--stratum", 1)


def _seed_of(args):
    if args.seed is not None:
        return _read_flag(args.seed, "--seed")
    return _read_flag(os.environ.get("IWAFITT_SEED", "0"), "env:IWAFITT_SEED")


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
    if not isinstance(obj, dict):
        raise InputError("shape must be 'e:d0,d1,...' or {e, d}", path)
    e = read_int(obj.get("e"), f"{path}.e", 0, 1)
    d = read_ints(obj.get("d", []), f"{path}.d", 0)
    try:
        return SelmerShape(e, tuple(d))
    except ValueError as exc:
        raise InputError(str(exc), f"{path}.d") from exc


def _parse_pool(text, k):
    """Comma list of id[:k_ell[:g|n]]; bare k_ell defaults to 2k.

    Ids and k_ell are canonical decimals, so "02" and "+3" are refused.
    """
    labels = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        ident = parse_decimal(bits[0])
        k_ell = parse_decimal(bits[1]) if len(bits) > 1 and bits[1] else 2 * k
        if ident is None or k_ell is None:
            raise InputError(f"bad pool entry {part!r}", "--pool")
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


def _sub(doc, key):
    """The sub-document under key, or the document itself, and its path."""
    return (doc[key], f"$.{key}") if key in doc else (doc, "$")


def _tower_prime(doc, p):
    """The document's 'prime', which a deformation tower must start from."""
    P = HeightOnePrime.from_dict(doc.get("prime"), p, "$.prime")
    if P.degree > 1:
        raise InputError("a tower prime must be PI or a linear prime", "$.prime")
    return P


# ------------------------------------------------------------- handlers


def _cmd_fitt(args):
    M = PresentationMatrix.from_dict(_load_doc(args.inp))
    i = _require_index(args)
    if args.K is not None:
        M = M.reduce_precision(_read_flag(args.K, "--K", 1))
    result = fitting_ideal(M, i)
    payload = result.to_dict()
    payload.pop("index", None)
    return payload, True, f"p={M.ring.p} K={M.ring.K}"


def _ideal_at(doc, path):
    """The ideal at path, and its p (the unit ideal has no basis to carry it)."""
    return LambdaIdealFactored.from_dict(doc, path=path), read_p(doc, path)


def _cmd_ideal_ord(args):
    doc = _load_doc(args.inp)
    I, p = _ideal_at(*_sub(doc, "ideal"))
    P = HeightOnePrime.from_dict(doc.get("prime"), p, "$.prime")
    return {"ord": ord_at_prime(I, P)}, True, f"p={p}"


def _two_ideals(args):
    doc = _load_doc(args.inp)
    left, p = _ideal_at(doc.get("left"), "$.left")
    return left, _ideal_at(doc.get("right"), "$.right")[0], p


def _cmd_ideal_prec(args):
    I, J, p = _two_ideals(args)
    return {"prec": prec_leq(I, J)}, True, f"p={p}"


def _cmd_ideal_sim(args):
    I, J, p = _two_ideals(args)
    return {"sim": sim(I, J)}, True, f"p={p}"


def _cmd_ideal_principal(args):
    I, p = _ideal_at(*_sub(_load_doc(args.inp), "ideal"))
    return {"class": class_of(I).to_dict()}, True, f"p={p}"


def _cmd_ideal_sqrt(args):
    I, p = _ideal_at(*_sub(_load_doc(args.inp), "ideal"))
    return {"class": pseudo_square_root(I).to_dict()}, True, f"p={p}"


def _module_of(doc):
    sub, path = _sub(doc, "module")
    return ElementaryLambdaModule.from_dict(sub, path=path)


def _cmd_module_fitt_class(args):
    E = _module_of(_load_doc(args.inp))
    cls = elementary_fitting_class(E, _require_index(args))
    return {"class": cls.to_dict()}, True, ""


def _cmd_module_specialize(args):
    doc = _load_doc(args.inp)
    E = _module_of(doc)
    P = _tower_prime(doc, read_p(doc))
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
    P = _tower_prime(doc, read_p(doc))
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
    rows = []
    for i, row in enumerate(read_list(doc.get("rows"), "$.rows")):
        at = f"$.rows[{i}]"
        j = read_int(read_obj(row, at).get("j"), f"{at}.j")
        rows.append((j, read_ints(row.get("exponents"), f"{at}.exponents", 0)))
    try:
        balanced = parity_audit(rows)
    except ValueError as exc:
        raise InputError(str(exc), "$.rows") from exc
    return {"balanced": balanced}, balanced, f"{len(rows)} rows"


def _euler_inputs(args):
    shape = _parse_shape(args.shape)
    k = _read_flag(args.k, "--k", 1)
    nu_max = 2 * len(shape.d) + shape.e
    pool = _parse_pool(args.pool, k) if args.pool else _default_pool(k, nu_max)
    return shape, k, pool, nu_max


def _cmd_euler_simulate(args):
    shape, k, pool, nu_max = _euler_inputs(args)
    data, _ = simulate_system(shape, k, pool, seed=_seed_of(args), nu_max=nu_max)
    return data.to_dict(), True, f"k={k} nu_max={nu_max} pool={len(pool)}"


def _cmd_euler_verify(args):
    if args.inp:
        doc = _load_doc(args.inp)
        data = EulerSystemData.from_dict(*_sub(doc, "data"))
        if args.shape:
            shape = _parse_shape(args.shape)
        elif "shape" in doc:
            shape = _shape_from_doc(doc["shape"], "$.shape")
        else:
            raise InputError("need a shape (--shape or doc key)", "$.shape")
        k = data.k if args.k is None else _read_flag(args.k, "--k", 1)
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
    dv = {}
    for key, value in read_obj(doc.get("delta_values"), "$.delta_values").items():
        at = f"$.delta_values.{key}"
        dv[read_decimal(key, at)] = read_int(value, at, 0)
    e = read_int(doc.get("e"), "$.e", 0, 1)
    try:
        shape = reconstruct_shape(dv, e)
    except ValueError as exc:
        raise InputError(str(exc), "$.delta_values") from exc
    payload = {"e": shape.e, "d": list(shape.d)}
    if args.index is not None:
        try:
            payload["sha_exponent"] = sha_exponents(dv, e, _require_index(args))
        except ValueError as exc:
            raise InputError(str(exc), "--index") from exc
    return payload, True, f"{len(dv)} strata"


def _cmd_euler_c_ideal(args):
    doc = _load_doc(args.inp)
    p = read_p(doc)
    K, m = (
        read_int(doc.get(x, 8), f"$.{x}", 1) if v is None
        else _read_flag(v, f"--{x}", 1)
        for x, v in (("K", args.K), ("m", args.m))
    )
    basis_doc = read_list(doc.get("basis"), "$.basis")
    if not basis_doc:
        raise InputError("need a non-empty 'basis' list", "$.basis")
    basis = tuple(
        HeightOnePrime.from_dict(b, p, f"$.basis[{i}]")
        for i, b in enumerate(basis_doc)
    )
    elements_doc = read_obj(doc.get("elements"), "$.elements")
    check_index_keys(elements_doc, "$.elements")
    elements = {
        key: TruncatedSeries.make(p, K, m, read_ints(coeffs, f"$.elements.{key}"))
        for key, coeffs in elements_doc.items()
    }
    e = read_int(doc.get("e"), "$.e", 0, 1)
    build = construct_D if args.side == "kappa" else construct_C
    try:
        ideal = build(elements, _require_index(args), e, basis)
    except ValueError as exc:
        raise InputError(str(exc), "$.elements") from exc
    return {"class": class_of(ideal).to_dict()}, True, f"p={p} K={K} m={m}"


def _cmd_euler_stabilize(args):
    doc = _load_doc(args.inp)
    p = read_p(doc)
    family = {}
    for key, value in read_obj(doc.get("family"), "$.family").items():
        at = f"$.family.{key}"
        family[read_decimal(key, at)] = (
            value if type(value) is int
            else LambdaIdealFactored.from_dict(value, p, at)
        )
    if not family:
        raise InputError("need a non-empty 'family' map", "$.family")
    P = _tower_prime(doc, p)
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
        sp.add_argument("--index", help="Fitting/assembly index i")
    if stratum:
        sp.add_argument("--stratum", help="stratum or tower level j")
    if seed:
        sp.add_argument("--seed",
                        help="simulation seed (falls back to IWAFITT_SEED)")
    if km:
        sp.add_argument("--K", help="coefficient precision")
        sp.add_argument("--m", help="series truncation order")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="iwafitt",
        description="exact Fitting-ideal arithmetic, ideal-class calculus, "
                    "and a seeded index-calculus simulator",
    )
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("fitt", help="Fitting ideal of a presentation matrix")
    _add_common(sp, index=True)
    sp.add_argument("--K", help="reduce to this precision first")
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
            sp.add_argument("--k", help="ring length k")
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


def _emit(args, echo, banner, payload, passed, seconds) -> None:
    print(f"# iwafitt {echo}", file=sys.stderr)
    if banner:
        print(f"# {banner}", file=sys.stderr)
    print(f"# {'pass' if passed else 'FAIL'} in {seconds * 1000:.0f} ms",
          file=sys.stderr)
    if args.format == "text":
        body = "\n".join(_text_lines(payload)) + "\n"
    else:
        body = _canonical(payload) + "\n"
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
    _emit(args, echo, banner, payload, passed, time.perf_counter() - t0)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

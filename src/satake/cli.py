"""Command-line front end: datum selection, computations, verification batteries.

Every subcommand produces deterministic output for fixed inputs (sorted keys,
canonical polynomial printing); the CLI parses, dispatches and maps exceptions to exit
codes, and each library layer checks and bounds its own work.  Exit status: 0 success, 1
verification failure, 2 usage error (input refused while it is parsed or by its layer's
check, or as TooLarge), 3 internal error (a broken invariant, or another ValueError).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .grassmannian import Grassmannian
from .hecke import A_BASIS, BasisElement, HeckeAlgebra
from .rank1_oracle import Rank1Oracle
from .rep_ring import RepRing, torus_point
from .root_datum import LIMIT, PRESETS, RootDatum, TooLarge, build_root_datum
from .whittaker import WhittakerModule


class UsageError(Exception):
    pass


def _refused(func, *args):
    """func(*args), with a ValueError from it raised as a UsageError: the input is refused."""
    try:
        return func(*args)
    except ValueError as exc:
        raise UsageError(str(exc))


def _integer_rows(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in value
    )


def _load_datum(spec: str) -> RootDatum:
    if spec in PRESETS:
        return build_root_datum(spec)
    if not os.path.isfile(spec):
        raise UsageError(
            "unknown datum %r: expected a preset (%s) or a JSON file path"
            % (spec, ", ".join(sorted(PRESETS)))
        )
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError("cannot read datum file %r: %s" % (spec, exc))
    if not isinstance(data, dict) or not all(
        _integer_rows(data.get(key)) for key in ("cartan", "coroots", "roots")
    ):
        raise UsageError(
            "datum file %r must hold a JSON object whose cartan, coroots and roots "
            "are lists of integer lists" % spec
        )
    try:
        return build_root_datum(data)
    except ValueError as exc:
        raise UsageError("invalid datum in %r: %s" % (spec, exc))


def _parse_coweight(text: str, datum: RootDatum) -> Tuple[int, ...]:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError("cannot parse coweight %r (expected comma-separated integers)" % text)
    if len(coords) != datum.lattice_rank:
        raise UsageError(
            "coweight %r has %d coordinates; datum needs %d"
            % (text, len(coords), datum.lattice_rank)
        )
    return coords


def _parse_dominant(text: str, datum: RootDatum) -> Tuple[int, ...]:
    return _refused(datum.dominant, _parse_coweight(text, datum))


def _parse_gamma(text: str, datum: RootDatum):
    try:
        values = [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError("cannot parse torus point %r (expected comma-separated rationals)" % text)
    return _refused(torus_point, values, datum)


def _parse_v(text: str) -> Fraction:
    """The square root v of a rational q given on the command line."""
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("cannot parse q value %r" % text)
    if q <= 0:
        raise UsageError("q must be a positive rational")
    n = math.isqrt(q.numerator)
    d = math.isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        raise UsageError("q = %s is not a perfect rational square; pass a square value" % q)
    return Fraction(n, d)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _coweight_key(cw: Sequence[int]) -> str:
    return ",".join(str(x) for x in cw)


def _emit(args, payload=None, header=(), rows=(), lines=()) -> None:
    """Write a command's result in the format chosen by --format.

    payload is the JSON value, header and rows the CSV table, lines the pretty
    text; a command fills in the forms that its --format choices allow.
    """
    if args.format == "json":
        text = _json_dump(payload)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_mult_map(args, mapping: Dict[Tuple[int, ...], int]) -> None:
    items = [(_coweight_key(cw), mult) for cw, mult in sorted(mapping.items())]
    _emit(
        args,
        payload=dict(items),
        header=["coweight", "multiplicity"],
        rows=items,
        lines=["%s: %d" % item for item in items],
    )


# -- subcommands ---------------------------------------------------------------


def _cmd_tensor(args) -> int:
    datum = _load_datum(args.datum)
    lam = _parse_dominant(args.lam, datum)
    mu = _parse_dominant(args.mu, datum)
    _emit_mult_map(args, RepRing(datum).tensor_decompose(lam, mu))
    return 0


def _cmd_weights(args) -> int:
    datum = _load_datum(args.datum)
    lam = _parse_dominant(args.lam, datum)
    _emit_mult_map(args, RepRing(datum).weight_table(lam))
    return 0


def _cmd_satake(args) -> int:
    datum = _load_datum(args.datum)
    algebra = HeckeAlgebra(datum)
    lam = _parse_dominant(args.lam, datum)
    element = algebra.satake_to_c(algebra.monomial(A_BASIS, lam))
    lines = ["c_%s: %s" % (_coweight_key(cw), coeff) for cw, coeff in element.sorted_terms()]
    _emit(args, payload=element.to_json(), lines=lines + ["(q = v^2)"])
    return 0


def _cmd_hecke_mul(args) -> int:
    datum = _load_datum(args.datum)
    algebra = HeckeAlgebra(datum)
    lam = _parse_dominant(args.lam, datum)
    mu = _parse_dominant(args.mu, datum)
    product = algebra.mul(algebra.monomial(A_BASIS, lam), algebra.monomial(A_BASIS, mu))
    _emit(args, payload=product.to_json())
    return 0


def _cmd_whittaker_eval(args) -> int:
    datum = _load_datum(args.datum)
    if args.cutoff < 0:
        raise UsageError("--cutoff must be nonnegative; got %d" % args.cutoff)
    v_value = None if args.q is None else _parse_v(args.q)
    module = WhittakerModule(HeckeAlgebra(datum))
    gamma = _parse_gamma(args.gamma, datum)
    rows = []
    for lam in datum.dominant_box(args.cutoff):
        value = module.whittaker_value(gamma, lam)
        coeff, power = value if v_value is None else (value.evaluate(v_value), 0)
        rows.append((_coweight_key(lam), coeff.numerator, coeff.denominator, power))
    _emit(
        args,
        payload={key: {"num": num, "den": den, "v_power": power} for key, num, den, power in rows},
        header=["lambda", "numerator", "denominator", "v_power"],
        rows=rows,
    )
    return 0


def _cmd_predict(args) -> int:
    datum = _load_datum(args.datum)
    geometry = Grassmannian(RepRing(datum))
    lam = _parse_dominant(args.lam, datum)
    mu = _parse_coweight(args.mu, datum)
    nu = _parse_coweight(args.nu, datum)
    target = tuple(a + b for a, b in zip(mu, nu))
    if not datum.is_dominant(target):
        raise UsageError("hypothesis violated: μ+ν = %r is not dominant" % (target,))
    prediction = geometry.predicted_cohomology(lam, mu, nu)
    row = [
        _coweight_key(lam),
        _coweight_key(mu),
        _coweight_key(nu),
        prediction.vanishes,
        "" if prediction.degree is None else prediction.degree,
        prediction.dimension,
        "" if prediction.frobenius_weight is None else prediction.frobenius_weight,
    ]
    _emit(
        args,
        payload=prediction.to_json(),
        header=["lambda", "mu", "nu", "vanishes", "k", "dim", "frob_weight"],
        rows=[row],
    )
    return 0


def _cmd_strata(args) -> int:
    datum = _load_datum(args.datum)
    strata = _refused(Grassmannian(RepRing(datum)).drinfeld_strata, args.bound)
    _emit(
        args,
        payload=[{"gamma": list(gamma), "codim": codim} for gamma, codim in strata],
        header=["gamma", "codim"],
        rows=[(_coweight_key(gamma), codim) for gamma, codim in strata],
    )
    return 0


def _element_text(element: BasisElement) -> str:
    terms = "; ".join("%s: %s" % (_coweight_key(cw), c) for cw, c in element.sorted_terms())
    return "%s{%s}" % (element.basis, terms)


def _failure(inputs: Dict[str, str], lhs, rhs) -> Optional[dict]:
    """None when the two sides agree, else the failing case with both sides as text."""
    if lhs == rhs:
        return None
    if isinstance(lhs, BasisElement):
        lhs, rhs = _element_text(lhs), _element_text(rhs)
    return {"inputs": inputs, "lhs": str(lhs), "rhs": str(rhs)}


def _cmd_verify_cs(args) -> int:
    datum = _load_datum(args.datum)
    algebra = HeckeAlgebra(datum)
    module = WhittakerModule(algebra)
    # a battery that checks nothing, whose eigenfunction check cannot run, or that is
    # oversized is refused before any work
    _refused(module.require_window, args.cutoff)
    if args.gammas < 1:
        raise UsageError("--gammas must be at least 1; got %d" % args.gammas)
    box = datum.dominant_box(args.cutoff)
    if len(box) ** 2 > LIMIT:
        raise TooLarge("cutoff %d gives %d module-axiom pairs; the limit is %d"
                       % (args.cutoff, len(box) ** 2, LIMIT))
    phi0 = module.phi_zero()

    def basis_case(lam):
        element = algebra.monomial(A_BASIS, lam)
        return _failure(
            {"lambda": _coweight_key(lam)}, module.act(phi0, element), module.f_transform(element)
        )

    def module_case(lam, mu):
        h1 = algebra.monomial(A_BASIS, lam)
        h2 = algebra.monomial(A_BASIS, mu)
        return _failure(
            {"lambda": _coweight_key(lam), "mu": _coweight_key(mu)},
            module.f_transform(algebra.mul(h1, h2)),
            module.act(module.f_transform(h1), h2),
        )

    def eigen_case(gamma, lam_act):
        residual = module.eigen_residual(gamma, lam_act, args.cutoff)
        nu = next((nu for nu, value in sorted(residual.items()) if value != 0), None)
        if nu is None:
            return None
        # the two sides at ν, with the common power of v divided out
        rhs = module.rep.character_eval(lam_act, gamma) * module.rep.dual_character_eval(nu, gamma)
        inputs = {
            "gamma": ",".join(str(g) for g in gamma),
            "lambda": _coweight_key(lam_act),
            "nu": _coweight_key(nu),
        }
        return _failure(inputs, residual[nu] + rhs, rhs)

    rng = random.Random(args.seed)
    gammas = [
        tuple(
            Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))
            for _ in range(datum.lattice_rank)
        )
        for _ in range(args.gammas)
    ]
    actions = [lam for lam in box if 0 < datum.pairing_2rho(lam) <= 4] or box[:1]
    checks = [
        ("basis-compatibility", [basis_case(lam) for lam in box]),
        ("module-axiom", [module_case(lam, mu) for lam in box for mu in box]),
        ("eigenfunction", [eigen_case(gamma, lam) for gamma in gammas for lam in actions]),
    ]

    entries, lines = [], []
    for name, outcomes in checks:
        failures = [f for f in outcomes if f is not None]
        entry = {"name": name, "cases": len(outcomes), "failures": len(failures)}
        status = "FAIL %d" % len(failures) if failures else "PASS"
        lines.append("%s: %s (%d cases)" % (name, status, len(outcomes)))
        if failures:
            first = failures[0]
            entry["first_failure"] = first
            inputs = " ".join("%s=%s" % item for item in first["inputs"].items())
            lines.append("  first failure %s: lhs=%s rhs=%s" % (inputs, first["lhs"], first["rhs"]))
        entries.append(entry)
    ok = all(entry["failures"] == 0 for entry in entries)
    _emit(args, payload={"checks": entries, "pass": ok}, lines=lines)
    return 0 if ok else 1


def _cmd_verify_eq2(args) -> int:
    oracle = _refused(Rank1Oracle, _load_datum(args.datum))
    _refused(oracle.require_battery, args.m_max, args.primes)
    report = oracle.verify_eq2(args.m_max, args.primes)
    lines = [report.summary()] + [
        "FAIL lambda=%d mu=%d nu=%d q=%d: lhs=%s rhs=%s"
        % (record.lam, record.mu, record.nu, record.q, record.lhs, record.rhs)
        for record in report.failures()
    ]
    _emit(args, payload=report.to_json(), lines=lines)
    return 0 if report.all_pass else 1


# -- parser ---------------------------------------------------------------------


def _subcommand(sub, name: str, func, help_text: str, formats: Sequence[str], *positionals: str):
    """A subparser with its positionals and the common flags; formats[0] is the default."""
    p = sub.add_parser(name, help=help_text)
    for positional in positionals:
        p.add_argument(positional)
    p.add_argument("--datum", default="PGL2", help="preset name or datum JSON file")
    p.add_argument(
        "--format", choices=formats, default=formats[0], help="default: %s" % formats[0]
    )
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satake",
        description="Exact spherical Hecke algebra and Whittaker-module calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = ("json", "csv", "pretty")

    _subcommand(sub, "tensor", _cmd_tensor,
                "decompose a tensor product of dual irreducibles", tables, "lam", "mu")
    _subcommand(sub, "weights", _cmd_weights,
                "weight multiplicity table of a dual irreducible", tables, "lam")
    _subcommand(sub, "satake", _cmd_satake,
                "base change of an A-basis element to the c-basis", ("json", "pretty"), "lam")
    _subcommand(sub, "hecke-mul", _cmd_hecke_mul,
                "multiply two A-basis elements", ("json",), "lam", "mu")

    p = _subcommand(sub, "whittaker-eval", _cmd_whittaker_eval,
                    "table of Whittaker values at a torus point", ("csv", "json"))
    p.add_argument("--gamma", required=True, help="comma-separated rationals, e.g. 2/1,3/1")
    p.add_argument("--cutoff", type=int, default=6, help="bound on the pairing with 2*rho-check")
    p.add_argument("--q", default=None, help="rational value of q (perfect square)")

    _subcommand(sub, "predict", _cmd_predict,
                "predicted twisted cohomology for (lambda, mu, nu)", ("json", "csv"),
                "lam", "mu", "nu")

    p = _subcommand(sub, "strata", _cmd_strata,
                    "compactification strata up to a defect bound", ("json", "csv"))
    p.add_argument("bound", type=int)

    p = _subcommand(sub, "verify-cs", _cmd_verify_cs,
                    "basis / module-axiom / eigenfunction battery", ("pretty", "json"))
    p.add_argument("cutoff", type=int)
    p.add_argument("--gammas", type=int, default=5, help="random torus points to test")
    p.add_argument("--seed", type=int, default=20240601)

    p = _subcommand(sub, "verify-eq2", _cmd_verify_eq2,
                    "finite-field character-sum battery (rank 1)", ("pretty", "json"))
    p.add_argument("m_max", type=int)
    p.add_argument("primes", metavar="q", type=int, nargs="+", help="prime field sizes")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main parses with: built on the first call, then reused.

    Sharing one is safe because parse_args leaves the parser as it was, every
    default is immutable, and usage and help text look up sys.stdout, sys.stderr
    and the terminal width only when they are written.
    """
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, TooLarge) as exc:
        sys.stderr.write("error: %s\n" % exc)
        sys.stderr.write("run with --help for usage\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return 3
    except ValueError as exc:
        # input is checked before its work starts, so any other ValueError is a library bug
        sys.stderr.write("internal error: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

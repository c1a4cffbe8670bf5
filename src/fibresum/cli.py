"""Command line front end.

Subcommands: ``compute`` runs the full pipeline on a problem document,
``validate`` just checks one, ``catalog`` prints a catalog side document,
``batch`` processes a list of problems, and ``snf`` prints the Smith
invariants, kernel and cokernel of a matrix.  Documents are JSON
following the schema of the model module.

Exit codes: 0 success, 1 I/O failure, 2 a document or problem broke a
rule (``DocumentError``) or an argument is bad, 3 engine assertion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from . import engine, forms, model
from .intlat import IntMatrix, kernel_and_cokernel
from .model import DocumentError, FibreSumProblem

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

# What each failure class is caught as, in ``main`` and per ``batch`` item.
INVALID_ERRORS = (DocumentError,)
INTERNAL_ERRORS = (AssertionError,)

T_DEFAULT_WARNING = (
    "t defaulted to the zero vector; this is exact only when matched bounding "
    "surfaces with equal canonical pairings exist on both sides (for example "
    "vanishing-cycle disks of tori in cusp neighbourhoods)"
)


def _group_dict(group) -> dict[str, Any]:
    return {
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
        "rendered": str(group),
    }


def build_report(problem: FibreSumProblem, include_forms: bool = True) -> dict[str, Any]:
    """The full structured report for one problem.

    Every numeric field is produced by exactly one engine or forms
    operation; the text renderer only reformats this dictionary, so both
    output formats carry identical numbers.
    """
    analysis = engine.analyse(problem)
    betti = analysis.betti

    warnings: list[str] = []
    if problem.t is None and analysis.d > 0:
        warnings.append(T_DEFAULT_WARNING)

    report: dict[str, Any] = {
        "problem": {
            "M": model.side_to_dict(problem.M),
            "N": model.side_to_dict(problem.N),
            "gluing": {"a": list(problem.gluing.a)},
            "t_supplied": None if problem.t is None else list(problem.t),
            "t_effective": list(analysis.t_effective),
            "alpha_basis": analysis.alpha_basis.to_rows(),
            "a_adapted": list(analysis.a_adapted),
        },
        "betti": dict(
            vars(betti), b0=betti.b0, b2=betti.b2, b3=betti.b3, b4=betti.b4, e=betti.e, sigma=betti.sigma
        ),
        "h1": _group_dict(analysis.h1),
        "rim_tori": _group_dict(analysis.rim_tori),
        "split_classes": [
            {"B_M": c.b_m, "B_N": c.b_n, "alpha": list(c.alpha), "label": c.label()}
            for c in analysis.split_classes
        ],
    }

    b2_blocks = 2 * (analysis.d + 1) + (problem.M.b2 - 2) + (problem.N.b2 - 2)
    b1_kernel = analysis.h1_cohom_rank
    checks: dict[str, Any] = {
        "rank_bookkeeping": {
            "b2_from_blocks": b2_blocks,
            "b2_from_betti": betti.b2,
            "b1_from_kernel": b1_kernel,
            "b1_from_betti": betti.b1,
            "pass": b2_blocks == betti.b2 and b1_kernel == betti.b1,
        }
    }

    gate = analysis.scope_violations
    if gate:
        report["forms"] = {"skipped": list(gate)}
        warnings.extend(f"forms skipped: {msg}" for msg in gate)
    elif not include_forms:
        report["forms"] = {"skipped": ["disabled by --no-forms"]}
    else:
        sf = forms.sum_forms(analysis)
        cc, bf, fc, k_sq = sf.canonical_class, sf.block_form, sf.form_class, sf.k_squared
        report["forms"] = {
            "block_form": {
                "pm": dict(vars(bf.pm_block)),
                "pn": dict(vars(bf.pn_block)),
                "pair_s_sq_parities": list(bf.pair_s_sq_parities),
                "nucleus_b_sq": bf.nucleus_b_sq,
                "rank": bf.rank,
                "signature": bf.signature,
            },
            "form_class": {"unavailable": fc} if isinstance(fc, str) else dict(vars(fc)),
            "canonical_class": {
                "r_coeffs": list(cc.r_coeffs),
                "sigma_coeff": cc.sigma_coeff,
                "t_coeffs": list(cc.t_coeffs),
                "eta": cc.eta,
                "eta_prime": cc.eta_prime,
                "b_coeff": cc.b_coeff,
                "s_coeffs": list(cc.s_coeffs),
                "kbar_m": {"square": cc.kbar_m_sq, "divisibility": cc.kbar_m_div},
                "kbar_n": {"square": cc.kbar_n_sq, "divisibility": cc.kbar_n_div},
            },
            "divisibility": dict(vars(sf.divisibility)),
        }
        checks["k_squared"] = {"value": k_sq.lhs, "target": k_sq.rhs, "pass": k_sq.ok}
        checks["ionel_parker"] = [
            {"name": line.name, "lhs": line.lhs, "rhs": line.rhs, "pass": line.ok}
            for line in sf.ionel_parker
        ]

    report["checks"] = checks
    report["warnings"] = warnings
    return report


# -- text rendering ----------------------------------------------------------


def _side_line(label: str, side_doc: dict[str, Any]) -> str:
    return (
        f"{label}: {side_doc['name']}  (b1={side_doc['b1']}, "
        f"b2+={side_doc['b2_plus']}, b2-={side_doc['b2_minus']}, "
        f"K^2={side_doc['K_squared']}, K.B={side_doc['K_dot_B']}, "
        f"B^2={side_doc['B_squared']}, g={side_doc['genus']}, k={side_doc['k']})"
    )


def _vec(xs: Sequence[Any]) -> str:
    return "(" + ", ".join(str(x) for x in xs) + ")"


def render_text(report: dict[str, Any]) -> str:
    out: list[str] = []
    prob = report["problem"]
    out.append("fibre sum report")
    out.append("================")
    out.append(_side_line("M", prob["M"]))
    out.append(_side_line("N", prob["N"]))
    out.append(f"gluing a = {_vec(prob['gluing']['a'])}")
    out.append("alpha basis (gamma coordinates):")
    if prob["alpha_basis"]:
        for i, vec in enumerate(prob["alpha_basis"]):
            out.append(f"  alpha_{i + 1} = {_vec(vec)}")
    else:
        out.append("  (empty: the embeddings are injective on first homology)")
    out.append(f"a adapted to alpha basis = {_vec(prob['a_adapted'])}")
    t_note = "" if prob["t_supplied"] is not None else "  [defaulted]"
    out.append(f"t = {_vec(prob['t_effective'])}{t_note}")

    b = report["betti"]
    out.append("")
    out.append("betti numbers")
    out.append(f"  b0={b['b0']} b1={b['b1']} b2={b['b2']} b3={b['b3']} b4={b['b4']}")
    out.append(
        f"  b2+={b['b2_plus']} b2-={b['b2_minus']} e={b['e']} sigma={b['sigma']} d={b['d']}"
    )
    out.append("")
    out.append(f"H_1(X) = {report['h1']['rendered']}")
    out.append(f"rim tori R(X) = {report['rim_tori']['rendered']}")
    out.append(f"split classes S(X), rank {len(report['split_classes'])}:")
    for i, c in enumerate(report["split_classes"]):
        name = "B_X " if i == 0 else f"S_{i}  "
        out.append(f"  {name}= {c['label']}")

    fsec = report["forms"]
    out.append("")
    if "skipped" in fsec:
        out.append("intersection form / canonical class: skipped")
        for reason in fsec["skipped"]:
            out.append(f"  - {reason}")
    else:
        bf = fsec["block_form"]
        out.append("intersection form")
        out.append(
            f"  P(M) block: rank {bf['pm']['rank']}, signature {bf['pm']['signature']},"
            f" parity {bf['pm']['parity']}"
        )
        out.append(
            f"  P(N) block: rank {bf['pn']['rank']}, signature {bf['pn']['signature']},"
            f" parity {bf['pn']['parity']}"
        )
        out.append(f"  pair blocks S_i^2 parities = {_vec(bf['pair_s_sq_parities'])}")
        out.append(f"  nucleus block = [[{bf['nucleus_b_sq']}, 1], [1, 0]]")
        out.append(f"  totals: rank {bf['rank']}, signature {bf['signature']}")
        fc = fsec["form_class"]
        if "unavailable" in fc:
            out.append(f"  class: unavailable ({fc['unavailable']})")
        else:
            out.append(f"  class: {fc['parity']} {fc['decomposition']}")
        cc = fsec["canonical_class"]
        out.append("")
        out.append("canonical class")
        out.append(f"  push-off basis: r = {_vec(cc['r_coeffs'])}, sigma_coeff = {cc['sigma_coeff']}")
        out.append(
            f"  symmetric basis: t = {_vec(cc['t_coeffs'])}, eta = {cc['eta']},"
            f" eta' = {cc['eta_prime']}"
        )
        out.append(f"  b_coeff = {cc['b_coeff']}, split coefficients s = {_vec(cc['s_coeffs'])}")
        out.append(
            f"  Kbar_M: square {cc['kbar_m']['square']}, divisibility {cc['kbar_m']['divisibility']};"
            f" Kbar_N: square {cc['kbar_n']['square']}, divisibility {cc['kbar_n']['divisibility']}"
        )
        div = fsec["divisibility"]
        exactness = "exact" if div["exact"] else "necessary-condition bound"
        if div["value"] == 1:
            out.append(f"  K_X indivisible ({exactness})")
        elif div["value"] == 0:
            out.append(f"  K_X is the zero class ({exactness})")
        else:
            out.append(f"  K_X divisibility {div['value']} ({exactness})")

    out.append("")
    out.append("checks")
    checks = report["checks"]
    if "k_squared" in checks:
        ks = checks["k_squared"]
        status = "pass" if ks["pass"] else "FAIL"
        out.append(f"  K_X^2 = {ks['value']} vs K_M^2+K_N^2+(8g-8) = {ks['target']}  [{status}]")
    for line in checks.get("ionel_parker", []):
        status = "pass" if line["pass"] else "FAIL"
        out.append(f"  {line['name']}: {line['lhs']} vs {line['rhs']}  [{status}]")
    rb = checks["rank_bookkeeping"]
    status = "pass" if rb["pass"] else "FAIL"
    out.append(
        f"  rank bookkeeping: b2 blocks {rb['b2_from_blocks']} vs betti {rb['b2_from_betti']},"
        f" b1 kernel {rb['b1_from_kernel']} vs betti {rb['b1_from_betti']}  [{status}]"
    )

    if report["warnings"]:
        out.append("")
        out.append("warnings")
        for w in report["warnings"]:
            out.append(f"  - {w}")
    return "\n".join(out) + "\n"


def dump_structured(payload: Any) -> str:
    """Canonical JSON: re-emitting a parsed report is byte-identical.

    The bytes equal ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.
    That call is not made because, once ``indent`` is set, CPython drops its
    C encoder for a pure-Python one that costs as much as computing a small
    report.  Only str-keyed dicts, lists, tuples, str, int, bool and None
    are accepted; any other type raises ``TypeError``.  An int with
    |i| <= 256 is looked up in ``_DECIMAL``, a table of decimal strings
    built at import, and any other printed by ``int.__repr__``.
    """
    return _write_json(payload, "\n") + "\n"


class _Decimal(dict):
    """The JSON text of an int: built once for |i| <= 256, else ``int.__repr__``."""

    __missing__ = staticmethod(int.__repr__)


_DECIMAL = _Decimal({i: str(i) for i in range(-256, 257)})


def _write_json(value: Any, indent: str) -> str:
    """``value`` as indented JSON; ``indent`` is the newline that closes it."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return _DECIMAL[value]
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str.
        items = [
            encode_basestring_ascii(key) + ": " + _write_json(value[key], inner)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if {int}.issuperset(map(type, value)):
            items = map(_DECIMAL.__getitem__, value)
        else:
            items = [_write_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _read_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.loads(handle.read())
    except (ValueError, RecursionError) as exc:
        raise DocumentError([f"{path}: not valid JSON: {exc}"]) from exc


def _parse_t_flag(value: str | None) -> tuple[int, ...] | None:
    if value is None:
        return None
    value = value.strip()
    if value == "":
        return ()
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError as exc:
        raise DocumentError([f"--t: expected a comma-separated integer list, got {value!r}"]) from exc


def _lift_digit_limit() -> None:
    """Let ints of any length become text once every input is read: CPython's
    4,300-digit limit keeps reading linear, but results may outgrow it.
    ``main`` restores the limit."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def cmd_compute(args, stdout, stderr) -> int:
    document = _read_json_file(args.path)
    t_override = _parse_t_flag(args.t)
    _lift_digit_limit()
    problem = model.parse_problem(document)
    if t_override is not None:
        problem = dataclasses.replace(problem, t=t_override)
    report = build_report(problem, include_forms=not args.no_forms)
    stdout.write(render_text(report) if args.format == "text" else dump_structured(report))
    return EXIT_OK


def cmd_validate(args, stdout, stderr) -> int:
    document = _read_json_file(args.path)
    _lift_digit_limit()
    engine.analyse(model.parse_problem(document))
    stdout.write("valid\n")
    return EXIT_OK


def cmd_catalog(args, stdout, stderr) -> int:
    if args.name not in model.CATALOG:
        stderr.write(f"unknown catalog {args.name!r} (supported: {model.CATALOG_NAMES})\n")
        return EXIT_INVALID
    _lift_digit_limit()
    try:
        side = model.CATALOG[args.name](args.n)
    except ValueError as exc:
        stderr.write(f"{exc}\n")
        return EXIT_INVALID
    stdout.write(dump_structured(model.side_to_dict(side)))
    return EXIT_OK


def cmd_batch(args, stdout, stderr) -> int:
    document = _read_json_file(args.path)
    if isinstance(document, dict) and set(document) == {"problems"}:
        document = document["problems"]
    if not isinstance(document, list):
        raise DocumentError(["batch document: expected an array of problem documents"])
    _lift_digit_limit()
    items: list[dict[str, Any]] = []
    # Items are independent and could run in parallel; the report is
    # assembled in input order either way.  A failing item, even one whose
    # engine assertion failed, costs only its own report.
    for index, entry in enumerate(document):
        try:
            problem = model.parse_problem(entry)
            report = build_report(problem, include_forms=not args.no_forms)
            items.append({"index": index, "status": "ok", "report": report})
        except INVALID_ERRORS as exc:
            items.append({"index": index, "status": "error", "error": str(exc)})
        except INTERNAL_ERRORS as exc:
            items.append({"index": index, "status": "internal", "error": str(exc)})
    statuses = {item["status"] for item in items}
    failures = sum(1 for item in items if item["status"] != "ok")
    payload = {"items": items, "count": len(items), "failures": failures}
    if args.format == "text":
        for item in items:
            stdout.write(f"--- problem {item['index']}: {item['status']}\n")
            if item["status"] == "ok":
                stdout.write(render_text(item["report"]))
            else:
                stdout.write(f"    {item['error']}\n")
        stdout.write(f"--- {len(items)} problem(s), {failures} failure(s)\n")
    else:
        stdout.write(dump_structured(payload))
    if "internal" in statuses:
        return EXIT_INTERNAL
    return EXIT_INVALID if "error" in statuses else EXIT_OK


def cmd_snf(args, stdout, stderr) -> int:
    document = _read_json_file(args.path)
    if not isinstance(document, list) or any(not isinstance(r, list) for r in document):
        raise DocumentError(["matrix document: expected an array of integer rows"])
    try:
        matrix = IntMatrix.from_rows(document)
    except ValueError as exc:
        raise DocumentError([f"matrix document: {exc}"]) from exc
    _lift_digit_limit()
    kernel, cokernel, _ = kernel_and_cokernel(matrix)
    rank = matrix.rows - cokernel.free_rank
    zeros = min(matrix.rows, matrix.cols) - rank
    payload = {
        "diagonal": [1] * (rank - len(cokernel.torsion)) + list(cokernel.torsion) + [0] * zeros,
        "rank": rank,
        "kernel": kernel.to_rows(),
        "cokernel": _group_dict(cokernel),
    }
    if args.format == "text":
        stdout.write(
            f"diagonal = {payload['diagonal']}\nrank = {rank}\n"
            f"kernel = {payload['kernel']}\ncokernel = {cokernel}\n"
        )
    else:
        stdout.write(dump_structured(payload))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibresum",
        description="Exact homological invariants of generalized fibre sums of 4-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p) -> None:
        p.add_argument("--format", choices=["text", "json"], default="text", help="output format")

    p_compute = sub.add_parser("compute", help="run the full pipeline on a problem document")
    p_compute.add_argument("path")
    add_format(p_compute)
    p_compute.add_argument("--no-forms", action="store_true", help="skip the forms module")
    p_compute.add_argument("--t", default=None, help="override the t-vector, e.g. --t 1,0")
    p_compute.set_defaults(func=cmd_compute)

    p_validate = sub.add_parser("validate", help="validate a problem document")
    p_validate.add_argument("path")
    p_validate.set_defaults(func=cmd_validate)

    p_catalog = sub.add_parser("catalog", help="print a catalog side document")
    p_catalog.add_argument("name", help=f"catalog family name (supported: {', '.join(model.CATALOG)})")
    p_catalog.add_argument("n", type=int)
    p_catalog.set_defaults(func=cmd_catalog)

    p_batch = sub.add_parser("batch", help="process a list of problem documents")
    p_batch.add_argument("path")
    add_format(p_batch)
    p_batch.add_argument("--no-forms", action="store_true", help="skip the forms module")
    p_batch.set_defaults(func=cmd_batch)

    p_snf = sub.add_parser("snf", help="Smith invariants, kernel and cokernel of a matrix document")
    p_snf.add_argument("path")
    add_format(p_snf)
    p_snf.set_defaults(func=cmd_snf)

    return parser


def main(argv: Sequence[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        return args.func(args, stdout, stderr)
    except OSError as exc:
        stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except INVALID_ERRORS as exc:
        stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except INTERNAL_ERRORS as exc:
        stderr.write(f"internal check failed: {exc}\n")
        return EXIT_INTERNAL
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())

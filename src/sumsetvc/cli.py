"""Command-line front end.

Every library operation is reachable from a subcommand except three
library-only ones, `is_shattered`, `evaluation_matrix` and `check_instance`;
the map from operation to subcommand lives in tests/test_cli.py, whose
coverage test traces each subcommand's calls. Reports are JSON by default
with a fixed field order; content digests cover everything except the
optional timing field, and timing is only recorded under --timings so that
repeated runs with the same flags and inputs produce byte-identical output.
Progress for long scans goes to standard error; standard output stays
machine-clean.

Each subcommand handler returns (exit code, text), and `run` alone writes the
text, to --out or standard output; only `vcdim --report` writes a second file.
Parameter checks live in the library types the handlers build (`FamilyKind`,
`PartialFunction`, the scans), and their messages reach the user unchanged.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict
from functools import partial

from . import __version__
from .clp import (
    DEFAULT_ENTRY_LIMIT,
    DEFAULT_GRID_LIMIT,
    DEFAULT_POINT_LIMIT,
    diagonal_slice_rank_bounds,
    reconstruction_matches,
    slice_decompose,
    sum_tensor,
    verify_clp_bound,
)
from .errors import ParameterError, SumsetVCError
from .families import (
    PAIRWISE_OPS,
    FamilyKind,
    PointSet,
    embed_01,
    family_from_points,
    format_family_text,
    generate_family,
    k_fold_sumset,
    pairwise_family,
    parse_digits,
    parse_family_text,
    parse_natural,
)
from .interpolation import (
    PartialFunction,
    deg_on_set,
    find_unshattered_witness,
    int_deg,
    represent_monomial,
)
from .polynomials import ReducedPolynomial, indicator_of_zero, random_polynomial
from .sampling import SplitMix64
from .vc import shattered_sets
from .verify import (
    _COUNTEREXAMPLES,
    _QUESTIONS,
    TheoremId,
    VerificationReport,
    counterexample_demo,
    exhaustive_scan,
    random_scan,
    search_open_question,
)

def report_schema() -> dict:
    """The versioned JSON schema every verification report validates against."""
    properties = {
        "tool_version": {"type": "string"},
        "command_echo": {"type": "array", "items": {"type": "string"}},
        "theorem": {"type": "string"},
        "parameters": {"type": "object"},
        "seed": {"type": ["integer", "null"]},
        "instances_checked": {"type": "integer", "minimum": 0},
        "violations": {"type": "array"},
        "extremes": {"type": ["object", "null"]},
        "timing_ms": {"type": ["number", "null"]},
        "content_digest": {"type": "string"},
    }
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "sumsetvc verification report",
        "version": __version__,
        "type": "object",
        "required": list(properties),
        "properties": properties,
        "additionalProperties": False,
    }


def _digest(core: dict) -> str:
    return hashlib.sha256(
        json.dumps(core, separators=(",", ":"), ensure_ascii=True).encode()
    ).hexdigest()


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _report(command_echo, payload: dict, timing_ms=None) -> str:
    """The JSON report: version and command echo, the payload, then timing
    and the digest of every field before timing."""
    core = {"tool_version": __version__, "command_echo": list(command_echo)}
    core.update(payload)
    doc = dict(core)
    doc["timing_ms"] = timing_ms
    doc["content_digest"] = _digest(core)
    return _json(doc)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


def _csv_text(rows: list[dict], comment: str | None = None) -> str:
    """A header of the first row's keys, then one line per row; None becomes empty."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow(["" if v is None else v for v in row.values()])
    return buf.getvalue()


def _key_values(payload: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in payload.items()) + "\n"


def _read_family_file(path: str) -> PointSet:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    return parse_family_text(text)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError from the read
        raise ParameterError(f"{path}: {exc}") from None


def _binary_family(points: PointSet, path: str):
    if points.modulus != 2:
        raise ParameterError(f"{path}: this subcommand needs a p=2 family file")
    return family_from_points(points)


def _load_polynomial(path: str) -> ReducedPolynomial:
    data = _read_json(path)
    try:
        p, n = data["p"], data["n"]
        # JSON integers only: int() would truncate 2.9 and read true as 1
        if type(p) is not int or type(n) is not int:
            raise TypeError
        return ReducedPolynomial.from_term_list(p, n, data["terms"])
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError):
        raise ParameterError(
            f"{path}: expected a JSON object with fields p, n, terms"
        ) from None


def _parse_elements(spec: str, n: int) -> int:
    mask = 0
    for piece in spec.split(","):
        try:
            elem = parse_natural(piece)
        except ValueError:
            raise ParameterError(f"bad ground element {piece!r}") from None
        if not 1 <= elem <= n:
            raise ParameterError(f"ground element {elem} out of range 1..{n}")
        mask |= 1 << (elem - 1)
    return mask


# --- subcommand handlers ---------------------------------------------------


def _handle_gen_family(args) -> tuple[int, str]:
    kind = FamilyKind(args.kind, weight=args.d, size=args.size, seed=args.seed)
    return 0, format_family_text(embed_01(generate_family(args.n, kind), 2))


def _handle_vcdim(args) -> tuple[int, str]:
    family = _binary_family(_read_family_file(args.infile), args.infile)
    if args.witness is not None:
        mask = _parse_elements(args.witness, family.ground_size)
        pattern = find_unshattered_witness(family, mask)
        return 0, _json({str(k): v for k, v in sorted(pattern.items())})
    if args.represent is not None:
        mask = _parse_elements(args.represent, family.ground_size)
        poly = represent_monomial(family, mask)
        return 0, _json({"p": 2, "n": poly.dimension, "terms": poly.to_term_list()})
    report = shattered_sets(family)
    if args.report is not None:
        _write_output(_report(args.command_echo, asdict(report)), args.report)
    return 0, f"{report.vc_dim}\n"


def _handle_intdeg(args) -> tuple[int, str]:
    points = _read_family_file(args.infile)
    if args.values is None:
        return 0, f"{int_deg(points)}\n"
    values = parse_digits(args.values, points.modulus)
    return 0, f"{deg_on_set(PartialFunction(points, tuple(values)))}\n"


def _handle_family_op(args) -> tuple[int, str]:
    points = _read_family_file(args.infile)
    if args.op == "sumset":
        if args.k is None:
            raise ParameterError("--op sumset requires --k")
        return 0, format_family_text(k_fold_sumset(points, args.k))
    if args.op == "embed" and args.p is None:
        raise ParameterError("--op embed requires --p")
    family = _binary_family(points, args.infile)
    if args.op == "embed":
        result = embed_01(family, args.p)
    else:
        other = _binary_family(_read_family_file(args.in2), args.in2) if args.in2 else family
        result = embed_01(pairwise_family(family, other, args.op.replace("-", "_")), 2)
    return 0, format_family_text(result)


def _resolve_polynomial(args, points: PointSet | None = None) -> ReducedPolynomial:
    """--in-poly, else over a tensor family's points the indicator of zero, else a random draw."""
    if args.in_poly is not None:
        return _load_polynomial(args.in_poly)
    if points is not None:
        return indicator_of_zero(points.modulus, points.dimension)
    if args.n is None or args.d is None:
        raise ParameterError("either --in-poly or both --n and --d are required")
    return random_polynomial(args.p, args.n, args.d, SplitMix64(args.seed))


def _handle_clp_rank(args) -> tuple[int, str]:
    poly = _resolve_polynomial(args)
    report = verify_clp_bound(poly, point_limit=args.point_guard)
    if args.format == "text":
        text = _key_values(asdict(report))
    else:
        payload = {"p": poly.modulus, "n": poly.dimension, **asdict(report)}
        text = _report(args.command_echo, payload)
    return (0 if report.ok else 1), text


def _handle_slice_decompose(args) -> tuple[int, str]:
    if args.tensor_family is not None:
        points = _read_family_file(args.tensor_family)
        tensor = sum_tensor(_resolve_polynomial(args, points), points, args.k, entry_limit=args.entry_guard)
        bounds = diagonal_slice_rank_bounds(tensor)
        payload = {
            "p": tensor.modulus,
            "arity": tensor.arity,
            "shape": list(tensor.values.shape),
            **asdict(bounds),
            "tensor_digest": tensor.content_digest(),
        }
        return 0, _report(args.command_echo, payload)
    poly = _resolve_polynomial(args)
    dec = slice_decompose(poly, args.k, grid_limit=args.grid_guard)
    recon = reconstruction_matches(dec, poly, grid_limit=args.grid_guard)
    payload = {
        "p": poly.modulus,
        "n": poly.dimension,
        "arity": args.k,
        "degree": dec.degree,
        "term_count": dec.term_count(),
        "bound": dec.bound,
        "within_bound": dec.term_count() <= dec.bound,
        "reconstruction_ok": recon,
        "terms": [
            {
                "axis": term.axis,
                "axis_monomial": list(term.axis_monomial),
                "residual": term.residual.to_term_list(),
            }
            for term in dec.terms
        ],
    }
    return (0 if recon and payload["within_bound"] else 1), _report(args.command_echo, payload)


def _verify_csv(report: VerificationReport) -> str:
    extreme = report.extremes or {}
    row = {
        "theorem": report.theorem,
        **report.parameters,
        "seed": report.seed,
        "instances_checked": report.instances_checked,
        "violation_count": len(report.violations),
        **{f"extreme_{key}": extreme.get(key) for key in ("lhs", "rhs", "ratio")},
    }
    return _csv_text([row])


def _handle_verify(args) -> tuple[int, str]:
    if args.emit_schema:
        return 0, _json(report_schema())
    if args.replay is not None:
        import jsonschema  # only a replay validates, so no other command pays for the import
        doc = _read_json(args.replay)
        try:
            jsonschema.validate(doc, report_schema())
        except jsonschema.ValidationError as exc:
            raise ParameterError(f"{args.replay}: {exc.message}") from None
        # the digest covers every field before timing_ms, in the schema's order
        fields = report_schema()["required"]
        core = {key: doc[key] for key in fields[: fields.index("timing_ms")]}
        if _digest(core) != doc["content_digest"]:
            raise ParameterError(f"{args.replay}: content_digest does not match the report")
        if doc["violations"]:
            print(
                f"{len(doc['violations'])} violation(s) recorded in {args.replay}",
                file=sys.stderr,
            )
            return 1, ""
        return 0, ""
    if args.theorem is None or args.n is None:
        raise ParameterError("verify requires --theorem and --n")
    progress = None
    if args.progress:
        def progress(done, total):
            print(f"progress {done}/{total}", file=sys.stderr)

    started = time.perf_counter()
    scan = exhaustive_scan
    if args.mode == "random":
        scan = partial(random_scan, samples=args.samples, seed=args.seed)
    report = scan(args.theorem, args.n, args.p, workers=args.workers, progress=progress)
    timing_ms = (time.perf_counter() - started) * 1000.0 if args.timings else None
    if args.format == "csv":
        text = _verify_csv(report)
    else:
        text = _report(args.command_echo, asdict(report), timing_ms)
    return (0 if report.ok else 1), text


def _handle_demo(args) -> tuple[int, str]:
    rep = counterexample_demo(args.op, args.n, args.d)
    payload = asdict(rep)
    if args.format == "csv":
        text = _csv_text([payload])
    elif args.format == "text":
        text = _key_values(payload)
    else:
        text = _report(args.command_echo, payload)
    return (0 if rep.witness else 1), text


def _handle_search(args) -> tuple[int, str]:
    table = search_open_question(args.question, args.n, args.d, args.mode, budget=args.budget)
    rows = [asdict(row) for row in table.rows]
    if args.format == "csv":
        for row in rows:
            # the CSV joins the certificate with ';' and moves it to the last column
            row["certificate"] = ";".join(str(m) for m in row.pop("certificate"))
        return 0, _csv_text(rows, comment=table.note)
    return 0, _report(args.command_echo, {"note": table.note, "rows": rows})


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsetvc",
        description="Exact VC-dimension, interpolation-degree and slice-rank computations "
        "for sumsets of set families, with theorem verification harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by subcommands, each declared once: the output file and the polynomial source
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write to this file instead of standard output")
    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("--p", type=int, default=2)
    poly.add_argument("--n", type=int, default=None)
    poly.add_argument("--d", type=int, default=None, help="degree bound for a random polynomial")
    poly.add_argument("--seed", type=int, default=0)
    poly.add_argument("--in-poly", default=None, help="JSON polynomial file instead of random")

    def command(name, handler, help, *parents):
        cmd = sub.add_parser(name, help=help, parents=[*parents, out])
        cmd.set_defaults(handler=handler)
        return cmd

    gen = command("gen-family", _handle_gen_family, "generate a named family and write the text format")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--kind", choices=FamilyKind._NAMES, required=True)
    gen.add_argument("--d", type=int, default=None, help="weight bound for lowweight/highweight")
    gen.add_argument("--size", type=int, default=None, help="family size for random")
    gen.add_argument("--seed", type=int, default=0)

    vcd = command("vcdim", _handle_vcdim, "VC dimension of a p=2 family file")
    vcd.add_argument("--in", dest="infile", required=True)
    vcd.add_argument("--report", default=None, help="also write the full shattering report JSON")
    vcd.add_argument("--witness", default=None, metavar="ELEMS",
                     help="comma-separated ground elements: print the absent pattern on that set")
    vcd.add_argument("--represent", default=None, metavar="ELEMS",
                     help="comma-separated ground elements: print a low-degree polynomial equal "
                     "to that monomial on the family")

    ideg = command("intdeg", _handle_intdeg, "interpolation degree of a family file over its modulus")
    ideg.add_argument("--in", dest="infile", required=True)
    ideg.add_argument("--values", default=None,
                      help="digit string aligned with the canonical (ascending) domain order: "
                      "minimal representing degree of that partial function instead")

    fop = command("family-op", _handle_family_op, "pairwise set operations, sumsets and embeddings")
    fop.add_argument("--op", choices=[op.replace("_", "-") for op in PAIRWISE_OPS] + ["sumset", "embed"],
                     required=True)
    fop.add_argument("--in", dest="infile", required=True)
    fop.add_argument("--in2", default=None, help="second operand (defaults to the first)")
    fop.add_argument("--k", type=int, default=None, help="fold count for sumset")
    fop.add_argument("--p", type=int, default=None, help="target modulus for embed")

    clp = command("clp-rank", _handle_clp_rank, "rank of the sum matrix M[x,y] = P(x+y) vs its bound", poly)
    clp.add_argument("--point-guard", type=int, default=DEFAULT_POINT_LIMIT,
                     help="maximum p**n (matrix side)")
    clp.add_argument("--format", choices=["json", "text"], default="json")

    sld = command("slice-decompose", _handle_slice_decompose,
                  "explicit slice decomposition of f(X^1+...+X^k), or sum-tensor "
                  "diagonality when --tensor-family is given", poly)
    sld.add_argument("--k", type=int, required=True)
    sld.add_argument("--tensor-family", default=None,
                     help="family file: build the k-fold sum tensor over it (default generator: "
                     "indicator of the zero vector)")
    sld.add_argument("--grid-guard", type=int, default=DEFAULT_GRID_LIMIT)
    sld.add_argument("--entry-guard", type=int, default=DEFAULT_ENTRY_LIMIT)

    ver = command("verify", _handle_verify, "exhaustive or seeded-random theorem scans")
    ver.add_argument("--theorem", choices=[t.value for t in TheoremId], default=None)
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--p", type=int, default=None)
    ver.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    ver.add_argument("--samples", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--workers", type=int, default=1,
                     help="worker processes for chunked scans (deterministic merge)")
    ver.add_argument("--timings", action="store_true",
                     help="record wall time in the report (breaks byte-identical reruns)")
    ver.add_argument("--progress", action=argparse.BooleanOptionalAction, default=True,
                     help="progress lines on standard error")
    ver.add_argument("--emit-schema", action="store_true",
                     help="print the report JSON schema and exit")
    ver.add_argument("--replay", default=None,
                     help="validate a saved report (schema, content_digest) and exit 1 if it "
                     "records violations")
    ver.add_argument("--format", choices=["json", "csv"], default="json")

    demo = command("demo-counterexample", _handle_demo,
                   "the weight-bounded construction beating the halved bound for intersection/union")
    demo.add_argument("--op", choices=list(_COUNTEREXAMPLES), required=True)
    demo.add_argument("--n", type=int, required=True)
    demo.add_argument("--d", type=int, required=True)
    demo.add_argument("--format", choices=["json", "csv", "text"], default="json")

    sch = command("search", _handle_search, "finite-evidence search for the open questions")
    sch.add_argument("--question", choices=list(_QUESTIONS), required=True)
    sch.add_argument("--n", type=int, required=True)
    sch.add_argument("--d", type=int, required=True)
    sch.add_argument("--mode", choices=["exhaustive", "exact"], default="exhaustive")
    sch.add_argument("--budget", type=int, default=5000)
    sch.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def run(argv=None) -> int:
    """Parse and execute; exit 0 = ok, 1 = theorem violation, 2 = usage/parse error."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    args.command_echo = list(argv)
    try:
        code, text = args.handler(args)
        if text:
            _write_output(text, args.out)
        return code
    except (SumsetVCError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

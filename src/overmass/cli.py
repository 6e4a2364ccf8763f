"""Scenario documents, pipeline execution, table rendering, and the CLI.

Documents are JSON:

    {
      "frame": ["A", "B"],
      "sources": [
        {"name": "m1", "range": [0, 1.1],
         "masses": {"A": 0.6, "B": 0.3, "A|B": 0.2}}
      ],
      "pipeline": {"rule": "pcr5", "strict": true}
    }

The pipeline record is optional, as is each field in it; the optional
"target" field is a [lo, hi] pair and "normalize" (default true) controls
whether the final rescaling stage runs. Exit codes: 0 success, 1
validation error, 2 parse error, 3 rule guard violation, 4 golden
comparison mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from .errors import ParseError, RuleGuardError, ValidationError
from .frame import EMPTY_SYMBOL, Frame, make_frame, parse_focal
from .mass import (
    MassFunction,
    MassRange,
    belief_interval,
    classify_range,
    classify_sum,
    make_mass,
)
from .regime import assess
from .rules import FusionReport, RuleId, combine, fuse
from .rules import average  # unused here; bench/runner.py traces calls by patching cli.average

@dataclass(frozen=True)
class Source:
    name: str
    mass: MassFunction


@dataclass(frozen=True)
class PipelineSpec:
    """How a document wants its sources combined."""

    rule: RuleId = RuleId.PCR5
    target: MassRange | None = None
    strict: bool = False
    normalize: bool = True


@dataclass(frozen=True)
class ScenarioDocument:
    frame: Frame
    sources: tuple[Source, ...]
    pipeline: PipelineSpec = PipelineSpec()


def _parse_range(value: Any, where: str) -> MassRange:
    if type(value) is not list or len(value) != 2 or not all(type(v) is float for v in value):
        raise ParseError('%s: "range" must be a [lo, hi] pair of numbers' % where)
    try:
        return MassRange(*value)
    except ValidationError as exc:
        raise ValidationError("%s: %s" % (where, exc)) from exc


def _parse_pipeline(raw: Any) -> PipelineSpec:
    if raw is None:
        return PipelineSpec()
    if not isinstance(raw, dict):
        raise ParseError('"pipeline" must be an object')
    try:
        rule = RuleId(raw.get("rule", PipelineSpec.rule))
    except ValueError:
        raise ParseError(
            "unknown rule %r; choose from %s" % (raw["rule"], ", ".join(r.value for r in RuleId))
        ) from None
    target = raw.get("target")
    if target is not None:
        target = _parse_range(target, "pipeline target")
    for flag in ("strict", "normalize"):
        if not isinstance(raw.get(flag, False), bool):
            raise ParseError('pipeline "%s" must be true or false' % flag)
    return PipelineSpec(
        rule, target, raw.get("strict", PipelineSpec.strict), raw.get("normalize", PipelineSpec.normalize)
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ParseError("duplicate key %r in a JSON object" % repeated)
    return obj


def load_document(data: bytes | str) -> ScenarioDocument:
    """Parse and validate a scenario document.

    Structural problems, a repeated key, bytes that are not UTF-8 and
    nesting too deep to parse among them, raise ParseError (with
    line/column for malformed JSON); out-of-range weights and similar
    semantic problems raise ValidationError naming the offending source.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        # Integers parse as floats, so a huge one becomes inf and is rejected.
        raw = json.loads(text, parse_int=float, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ParseError(
            "document is not valid UTF-8 at byte %d: %s" % (exc.start, exc.reason)
        ) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            "invalid JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        ) from exc
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    if not isinstance(raw, dict):
        raise ParseError("document root must be an object")
    labels = raw.get("frame")
    if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
        raise ParseError('"frame" must be a list of label strings')
    frame = make_frame(labels)
    pipeline = _parse_pipeline(raw.get("pipeline"))

    raw_sources = raw.get("sources")
    if not isinstance(raw_sources, list):
        raise ParseError('"sources" must be a list of source records')
    sources: list[Source] = []
    for i, record in enumerate(raw_sources):
        if not isinstance(record, dict):
            raise ParseError("source #%d must be an object" % (i + 1))
        name = record.get("name", "m%d" % (i + 1))
        if not isinstance(name, str) or not name:
            raise ParseError("source #%d name must be a nonempty string" % (i + 1))
        where = "source %r" % name
        mass_range = _parse_range(record.get("range", [0.0, 1.0]), where)
        masses = record.get("masses")
        if not isinstance(masses, dict):
            raise ParseError('%s: "masses" must map focal expressions to numbers' % where)
        for expr, weight in masses.items():
            if type(weight) is not float:  # parse_int=float: every JSON number is a float
                raise ParseError("%s: weight for %r must be a number" % (where, expr))
        try:
            mass = make_mass(frame, masses, mass_range, strict=pipeline.strict)
        except (ParseError, ValidationError) as exc:
            raise type(exc)("%s: %s" % (where, exc)) from exc
        sources.append(Source(name, mass))
    return ScenarioDocument(frame, tuple(sources), pipeline)


def run_pipeline(doc: ScenarioDocument) -> FusionReport:
    """Combine the document's two or more sources with its declared pipeline: one rules.combine call.

    Fewer sources are combine's ValidationError. Normalization, when
    enabled, runs once on the end result; with no target it rescales onto
    the union of every source range. Under conjunctive, dempster and
    total-proportional no field of the report depends on source order,
    and a vacuous source changes none.
    """
    spec = doc.pipeline
    return combine([s.mass for s in doc.sources], spec.rule, spec.target, normalize=spec.normalize)


def _columns(report: FusionReport, precision: int) -> tuple[list[str], list[str]]:
    result = report.result
    bits = result.weights.bits
    masks = [b for b in bits if b]
    headers = result.frame._names(masks) + [EMPTY_SYMBOL, "sum"]
    values = [bits[b] for b in masks] + [result.conflict_weight, result.total]
    # Every cell in one formatting call, a line each.
    return headers, (("%%.%df\n" % precision) * len(values) % tuple(values)).split("\n")[:-1]


def render_table(report: FusionReport, precision: int = 3) -> str:
    """Two aligned rows: focal sets in bitmask order, then ∅, then sum."""
    headers, cells = _columns(report, precision)
    widths = list(map(max, map(len, headers), map(len, cells)))
    head = "  ".join(map(str.ljust, headers, widths)).rstrip()
    body = "  ".join(map(str.ljust, cells, widths)).rstrip()
    return head + "\n" + body


def render_csv(report: FusionReport, precision: int = 3) -> str:
    """The table's two rows as CSV records; a label holding a comma, quote or newline is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(_columns(report, precision))
    return out.getvalue()[:-1]


#: The bundled worked examples: a title, the rule, two strict sources as
#: (range, weights), and rows of (label, published value, tolerance). A row
#: label names a focal set of the fused result, "total", "conflict", or a
#: Bel(...)/Pl(...) query on it; "raw " prefixes the same on the plain
#: conjunctive combination. Loose tolerances mark published values that
#: were rounded at each intermediate step. Titles name the published stage
#: order.
GOLDEN_EXAMPLES = (
    (
        "promotion, shared scale (total-proportional, normalize first)",
        RuleId.TOTAL_PROPORTIONAL,
        ((0.0, 1.1), {"A": 0.6, "B": 0.3, "A|B": 0.2}),
        ((0.0, 1.1), {"A": 0.5, "B": 0.5, "A|B": 0.1}),
        (("A", 0.67, 0.01), ("B", 0.40, 0.01), ("A|B", 0.03, 0.01), ("total", 1.1, 1e-9)),
    ),
    (
        "promotion, mixed scales (pcr5, rescaled to [0, 1.2])",
        RuleId.PCR5,
        ((0.0, 1.1), {"A": 0.7, "B": 0.3, "A|B": 0.1}),
        ((0.0, 1.2), {"A": 0.4, "B": 0.6, "A|B": 0.2}),
        (("A", 0.686, 0.001), ("B", 0.496, 0.001), ("A|B", 0.018, 0.001), ("total", 1.2, 1e-9)),
    ),
    (
        "counter-evidence averaging",
        RuleId.AVERAGE,
        ((-0.2, 1.0), {"A": -0.2, "B": 0.7, "A|B": 0.3}),
        ((-0.2, 1.0), {"A": 0.4, "B": -0.1, "A|B": 0.5}),
        (("A", 0.1, 1e-9), ("B", 0.3, 1e-9), ("A|B", 0.4, 1e-9), ("conflict", 0.0, 1e-9)),
    ),
    (
        "belief bounds after redistribution (pcr5, rescaled to [0, 1.1])",
        RuleId.PCR5,
        ((0.0, 1.1), {"A": 0.3, "B": 0.6, "A|B": 0.2}),
        ((0.0, 1.1), {"A": 0.5, "B": 0.5, "A|B": 0.1}),
        (
            ("raw A", 0.28, 1e-9),
            ("raw B", 0.46, 1e-9),
            ("raw A|B", 0.02, 1e-9),
            ("raw conflict", 0.45, 1e-9),
            ("A", 0.44, 0.02),
            ("B", 0.64, 0.02),
            ("A|B", 0.02, 0.02),
            ("Bel(A)", 0.44, 0.02),
            ("Pl(A)", 0.46, 0.02),
            ("Bel(A|B)", 1.1, 1e-6),
        ),
    ),
)


def _golden_value(report: FusionReport, label: str) -> float:
    result = report.result
    if label == "total":
        return result.total
    if label == "conflict":
        return report.conflict
    if label.endswith(")"):
        query, expr = label[:-1].split("(")
        interval = belief_interval(result, parse_focal(expr, result.frame))
        return interval.bel if query == "Bel" else interval.pl
    return result[label]


def run_golden_examples() -> tuple[str, bool]:
    """Recompute the bundled worked examples against published values."""
    frame = make_frame(["A", "B"])
    lines: list[str] = []
    all_ok = True
    for name, rule, *sources, rows in GOLDEN_EXAMPLES:
        m1, m2 = (make_mass(frame, w, MassRange(*r), strict=True) for r, w in sources)
        fused = fuse(m1, m2, rule)
        lines.append(name)
        for label, expected, tolerance in rows:
            if label.startswith("raw "):
                computed = _golden_value(fuse(m1, m2, RuleId.CONJUNCTIVE), label[4:])
            else:
                computed = _golden_value(fused, label)
            delta = abs(computed - expected)
            all_ok = all_ok and delta <= tolerance
            lines.append(
                "  %-14s published %-8s computed %-13s |delta| %.3e (tol %g) %s"
                % (
                    label,
                    "%g" % expected,
                    "%.9f" % computed,
                    delta,
                    tolerance,
                    "ok" if delta <= tolerance else "MISMATCH",
                )
            )
    lines.append(
        "all comparisons within tolerance" if all_ok else "comparison failures above"
    )
    return "\n".join(lines), all_ok


def _read_document(path: Path) -> ScenarioDocument:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    return load_document(data)


def _parse_target_flag(text: str) -> MassRange:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("--target expects LO,HI, got %r" % text)
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError("--target expects two numbers, got %r" % text) from None
    return MassRange(lo, hi)


def _effective_document(doc: ScenarioDocument, args: argparse.Namespace) -> ScenarioDocument:
    """Apply CLI overrides on top of the document's own pipeline record."""
    pipeline = doc.pipeline
    if args.rule is not None:
        pipeline = replace(pipeline, rule=RuleId(args.rule))
    if args.target is not None:
        pipeline = replace(pipeline, target=_parse_target_flag(args.target))
    if args.no_normalize:
        pipeline = replace(pipeline, normalize=False)
    return replace(doc, pipeline=pipeline)


def _cmd_fuse(args: argparse.Namespace) -> int:
    doc = _effective_document(_read_document(args.input), args)
    report = run_pipeline(doc)
    if args.format == "csv":
        print(render_csv(report, args.precision))
        return 0
    print(render_table(report, args.precision))
    print("rule: %s" % report.rule.value)
    print("conflict: %.*f" % (args.precision, report.conflict))
    print("divisor: %.*f" % (args.precision, report.divisor))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    doc = _read_document(args.input)
    if not doc.sources:
        raise ValidationError("document has no sources to classify")
    for source in doc.sources:
        advisory = assess(source.mass)
        print(
            "%s: range=%s sum=%s advisory=%s"
            % (
                source.name,
                classify_range(source.mass).value,
                classify_sum(source.mass).value,
                advisory.kind.value,
            )
        )
        print("  %s" % advisory.rationale)
    return 0


def _cmd_belpl(args: argparse.Namespace) -> int:
    doc = _read_document(args.input)
    if not doc.sources:
        raise ValidationError("document has no sources")
    if len(doc.sources) == 1:
        mass = doc.sources[0].mass
        origin = doc.sources[0].name
    else:
        mass = run_pipeline(doc).result
        origin = "fused result"
    focal = parse_focal(args.set_expr, doc.frame)
    interval = belief_interval(mass, focal)
    print("source: %s" % origin)
    print("Bel(%s) = %.*f" % (focal, args.precision, interval.bel))
    print("Pl(%s) = %.*f" % (focal, args.precision, interval.pl))
    if not interval.classical:
        print("note: negative weights present; bounds are outside classical semantics")
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    text, ok = run_golden_examples()
    print(text)
    return 0 if ok else 4


#: Every double is a multiple of 2**-1074, so it prints exactly in 1074 decimals.
MAX_PRECISION = 1074


def _precision(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_PRECISION:
        raise argparse.ArgumentTypeError("precision must be in [0, %d], got %d" % (MAX_PRECISION, value))
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overmass",
        description="Combine bodies of evidence whose weights may leave [0, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuse_p = sub.add_parser("fuse", help="combine a document's sources and print the result")
    fuse_p.add_argument("--input", type=Path, required=True, help="scenario document (JSON)")
    fuse_p.add_argument(
        "--rule", choices=[r.value for r in RuleId], help="override the document's rule"
    )
    fuse_p.add_argument(
        "--target", metavar="LO,HI", help="rescale onto this range; pcr5 and total-proportional only"
    )
    fuse_p.add_argument(
        "--precision", type=_precision, default=3, help="decimals in tables (default 3)"
    )
    fuse_p.add_argument("--format", choices=["table", "csv"], default="table")
    fuse_p.add_argument(
        "--no-normalize",
        action="store_true",
        help="skip the final rescaling stage; pcr5 and total-proportional only",
    )
    fuse_p.set_defaults(func=_cmd_fuse)

    classify_p = sub.add_parser(
        "classify", help="print range class, sum class, and advisory per source"
    )
    classify_p.add_argument("--input", type=Path, required=True)
    classify_p.set_defaults(func=_cmd_classify)

    belpl_p = sub.add_parser(
        "belpl", help="belief and plausibility of a set, on the fused result when possible"
    )
    belpl_p.add_argument("--input", type=Path, required=True)
    belpl_p.add_argument("--set", dest="set_expr", required=True, help='focal expression, e.g. "A|B"')
    belpl_p.add_argument("--precision", type=_precision, default=6)
    belpl_p.set_defaults(func=_cmd_belpl)

    golden_p = sub.add_parser(
        "paper-examples",
        help="recompute the bundled published examples and print per-value deltas",
    )
    golden_p.set_defaults(func=_cmd_golden)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except RuleGuardError as exc:
        print("rule guard: %s" % exc, file=sys.stderr)
        return 3
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

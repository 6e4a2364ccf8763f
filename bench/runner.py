"""How the benchmark drives the library for one document.

``run_document`` is the untraced path a user of the library takes: load the
document, run its pipeline, render the table, then answer the workload's
queries. ``traced_document`` takes the same path with one span per call the
benchmark makes. Inside ``tracing``, the rule functions that ``run_pipeline``
and ``fuse`` look up at call time open spans of their own as well, so the
traced run times the program's own fold and dispatch, not a copy of them.
"""

from __future__ import annotations

import io
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter_ns

from checks import Outcome
from overmass import cli, frame, mass, regime, rules
from overmass.errors import EvidenceError, RuleGuardError
from spans import Tracer
from workloads import Case

#: Decimals in rendered tables: enough to compare with the reference at 1e-12.
PRECISION = 15

#: Rule functions looked up at call time, each traced as ``rules.<name>``.
#: ``run_pipeline`` takes ``average`` (and ``fuse``) from the cli module.
TRACED_RULES = (
    (rules, "conjunctive"),
    (rules, "pcr5"),
    (rules, "total_proportional"),
    (rules, "over_normalize"),
    (rules, "average"),
    (cli, "average"),
)


def _failure(exc: Exception) -> Outcome:
    return Outcome(None, (), type(exc).__name__, str(exc))


def run_document(case: Case) -> Outcome:
    try:
        doc = cli.load_document(case.text)
        report = cli.run_pipeline(doc)
        table = cli.render_table(report, PRECISION)
        answers = []
        if case.assess_sources:
            for source in doc.sources:
                advice = regime.assess(source.mass)
                answers.append(("assess", source.name, advice.kind.value, advice.rationale))
        if case.assess_fused:
            advice = regime.assess_fusion(report)
            answers.append(("fusion", "", advice.kind.value, advice.rationale))
        for query in case.queries:
            interval = mass.belief_interval(report.result, frame.parse_focal(query, doc.frame))
            answers.append(("belpl", query, interval.bel, interval.pl))
        return Outcome(table, tuple(answers))
    except Exception as exc:  # a failed document is recorded, judged by the checks
        return _failure(exc)


def timed_document(case: Case) -> tuple[Outcome, int]:
    start = perf_counter_ns()
    out = run_document(case)
    return out, perf_counter_ns() - start


def _spanned(tr: Tracer, name: str, fn):
    def call(*args, **kwargs):
        return tr.call(name, None, fn, *args, **kwargs)

    return call


def _fold_step(tr: Tracer, counts: Counter, fuse):
    """``fuse`` as ``run_pipeline`` calls it: one span and one set of counts per fold step.

    The span is ``rules.dempster`` for Dempster's rule, whose work happens
    inside ``fuse``, and ``rules.fuse`` otherwise.
    """

    def step(m1, m2, rule=rules.RuleId.PCR5, *args, **kwargs):
        counts["rules.products"] += len(m1.weights) * len(m2.weights)
        counts["rules.fold_steps"] += 1
        name = "rules.dempster" if rule is rules.RuleId.DEMPSTER else "rules.fuse"
        try:
            report = tr.call(name, None, fuse, m1, m2, rule, *args, **kwargs)
        except RuleGuardError:
            counts["rules.guard_rejections"] += 1
            raise
        counts["rules.trace_records"] += len(getattr(report, "trace", ()) or ())
        counts["rules.skipped_fractions"] += getattr(report, "skipped_fractions", 0)
        counts["rules.result_focal_sets"] += len(report.result.weights)
        return report

    return step


@contextmanager
def tracing(tr: Tracer, counts: Counter):
    """Within the block, the library's rule functions open spans and fold steps are counted."""
    saved = [(module, name, getattr(module, name)) for module, name in TRACED_RULES]
    for module, name, fn in saved:
        setattr(module, name, _spanned(tr, "rules." + name, fn))
    saved.append((cli, "fuse", cli.fuse))
    cli.fuse = _fold_step(tr, counts, saved[-1][2])
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _build_sources(tr: Tracer, case: Case, counts: Counter) -> None:
    """make_frame/make_mass on the generated source records, outside the document span."""
    raw, doc_id = case.raw, case.doc_id
    strict = raw.get("pipeline", {}).get("strict", False)
    tr.begin("bench.sources", doc_id)
    try:
        fr = tr.call("frame.make_frame", doc_id, frame.make_frame, raw["frame"])
        for source in raw["sources"]:
            mass_range = mass.MassRange(*source["range"])
            counts["mass.make_mass.focal_sets"] += len(source["masses"])
            tr.call("mass.make_mass", doc_id, mass.make_mass, fr, source["masses"], mass_range, strict=strict)
    except EvidenceError:
        pass  # planted errors fail here too; the document span judges them
    finally:
        tr.end()


def traced_document(tr: Tracer, case: Case, counts: Counter) -> tuple[Outcome, int]:
    """The same outcome as run_document, one span per library call; run inside ``tracing``."""
    doc_id = case.doc_id
    _build_sources(tr, case, counts)
    tr.begin("doc", doc_id)
    try:
        doc = tr.call("cli.load_document", doc_id, cli.load_document, case.text)
        counts["cli.load_document.bytes"] += len(case.text.encode())
        report = tr.call("cli.run_pipeline", doc_id, cli.run_pipeline, doc)
        table = tr.call("cli.render_table", doc_id, cli.render_table, report, PRECISION)
        counts["cli.render_table.bytes"] += len(table.encode())
        answers = []
        if case.assess_sources:
            for source in doc.sources:
                advice = tr.call("regime.assess", doc_id, regime.assess, source.mass)
                answers.append(("assess", source.name, advice.kind.value, advice.rationale))
        if case.assess_fused:
            advice = tr.call("regime.assess_fusion", doc_id, regime.assess_fusion, report)
            answers.append(("fusion", "", advice.kind.value, advice.rationale))
        for query in case.queries:
            focal = tr.call("frame.parse_focal", doc_id, frame.parse_focal, query, doc.frame)
            interval = tr.call("mass.belief_interval", doc_id, mass.belief_interval, report.result, focal)
            answers.append(("belpl", query, interval.bel, interval.pl))
        out = Outcome(table, tuple(answers))
    except Exception as exc:  # judged by the checks, as in run_document
        out = _failure(exc)
    return out, tr.end()


def cli_in_process(path: str) -> tuple[int, str, int]:
    """``main(["fuse", ...])`` in this process: exit code, captured stdout, nanoseconds."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter_ns()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(["fuse", "--input", path, "--precision", str(PRECISION)])
    took = perf_counter_ns() - start
    return code, stdout.getvalue() + stderr.getvalue(), took

import csv
import json
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import overmass
from fold_reference import fraction_fold
from overmass.cli import (
    PipelineSpec,
    ScenarioDocument,
    build_parser,
    load_document,
    main,
    render_csv,
    render_document,
    render_table,
    run_golden_examples,
    run_pipeline,
)
from overmass.errors import ParseError, RuleGuardError, ValidationError
from overmass.frame import make_frame
from overmass.mass import CLASSICAL_RANGE, MassFunction, MassRange, Weights, interval_union
from overmass.rules import FusionReport, RuleId, fuse, over_normalize

WILDFIRE = Path(__file__).resolve().parents[1] / "examples" / "wildfire.json"
DEMPSTER_PAIR = WILDFIRE.with_name("dempster-pair.json")


def doc_text(frame=("A", "B"), sources=None, pipeline=None):
    payload = {
        "frame": list(frame),
        "sources": sources
        or [
            {"name": "m1", "range": [0, 1.1], "masses": {"A": 0.6, "B": 0.3, "A|B": 0.2}},
            {"name": "m2", "range": [0, 1.1], "masses": {"A": 0.5, "B": 0.5, "A|B": 0.1}},
        ],
    }
    if pipeline is not None:
        payload["pipeline"] = pipeline
    return json.dumps(payload)


MIXED_SOURCES = [
    {"name": "m1", "range": [0, 1.1], "masses": {"A": 0.7, "B": 0.3, "A|B": 0.1}},
    {"name": "m2", "range": [0, 1.2], "masses": {"A": 0.4, "B": 0.6, "A|B": 0.2}},
]

NEGATIVE_SOURCES = [
    {"name": "u1", "range": [-0.2, 1], "masses": {"A": -0.2, "B": 0.7, "A|B": 0.3}},
    {"name": "u2", "range": [-0.2, 1], "masses": {"A": 0.4, "B": -0.1, "A|B": 0.5}},
]

CLASSICAL_SOURCES = [
    {"range": [0, 1], "masses": {"A": 0.5, "B": 0.3, "A|B": 0.2}},
    {"range": [0, 1], "masses": {"A": 0.2, "B": 0.6, "A|B": 0.2}},
    {"range": [0, 1], "masses": {"A": 0.6, "B": 0.1, "A|B": 0.3}},
]

MIXED_THREE_SOURCES = [
    {"range": [0, 1.1], "masses": {"A": 0.6, "B": 0.3, "A|B": 0.2}},
    {"range": [0, 1.3], "masses": {"A": 0.3, "B": 0.7, "A|B": 0.3}},
    {"range": [-0.2, 1], "masses": {"A": 0.5, "B": 0.2, "A|B": 0.1}},
]


#: Inputs that fuse refuses with exit 2: a document, extra flags, and the message's gist.
PARSE_FAILURES = [
    ("{not json", [], "invalid JSON"),
    (doc_text(sources=[{"range": [0], "masses": {"A": 1.0}}, MIXED_SOURCES[1]]), [], '"range" must be'),
    (doc_text(pipeline=["pcr5"]), [], '"pipeline" must be an object'),
    # A rule that is not a string, unhashable ones included, is an unknown rule.
    (doc_text(pipeline={"rule": ["pcr5"]}), [], "unknown rule"),
    (doc_text(pipeline={"rule": {"a": 1}}), [], "unknown rule"),
    (doc_text(pipeline={"rule": None}), [], "unknown rule"),
    (doc_text(pipeline={"strict": "yes"}), [], '"strict" must be true or false'),
    (doc_text(pipeline={"normalize": 1}), [], '"normalize" must be true or false'),
    (json.dumps({"frame": ["A", "B"], "sources": {"m1": {}}}), [], '"sources" must be a list'),
    (doc_text(sources=[1, MIXED_SOURCES[1]]), [], "source #1 must be an object"),
    (doc_text(sources=[{"name": "", "masses": {"A": 1.0}}, MIXED_SOURCES[1]]), [], "name must be"),
    (doc_text(sources=[{"name": 7, "masses": {"A": 1.0}}, MIXED_SOURCES[1]]), [], "name must be"),
    (doc_text(sources=[{"name": "m1", "masses": [["A", 1.0]]}, MIXED_SOURCES[1]]), [], '"masses" must map'),
    (doc_text(), ["--target", "0"], "expects LO,HI"),
    (doc_text(), ["--target", "0,1,2"], "expects LO,HI"),
    (doc_text(), ["--target", "low,high"], "expects two numbers"),
    # A JSON object that repeats a key is refused, wherever it sits.
    (
        '{"frame": ["A", "B"], "sources": [{"masses": {"A": 0.3, "A": 0.6}}, {"masses": {"B": 1}}]}',
        [],
        "duplicate key 'A' in a JSON object",
    ),
    (
        '{"frame": ["A", "B"], "frame": ["A", "C"], "sources": [{"masses": {"A": 1}}, {"masses": {"A": 1}}]}',
        [],
        "duplicate key 'frame' in a JSON object",
    ),
    ("[" * 100_000, [], "document nested too deeply"),
]

#: A document whose first frame label holds a byte that is not UTF-8.
NOT_UTF8 = doc_text().encode("utf-8").replace(b'"A"', b'"A\xff"', 1)

NO_SOURCES = json.dumps({"frame": ["A", "B"], "sources": []})

#: Conflict 1.0 over a subnormal focal total, which total-proportional spreads onto B exactly.
SUBNORMAL_FOCAL_SOURCES = [
    {"range": [0, 1.5], "masses": {"B": 2.225073858507e-311, "A|C": 1.0}},
    {"range": [0, 1.5], "masses": {"B": 1.0}},
]


def run_child(*args):
    """This interpreter in a child process, importing the package under test."""
    src = os.path.dirname(os.path.dirname(overmass.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestLoadDocument:
    def test_basic_document(self):
        doc = load_document(doc_text(pipeline={"rule": "pcr5", "strict": True}))
        assert doc.frame.labels == ("A", "B")
        assert [s.name for s in doc.sources] == ["m1", "m2"]
        assert doc.pipeline.rule is RuleId.PCR5
        assert doc.pipeline.strict is True

    def test_defaults(self):
        doc = load_document(doc_text())
        assert doc.pipeline == PipelineSpec()
        assert doc.pipeline.normalize is True
        assert doc.pipeline.target is None
        assert doc.pipeline.strict is False

    def test_bytes_accepted(self):
        doc = load_document(doc_text().encode("utf-8"))
        assert len(doc.sources) == 2

    def test_negative_range_sources(self):
        doc = load_document(doc_text(sources=NEGATIVE_SOURCES))
        assert doc.sources[0].mass.has_negative

    def test_unknown_label_names_source(self):
        text = doc_text(sources=[{"name": "bad", "range": [0, 1], "masses": {"C": 0.5}}])
        with pytest.raises(ParseError) as err:
            load_document(text)
        assert "bad" in str(err.value)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            load_document('{"frame": ["A", "B"!')
        message = str(err.value)
        assert "line" in message and "column" in message

    def test_invalid_utf8_names_the_byte(self):
        offset = NOT_UTF8.index(b"\xff")
        with pytest.raises(ParseError, match="^document is not valid UTF-8 at byte %d: " % offset):
            load_document(NOT_UTF8)

    def test_root_must_be_object(self):
        with pytest.raises(ParseError):
            load_document("[1, 2]")

    def test_frame_must_be_strings(self):
        with pytest.raises(ParseError):
            load_document(json.dumps({"frame": ["A", 2], "sources": []}))

    def test_empty_symbol_label_refused(self):
        with pytest.raises(ValidationError, match="reserved for the empty set"):
            load_document(doc_text(frame=("∅", "B"), sources=[{"masses": {"B": 1.0}}]))

    def test_weight_must_be_number(self):
        text = doc_text(sources=[{"name": "m1", "range": [0, 1], "masses": {"A": True}}])
        with pytest.raises(ParseError):
            load_document(text)

    def test_out_of_range_weight_names_source(self):
        text = doc_text(sources=[{"name": "m9", "range": [0, 1.1], "masses": {"A": 1.3}}])
        with pytest.raises(ValidationError) as err:
            load_document(text)
        assert "m9" in str(err.value)

    def test_strict_sum_enforced(self):
        text = doc_text(
            sources=[
                {"name": "m1", "range": [0, 1.1], "masses": {"A": 0.5, "B": 0.5}},
                {"name": "m2", "range": [0, 1.1], "masses": {"A": 0.6, "B": 0.5}},
            ],
            pipeline={"strict": True},
        )
        with pytest.raises(ValidationError):
            load_document(text)

    def test_unknown_rule(self):
        with pytest.raises(ParseError):
            load_document(doc_text(pipeline={"rule": "majority"}))

    def test_round_trip(self):
        doc = load_document(
            doc_text(pipeline={"rule": "total-proportional", "target": [0, 1.1], "strict": True})
        )
        assert load_document(render_document(doc)) == doc

    def test_round_trip_without_pipeline(self):
        doc = load_document(doc_text(sources=NEGATIVE_SOURCES))
        assert load_document(render_document(doc)) == doc


class TestRunPipeline:
    def test_widened_normalize_first(self):
        doc = load_document(
            doc_text(pipeline={"rule": "total-proportional", "strict": True})
        )
        report = run_pipeline(doc)
        assert report.result["A"] == pytest.approx(0.67, abs=0.01)
        assert report.result["B"] == pytest.approx(0.40, abs=0.01)
        assert report.result["A|B"] == pytest.approx(0.03, abs=0.01)
        assert report.result.total == pytest.approx(1.1, abs=1e-9)

    def test_swapped_redistribute_first(self):
        sources = [
            {"name": "m1", "range": [0, 1.1], "masses": {"A": 0.3, "B": 0.6, "A|B": 0.2}},
            {"name": "m2", "range": [0, 1.1], "masses": {"A": 0.5, "B": 0.5, "A|B": 0.1}},
        ]
        doc = load_document(doc_text(sources=sources, pipeline={"rule": "pcr5"}))
        report = run_pipeline(doc)
        assert report.result["A"] == pytest.approx(0.43, abs=0.02)
        assert report.result["B"] == pytest.approx(0.65, abs=0.02)

    def test_single_source_rejected(self):
        doc = load_document(doc_text(sources=[MIXED_SOURCES[0]]))
        with pytest.raises(ValidationError):
            run_pipeline(doc)

    def test_document_target_overrides_union(self):
        doc = load_document(
            doc_text(sources=MIXED_SOURCES, pipeline={"rule": "pcr5", "target": [0, 1.3]})
        )
        assert run_pipeline(doc).result.total == pytest.approx(1.3, abs=1e-9)

    def test_three_source_average(self):
        sources = [
            {"name": "s%d" % i, "range": [0, 1], "masses": {"A": w}}
            for i, w in enumerate((0.9, 0.6, 0.3))
        ]
        doc = load_document(doc_text(sources=sources, pipeline={"rule": "average"}))
        assert run_pipeline(doc).result["A"] == pytest.approx(0.6, abs=1e-12)

    def test_three_source_fold_normalizes_once(self):
        sources = [
            {"range": [0, 1.1], "masses": {"A": 0.6, "B": 0.3, "A|B": 0.2}},
            {"range": [0, 1.1], "masses": {"A": 0.5, "B": 0.5, "A|B": 0.1}},
            {"range": [0, 1.2], "masses": {"A": 0.4, "B": 0.6, "A|B": 0.2}},
        ]
        doc = load_document(doc_text(sources=sources, pipeline={"rule": "pcr5"}))
        report = run_pipeline(doc)
        # target = union of all = [0, 1.2]
        assert report.result.total == pytest.approx(1.2, abs=1e-9)
        assert report.result.conflict_weight == 0.0

    def test_three_sources_fold_left(self):
        # Without a target the default is the union of every source range.
        cases = [(CLASSICAL_SOURCES, [0, 1.2]), (MIXED_THREE_SOURCES, None)]
        for sources, target in cases:
            doc = load_document(doc_text(sources=sources, pipeline={"rule": "pcr5", "target": target}))
            m1, m2, m3 = (s.mass for s in doc.sources)
            target = MassRange(*target) if target else interval_union(m1.range, m2.range, m3.range)
            first = fuse(m1, m2, RuleId.PCR5, target=target, normalize=False)
            assert run_pipeline(doc) == fuse(first.result, m3, RuleId.PCR5, target=target)

    def test_three_sources_fold_exactly(self):
        cases = [(CLASSICAL_SOURCES, rule, [0, 1.2])
                 for rule in (RuleId.CONJUNCTIVE, RuleId.DEMPSTER, RuleId.TOTAL_PROPORTIONAL)]
        cases.append((MIXED_THREE_SOURCES, RuleId.TOTAL_PROPORTIONAL, None))
        for sources, rule, target in cases:
            doc = load_document(doc_text(sources=sources, pipeline={"rule": rule.value, "target": target}))
            masses = [s.mass for s in doc.sources]
            want = fraction_fold(masses, rule)
            if rule is RuleId.TOTAL_PROPORTIONAL:
                want = over_normalize(want, MassRange(*target) if target else interval_union(*(m.range for m in masses)))
            assert run_pipeline(doc) == want


class TestRendering:
    @pytest.fixture
    def mixed_report(self):
        doc = load_document(doc_text(sources=MIXED_SOURCES, pipeline={"rule": "pcr5"}))
        return run_pipeline(doc)

    def test_table(self, mixed_report):
        text = render_table(mixed_report, 3)
        head, body = text.splitlines()
        assert head.split() == ["A", "B", "A|B", "∅", "sum"]
        assert body.split() == ["0.686", "0.496", "0.018", "0.000", "1.200"]

    def test_csv(self, mixed_report):
        text = render_csv(mixed_report, 3)
        assert text.splitlines() == [
            "A,B,A|B,∅,sum",
            "0.686,0.496,0.018,0.000,1.200",
        ]

    def test_csv_quotes_labels_that_need_it(self):
        frame = ["fire, north", 'say "B"', "C\nD"]
        sources = [{"masses": {"fire, north": 0.6, 'say "B"|C\nD': 0.4}},
                   {"masses": {"fire, north|say \"B\"": 0.7, "C\nD": 0.3}}]
        report = run_pipeline(load_document(doc_text(frame=frame, sources=sources, pipeline={"rule": "conjunctive"})))
        assert list(csv.reader(render_csv(report, 3).splitlines(keepends=True))) == [
            ["fire, north", 'say "B"', "C\nD", "∅", "sum"],
            ["0.420", "0.280", "0.120", "0.180", "1.000"],
        ]

    def test_csv_headers_name_every_set_of_an_awkward_frame(self):
        labels = ("θ1", "fire, north", 'say "B"', "ü", "x y", "日本") + tuple("L%d" % i for i in range(10))
        frame = make_frame(labels)
        rng = random.Random(16)
        bits = {rng.randrange(1, 1 << 16): 0.001 for _ in range(300)}
        report = FusionReport(MassFunction(frame, Weights(frame, bits), CLASSICAL_RANGE), 0.0, 1.0, RuleId.CONJUNCTIVE)
        headers, _ = csv.reader(render_csv(report, 3).splitlines(keepends=True))
        assert headers == ["|".join(l for i, l in enumerate(labels) if b >> i & 1) for b in sorted(bits)] + ["∅", "sum"]

    def test_average_table_low_precision(self):
        doc = load_document(doc_text(sources=NEGATIVE_SOURCES, pipeline={"rule": "average"}))
        body = render_table(run_pipeline(doc), 1).splitlines()[1]
        assert body.split() == ["0.1", "0.3", "0.4", "0.0", "0.8"]

    def test_deterministic(self):
        first = render_table(run_pipeline(load_document(doc_text())), 6)
        second = render_table(run_pipeline(load_document(doc_text())), 6)
        assert first == second


class TestGoldenExamples:
    def test_all_within_tolerance(self):
        text, ok = run_golden_examples()
        assert ok
        assert "MISMATCH" not in text

    def test_text_lists_all_four(self):
        text = run_golden_examples()[0]
        for name in (
            "promotion, shared scale",
            "promotion, mixed scales",
            "counter-evidence averaging",
            "belief bounds after redistribution",
        ):
            assert name in text
        assert "|delta|" in text


class TestMainExitCodes:
    def write(self, tmp_path, text, name="doc.json"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_fuse_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(sources=MIXED_SOURCES, pipeline={"rule": "pcr5"}))
        assert main(["fuse", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "0.686" in out
        assert "rule: pcr5" in out

    def test_fuse_csv(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(sources=MIXED_SOURCES))
        assert main(["fuse", "--input", path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "A,B,A|B,∅,sum"

    def test_fuse_output_does_not_depend_on_source_order(self, tmp_path, capsys):
        exact = ("conjunctive", "dempster", "total-proportional")
        wildfire = json.loads(WILDFIRE.read_text(encoding="utf-8"))
        pair = json.loads(DEMPSTER_PAIR.read_text(encoding="utf-8"))
        over = {"name": "over", "range": [0, 1.2], "masses": {"north": 0.7, "east|south": 0.5}}
        # (frame, sources, pipeline, flags, exit code); dempster refuses every
        # wildfire source, and one source of the pair plus "over".
        cases = [(("A", "B"), CLASSICAL_SOURCES, {"rule": rule}, [], 0) for rule in exact]
        cases.append((wildfire["frame"], wildfire["sources"], wildfire["pipeline"], [], 0))
        cases += [(wildfire["frame"], wildfire["sources"], wildfire["pipeline"], ["--rule", rule],
                   3 if rule == "dempster" else 0) for rule in exact]
        cases.append((pair["frame"], [*pair["sources"], over], pair["pipeline"], [], 3))
        cases += [(pair["frame"], pair["sources"], pair["pipeline"], ["--rule", rule, *flags], 0)
                  for rule in ("pcr5", "average") for flags in ([], ["--no-normalize"], ["--target=-0.1,1.3"])]
        for frame, sources, pipeline, flags, code in cases:
            outputs = set()
            for order in permutations(sources):
                path = self.write(tmp_path, doc_text(frame, list(order), pipeline))
                status = main(["fuse", "--input", path, "--precision", "17", *flags])
                outputs.add((status, *capsys.readouterr()))
            assert len(outputs) == 1, (pipeline, flags)
            assert next(iter(outputs))[0] == code, (pipeline, flags)

    def test_fuse_output_does_not_change_with_a_vacuous_source(self, tmp_path, capsys):
        doc = json.loads(DEMPSTER_PAIR.read_text(encoding="utf-8"))
        doc["sources"].append({"name": "vacuous", "masses": {"north|east|south": 1.0}})
        outputs = []
        for path in (str(DEMPSTER_PAIR), self.write(tmp_path, json.dumps(doc))):
            assert main(["fuse", "--input", path, "--precision", "17"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "conflict: 0.21750000000000000\n" in outputs[0]

    def test_fuse_rule_guard_exit(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(sources=NEGATIVE_SOURCES))
        for rule in ("conjunctive", "dempster", "pcr5", "total-proportional"):
            assert main(["fuse", "--input", path, "--rule", rule]) == 3
        assert main(["fuse", "--input", path, "--rule", "average"]) == 0

    def test_fuse_spreads_conflict_onto_a_subnormal_focal_total(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(frame="ABC", sources=SUBNORMAL_FOCAL_SOURCES,
                                             pipeline={"rule": "total-proportional"}))
        assert main(["fuse", "--input", path, "--no-normalize", "--precision", "17"]) == 0
        captured = capsys.readouterr()
        assert [line.split() for line in captured.out.splitlines()[:2]] == [
            ["B", "∅", "sum"], ["1.00000000000000000", "0.00000000000000000", "1.00000000000000000"]]
        assert "conflict: 1.00000000000000000\n" in captured.out
        assert captured.err == ""
        # Rescaled onto the sources' range [0, 1.5].
        assert main(["fuse", "--input", path, "--precision", "17"]) == 0
        captured = capsys.readouterr()
        assert [line.split() for line in captured.out.splitlines()[:2]] == [
            ["B", "∅", "sum"], ["1.50000000000000000", "0.00000000000000000", "1.50000000000000000"]]
        assert "divisor: 0.66666666666666663\n" in captured.out

    def test_fuse_validation_exit(self, tmp_path, capsys):
        bad = doc_text(
            sources=[{"name": "m1", "range": [0, 1], "masses": {"A": 1.4}},
                     MIXED_SOURCES[1]],
        )
        path = self.write(tmp_path, bad)
        assert main(["fuse", "--input", path]) == 1
        assert "m1" in capsys.readouterr().err
        path = self.write(tmp_path, NO_SOURCES)
        for command in (["classify"], ["belpl", "--set", "A"]):
            assert main([*command, "--input", path]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "no sources" in captured.err

    def test_fuse_parse_exit(self, tmp_path, capsys):
        for text, flags, gist in PARSE_FAILURES:
            path = self.write(tmp_path, text)
            assert main(["fuse", "--input", path, *flags]) == 2, gist
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("parse error:"), gist
            assert gist in captured.err

    def test_invalid_utf8_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(NOT_UTF8)
        assert main(["fuse", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        offset = NOT_UTF8.index(b"\xff")
        assert captured.out == ""
        assert captured.err.startswith("parse error: document is not valid UTF-8 at byte %d: " % offset)

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        assert main(["fuse", "--input", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_fuse_target_override(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(sources=MIXED_SOURCES, pipeline={"rule": "pcr5"}))
        assert main(["fuse", "--input", path, "--target", "0,1.3", "--precision", "4"]) == 0
        assert "1.3000" in capsys.readouterr().out

    def test_fuse_no_normalize(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(sources=MIXED_SOURCES, pipeline={"rule": "pcr5"}))
        assert main(["fuse", "--input", path, "--no-normalize"]) == 0
        assert "1.320" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["normalize-first", "redistribute-first", "sideways", 3, None])
    def test_document_order_changes_nothing(self, tmp_path, capsys, order):
        for rule in ("pcr5", "total-proportional"):
            outputs = []
            for pipeline in ({"rule": rule}, {"rule": rule, "order": order}):
                path = self.write(tmp_path, doc_text(pipeline=pipeline))
                assert main(["fuse", "--input", path, "--precision", "17"]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1]

    def test_rescaling_flags_name_their_rules(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps at hyphens
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuse", "--help"])
        options = " ".join(capsys.readouterr().out.split()).split(" options: ", 1)[1]
        for flag in ("--target LO,HI ", "--no-normalize "):
            entry = options.split(flag, 1)[1].split(" --", 1)[0]
            assert entry.endswith("pcr5 and total-proportional only"), entry

    @pytest.mark.parametrize("command", [["fuse"], ["belpl", "--set", "A"]])
    def test_precision_bounded_by_double_digits(self, tmp_path, capsys, command):
        path = self.write(tmp_path, doc_text())
        assert main([*command, "--input", path, "--precision", "1074"]) == 0
        cells = [tok for tok in capsys.readouterr().out.split() if "." in tok]
        assert cells and all(len(tok.split(".")[1]) == 1074 for tok in cells)
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", path, "--precision", "1075"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1074" in captured.err

    @pytest.mark.parametrize("rule", [r.value for r in RuleId])
    @pytest.mark.parametrize(
        "text, flags",
        [
            # json accepts the Infinity token; an unbounded range must not pass.
            (doc_text(sources=[{"range": [0, float("inf")], "masses": {"A": 0.6, "B": 0.3}},
                               {"range": [0, float("inf")], "masses": {"A": 0.5, "B": 0.5}}]), []),
            # Finite weights whose products and sums overflow a float.
            (doc_text(sources=[{"range": [0, 1e308], "masses": {"A": 1e308, "B": 1e308}},
                               {"range": [0, 1e308], "masses": {"A": 1e308, "B": 1e308}}]), []),
            (doc_text(sources=[{"range": [0, 10**400], "masses": {"A": 0.6}},
                               {"range": [0, 1], "masses": {"A": 0.5}}]), []),
            (doc_text(), ["--precision", "-5"]),
            (doc_text(), ["--target", "0,inf"]),
        ],
        ids=["infinite-range", "overflow", "huge-integer", "negative-precision", "infinite-target"],
    )
    def test_non_finite_input_fails_typed(self, tmp_path, capsys, text, flags, rule):
        path = self.write(tmp_path, text)
        try:
            code = main(["fuse", "--input", path, "--rule", rule, *flags])
        except SystemExit as exc:  # argparse rejects bad flags itself
            code = exc.code
        assert code in (1, 2, 3)
        out = capsys.readouterr().out.lower()
        assert "nan" not in out and "inf" not in out

    def test_classify_output(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(sources=NEGATIVE_SOURCES))
        assert main(["classify", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "u1: range=under sum=deficit advisory=counter-evidence-discount" in out
        assert "A=-0.2" in out

    def test_classify_widened(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text())
        assert main(["classify", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "m1: range=over sum=surplus advisory=critical-priority" in out

    def test_belpl_fused(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(sources=MIXED_SOURCES, pipeline={"rule": "pcr5"}))
        assert main(["belpl", "--input", path, "--set", "A"]) == 0
        out = capsys.readouterr().out
        assert "Bel(A) = 0.686114" in out
        assert "Pl(A) = 0.704296" in out

    def test_belpl_single_source(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            doc_text(sources=[{"name": "only", "range": [0, 1.1],
                               "masses": {"A": 0.6, "B": 0.3, "A|B": 0.2}}]),
        )
        assert main(["belpl", "--input", path, "--set", "A|B"]) == 0
        out = capsys.readouterr().out
        assert "only" in out
        assert "Bel(A|B) = 1.100000" in out
        assert "note" not in out
        path = self.write(tmp_path, doc_text(sources=NEGATIVE_SOURCES[:1]))
        assert main(["belpl", "--input", path, "--set", "A"]) == 0
        out = capsys.readouterr().out
        assert "Bel(A) = -0.200000" in out
        assert "note: negative weights present" in out

    def test_belpl_unknown_set(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text())
        assert main(["belpl", "--input", path, "--set", "Z"]) == 2
        capsys.readouterr()

    def test_paper_examples_exit_zero(self, capsys):
        assert main(["paper-examples"]) == 0
        out = capsys.readouterr().out
        assert "all comparisons within tolerance" in out


class TestEntryPoints:
    def test_module_invocation(self):
        proc = run_child("-m", "overmass", "paper-examples")
        assert proc.returncode == 0
        assert "all comparisons within tolerance" in proc.stdout

    def test_console_script_help(self):
        proc = run_child("-m", "overmass", "--help")
        assert proc.returncode == 0
        for command in ("fuse", "classify", "belpl", "paper-examples"):
            assert command in proc.stdout

    def test_combine_loads_no_rational_modules(self):
        proc = run_child(
            "-c",
            "import sys, overmass; "
            "f = overmass.make_frame(['A', 'B']); "
            "m = overmass.make_mass(f, {'A': 0.6, 'A|B': 0.4}, overmass.CLASSICAL_RANGE); "
            "overmass.combine([m, m, m], overmass.RuleId.DEMPSTER); "
            "print(sorted({'decimal', 'fractions'} & set(sys.modules)))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_library_import_leaves_cli_unloaded(self):
        proc = run_child(
            "-c",
            "import sys, overmass; "
            "print(sorted({'argparse', 'json', 'overmass.cli'} & set(sys.modules)))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

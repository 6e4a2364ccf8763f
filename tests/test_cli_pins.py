"""`overmass fuse` on the bundled examples prints exactly the pinned bytes.

cli_pins.json holds, for each example, rule, format and flag set, the exit
code, stdout and stderr of `overmass fuse --precision 17`. A refactor of
the rules or the pipeline must leave every one of them unchanged. After a
deliberate change of output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_pins.py

and say in the change which cases moved and why.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from overmass.cli import main
from overmass.rules import RuleId

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).with_name("cli_pins.json")
EXAMPLES = ("examples/wildfire.json", "examples/dempster-pair.json")
FLAG_SETS = ((), ("--no-normalize",), ("--target=-0.1,1.3",))


def cases() -> list[list[str]]:
    return [
        ["fuse", "--input", example, "--rule", rule.value, "--format", fmt, "--precision", "17", *flags]
        for example, rule, fmt, flags in product(EXAMPLES, RuleId, ("table", "csv"), FLAG_SETS)
    ]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg if not arg.startswith("examples/") else str(ROOT / arg) for arg in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def pins() -> dict:
    return {tuple(pin["argv"]): pin for pin in json.loads(PINS.read_text(encoding="utf-8"))}


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted(map(tuple, cases()))


@pytest.mark.parametrize("argv", cases(), ids=lambda argv: " ".join(argv[2:]))
def test_fuse_prints_the_pinned_bytes(argv, pins):
    assert run(argv) == pins[tuple(argv)]


if __name__ == "__main__":
    PINS.write_text(json.dumps([run(argv) for argv in cases()], ensure_ascii=False, indent=1) + "\n", encoding="utf-8")

"""Replay the golden CLI corpus in tests/data/cli/.

`scripts/make_cli_corpus.py` records the corpus and owns its case list and
its runner, a fresh `python -m qutrit_bloch.cli` process.  Every case is
replayed through that runner under one exact rule: stdout equals the
recorded document byte for byte, the exit code matches, and stderr is empty
or, on a nonzero exit, one `error: ` line.  Regenerate with the script.
"""

import json
import re
import runpy
from pathlib import Path

import pytest

from conftest import assert_same_text

RECORDER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "make_cli_corpus.py"))
CORPUS = RECORDER["CORPUS"]
CASES = json.loads((CORPUS / "cases.json").read_text())
BY_NAME = {c["name"]: c for c in CASES}
ONE_ERROR_LINE = re.compile(r"error: [^\n]*\n")


def recorded(case) -> str:
    return (CORPUS / f"{case['name']}.out").read_bytes().decode()


def assert_replays(case, code: int, out: str, err: str) -> None:
    """The one rule: a run of `case` that gave (code, out, err) replays it."""
    assert_same_text(out, recorded(case))
    assert code == case["exit_code"]
    assert err == "" or (code != 0 and ONE_ERROR_LINE.fullmatch(err)), err


def test_recorder_lists_the_recorded_cases():
    assert RECORDER["cases"]() == [(c["name"], c["argv"], c["stdin"]) for c in CASES]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_replays_byte_for_byte(case):
    assert_replays(case, *RECORDER["run_case"](case["argv"], case["stdin"]))


@pytest.mark.parametrize(
    "name, err",
    [("named-points", ""), ("check-invalid", ""), ("check-deep-json", "error: invalid JSON input: too deep\n")],
)
def test_rule_accepts_a_faithful_run(name, err):
    case = BY_NAME[name]
    assert_replays(case, case["exit_code"], recorded(case), err)


def _flip_byte(text: str) -> str:
    at = len(text) // 2
    return text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1 :]


# (case, fault applied to a faithful (code, out, err)); each must fail the rule,
# a fault in stdout with the offset of its first differing byte
AT_OFFSET = "texts differ at offset"
FAULTS = {
    "changed-byte": ("named-points", lambda c, o, e: (c, _flip_byte(o), e)),
    "missing-last-byte": ("named-points", lambda c, o, e: (c, o[:-1], e)),
    "extra-line": ("check-invalid", lambda c, o, e: (c, o + "\n", e)),
    "output-before-an-error": ("check-deep-json", lambda c, o, e: (c, "{}\n", e)),
    "wrong-exit-code": ("check-invalid", lambda c, o, e: (1, o, e)),
    "stderr-on-success": ("named-points", lambda c, o, e: (c, o, "warning: x\n")),
    "error-line-on-success": ("named-points", lambda c, o, e: (c, o, "error: x\n")),
    "two-error-lines": ("check-deep-json", lambda c, o, e: (c, o, "error: x\nerror: y\n")),
    "traceback-on-failure": ("check-deep-json", lambda c, o, e: (c, o, "Traceback (most recent call last):\n")),
    "error-line-without-newline": ("check-deep-json", lambda c, o, e: (c, o, "error: x")),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_rule_rejects_each_kind_of_fault(fault):
    name, apply = FAULTS[fault]
    case = BY_NAME[name]
    code, out, err = apply(case["exit_code"], recorded(case), "error: x\n" if case["exit_code"] else "")
    with pytest.raises((AssertionError, pytest.fail.Exception)) as failure:
        assert_replays(case, code, out, err)
    assert (AT_OFFSET in str(failure.value)) == (out != recorded(case))

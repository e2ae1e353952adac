"""Replay the golden CLI corpus in tests/data/cli/.

Each case's stdout must match its recorded document byte for byte, except the
fields that come from LAPACK (`check` eigenvalues and entropy, `orbit`
samples): those may differ across platforms in the last bits, so they are
compared to 1e-15.  Regenerate with `scripts/make_cli_corpus.py`.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from qutrit_bloch.cli import main

from conftest import assert_same_text

CORPUS = Path(__file__).resolve().parent / "data" / "cli"
CASES = json.loads((CORPUS / "cases.json").read_text())
LAPACK_FIELDS = {"check": ("eigenvalues", "entropy"), "orbit": ("samples",)}
_DECODER = json.JSONDecoder()


def split_fields(text: str, keys) -> tuple[str, list]:
    """text with the value of each top-level key cut out, and those values."""
    values = []
    for key in keys:
        start = text.index(f'"{key}":') + len(key) + 3
        value, end = _DECODER.raw_decode(text, start)
        values.append(value)
        text = text[:start] + text[end:]
    return text, values


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_replays_byte_for_byte(case, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    code = main(case["argv"])
    out = capsys.readouterr().out
    expected = (CORPUS / f"{case['name']}.out").read_text()
    assert code == case["exit_code"]
    keys = LAPACK_FIELDS.get(case["argv"][0], ()) if expected else ()
    out, got = split_fields(out, keys)
    expected, want = split_fields(expected, keys)
    assert_same_text(out, expected)
    for key, g, w in zip(keys, got, want):
        if w is None:
            assert g is None, key
        else:
            assert np.shape(g) == np.shape(w), key
            assert np.max(np.abs(np.subtract(g, w)), initial=0.0) <= 1e-15, key


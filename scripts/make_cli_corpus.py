#!/usr/bin/env python3
"""Record the golden CLI corpus in tests/data/cli/, and run its cases.

`cases()` is the one case list and `run_case` the one runner: a fresh
`python -m qutrit_bloch.cli` process, which calls `entrypoint()` as the
installed `qutrit-bloch` script does, importing the package from this
checkout's src/.  This script records each case's stdout to `<name>.out` and
its argv, stdin and exit code to `cases.json`.  `tests/test_cli_corpus.py`
replays every case through the same runner under one exact rule: stdout byte
for byte, the exit code, and an empty stderr or one `error: ` line.  After a
change to the CLI's output, rerun this script and review
`git diff tests/data/cli/`: only the documents the change meant to alter may
differ.

    PYTHONPATH=src python scripts/make_cli_corpus.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from qutrit_bloch.triangle import VERTICES, bloch_from_diag, named_points

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "cli"

MIXED = ["0.2", "-0.1", "0.3", "0.05", "0", "0.1", "-0.2", "0.15"]
# rho = |psi><psi| with psi = (1, 1, 1)/sqrt(3), as nested rows of [re, im]
UNIFORM_PROJECTOR = json.dumps([[[1 / 3, 0.0]] * 3] * 3)


def cases() -> list[tuple[str, list[str], str | None]]:
    """(name, argv, stdin) of every corpus document, in a fixed order."""
    out = [("named-points", ["named-points"], None)]
    out.append(("convert-bloch-to-rho", ["convert", "bloch-to-rho", *MIXED], None))
    out.append(("convert-rho-to-bloch", ["convert", "rho-to-bloch", "--stdin"], UNIFORM_PROJECTOR))
    for label, (point, _) in named_points().items():
        out.append((f"check-{label}", ["check", "--", *map(repr, bloch_from_diag(point).tolist())], None))
    out.append(("check-invalid", ["check", "0.9", "0", "0", "0", "0", "0", "0", "0.9"], None))
    # vertex R pushed out by 1e-10: q1 = 1 + 2e-10 is inside the default slack
    near = bloch_from_diag(VERTICES["R"]) * (1.0 + 1e-10)
    out.append(("check-near-boundary", ["check", *map(repr, near.tolist())], None))
    out.append(("check-stdin", ["check", "--stdin"], json.dumps([float(v) for v in MIXED])))
    out.append(("check-deep-json", ["check", "--stdin"], "[" * 3000))  # exits 1 with an empty document
    for resolution in (2, 7, 64):
        for fmt in ("csv", "json"):
            argv = ["triangle", "--resolution", str(resolution), "--format", fmt]
            out.append((f"triangle-{fmt}-{resolution}", argv, None))
    out.append(("contour-0.3", ["contour", "--levels", "0.3", "--resolution", "64"], None))
    out.append(("contour-0.6", ["contour", "--levels", "0.6"], None))
    out.append(("contour-0.9", ["contour", "--levels", "0.9", "--resolution", "64"], None))
    out.append(("contour-unattained", ["contour", "--levels", "0.5", "--resolution", "2"], None))
    for count in (1, 64):
        out.append((f"orbit-{count}", ["orbit", *MIXED, "--count", str(count), "--seed", "7"], None))
    return out


def run_case(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a fresh CLI process on argv, fed the
    stdin text.  The streams are decoded as UTF-8 with no newline
    translation, so equal texts mean equal bytes."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "qutrit_bloch.cli", *argv],
        input=(stdin or "").encode(),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return run.returncode, run.stdout.decode(), run.stderr.decode()


def main() -> None:
    CORPUS.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, argv, stdin in cases():
        code, stdout, _ = run_case(argv, stdin)
        (CORPUS / f"{name}.out").write_bytes(stdout.encode())
        manifest.append({"name": name, "argv": argv, "stdin": stdin, "exit_code": code})
    (CORPUS / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} cases to {CORPUS}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Mutation pass over the comparison operators of src/qutrit_bloch/.

Each mutant flips one comparison operator token of one module: `<=` and `<`
swap, `>=` and `>` swap, `==` and `!=` swap.  The operators are found with
the stdlib tokenizer, so comparisons inside strings and comments are not
touched.  For each mutant the script runs tier 1 with `-x` on a copy of the
checkout in a temporary directory (never on the checkout itself), and the
mutant is killed when the suite fails or times out.  It prints every
survivor as `path:line:col  old -> new` and a count per module.  A whole pass
takes several minutes; it is not part of CI.  Before any mutant, tier 1 must
pass on each unmutated copy, or the script exits 1: a copy that cannot pass
would count every mutant as killed.

    python scripts/mutants.py              # two tier-1 runs at a time

The 10 survivors of the last pass (of 55 mutants), each likely equivalent, so
that a later pass can show the list got shorter:

- the three `_SAFE` comparisons, in `bloch._built`, `bloch._scaled` and
  `bloch._pure`, which differ only at a component of exactly 1e100, where the
  plain and the scaled paths agree to rounding;
- the two unitary bounds of `adjoint._validate_special_unitary`
  (`dev <= UNITARY_TOL` and `|det U - 1| <= UNITARY_TOL`), which a matrix
  meets with equality only by accident;
- in `triangle._newton_refine`, the `done` test `|E - level| <= tol` (at
  equality one more step, which lands within tol again), the two
  bracket updates `e >= 0.0` and `e < 0.0` (a lane with e = 0 is done),
  and the two bracket tests `ta < newton` and `newton < tb`: with the
  zero-safe log no slope is infinite, so a Newton step lands on a bracket
  end only when it rounds to nothing, below what any step could gain.
  Over 4595 (resolution, level, tol) cases down to tol 1e-16, neither flip
  changed a contour or an error.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "qutrit_bloch"
FLIPS = {"<=": "<", "<": "<=", ">=": ">", ">": ">=", "==": "!=", "!=": "=="}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
TIMEOUT_S = 600
WORKERS = 2


def mutants() -> list[tuple[Path, int, int, str]]:
    """(module path relative to the checkout, line, column, operator) of every comparison, in file order."""
    found = []
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        source = path.read_text()
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.OP and token.string in FLIPS:
                found.append((path.relative_to(ROOT), *token.start, token.string))
    return found


def mutated(source: str, line: int, col: int, op: str) -> str:
    """source with the operator op at (line, col) flipped."""
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col : col + len(op)] == op, (line, col, op)
    lines[line - 1] = text[:col] + FLIPS[op] + text[col + len(op) :]
    return "".join(lines)


def copy_checkout(into: Path) -> Path:
    """A copy of the files tier 1 reads, without version control or caches."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "perfbench")
    return Path(shutil.copytree(ROOT, into / "checkout", ignore=ignore))


def passes(copy: Path) -> bool:
    """Whether tier 1 passes in copy in time."""
    # no bytecode cache: an `==` <-> `!=` mutant keeps the file's size, and may keep its mtime
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def survived(copy: Path, mutant) -> bool:
    """Write one mutant into copy, run tier 1 there and restore the module: whether tier 1 passed in time."""
    path, line, col, op = mutant
    target = copy / path
    original = target.read_text()
    target.write_text(mutated(original, line, col, op))
    try:
        return passes(copy)
    finally:
        target.write_text(original)


def main() -> int:
    todo = mutants()
    with tempfile.TemporaryDirectory() as scratch:
        copies = [copy_checkout(Path(scratch) / str(k)) for k in range(WORKERS)]
        with ThreadPoolExecutor(WORKERS) as pool:
            if not all(pool.map(passes, copies)):
                print("tier 1 fails on the unmutated checkout; no mutant was run", file=sys.stderr)
                return 1
            # worker k takes every WORKERS-th mutant, on its own copy
            chunks = [todo[k::WORKERS] for k in range(WORKERS)]
            runs = pool.map(lambda k: [m for m in chunks[k] if survived(copies[k], m)], range(WORKERS))
            alive = {m for run in runs for m in run}
    survivors = [m for m in todo if m in alive]
    for path, line, col, op in survivors:
        print(f"{path}:{line}:{col}  {op} -> {FLIPS[op]}")
    for module in sorted({m[0] for m in todo}):
        total = sum(m[0] == module for m in todo)
        kept = sum(m[0] == module for m in survivors)
        print(f"{module.name}: {kept}/{total} survived")
    print(f"{len(survivors)} of {len(todo)} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())

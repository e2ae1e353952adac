"""Command-line front end: validity checks, conversions, and figure data.

Commands: check, convert, triangle, contour, orbit, named-points.  JSON
documents all carry schema_version "1" and serialize floats with 17
significant digits (round-trip exact for doubles); complex matrices are
row-major lists of [re, im] pairs.  Output depends only on argv and stdin.

Exit codes: 0 success, 1 usage, parse or range error, 2 domain/validity error,
each error with one stderr line.  The CLI checks the input's source, its JSON
(at any depth), shape and finiteness, the |n|^4 guard and option types.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .adjoint import _ORBIT_CHUNK, orbit_sample
from .bloch import DEFAULT_TOL, ValidationError, _checked, _judged, _pure
from .density import _bloch_matrix, _eigvalsh, _entropy, _xlogx, from_bloch, to_bloch
from .triangle import N3_RANGE, N8_RANGE, _contours, _mirror_columns, bloch_from_diag, entropy_grid, named_points

SCHEMA_VERSION = "1"
_SAMPLE_ROW = "[" + ",".join(["%.17g"] * 8) + "]"  # one orbit sample in JSON


class UsageError(Exception):
    """Malformed invocation or unparseable input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(obj) -> str:
    """Deterministic JSON with fixed float formatting.

    Library values go in as they are: a numpy array as its row-major flat
    list, a complex number as [re, im], a tuple as an array.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, complex):
        return f"[{_fmt(obj.real)},{_fmt(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_to_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.ravel().tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(**fields) -> int:
    """Write the JSON document of fields, schema_version first; exit code 0.

    A field given as an iterator of JSON chunks, each a comma-joined run of
    array items, is written as one array, a chunk per write, so a long
    document is never held whole; every other field goes through _to_json.
    """
    write = sys.stdout.write
    text = "{"
    for k, (key, value) in enumerate({"schema_version": SCHEMA_VERSION, **fields}.items()):
        text += ("," if k else "") + json.dumps(key) + ":"
        if isinstance(value, Iterator):
            write(text + "[")
            for c, chunk in enumerate(value):
                if c:
                    write(",")
                write(chunk)
            text = "]"
        else:
            text += _to_json(value)
    write(text + "}\n")
    return 0


def _read_input(ns, what: str, ways: str, positional: bool):
    """The one input: positional components if `positional`, or --stdin or --input JSON."""
    given = [bool(ns.components), ns.stdin, ns.input is not None]
    if sum(given) != 1 or (ns.components and not positional):
        raise UsageError(f"provide the {what} exactly one way: {ways}")
    if ns.components:
        return ns.components
    if ns.stdin:
        text = sys.stdin.read()
    else:
        try:
            text = Path(ns.input).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read --input file: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, an int past the digit limit, or nested too deep
        raise UsageError(f"invalid JSON input: {exc}") from exc


def _as_number_list(payload, count: int, what: str) -> list[float]:
    if not isinstance(payload, list) or len(payload) != count:
        raise UsageError(f"{what} must be a JSON array of {count} numbers")
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in payload):
        raise UsageError(f"{what} must contain only numbers")
    try:
        values = [float(v) for v in payload]
        if all(map(math.isfinite, values)):
            return values
    except OverflowError:  # a JSON integer beyond the double range
        pass
    raise UsageError(f"{what} components must be finite")


def _vector_arg(ns) -> np.ndarray:
    payload = _read_input(ns, "vector", "8 positional components, --stdin, or --input PATH", True)
    values = _as_number_list(payload, 8, "Bloch vector")
    # q2 is cubic in n, so a finite |n|^2 is not enough: a finite |n|^4 keeps
    # q1, q2 and rho far from overflow.  Python floats overflow without warnings.
    norm2 = sum(v * v for v in values)
    if not math.isfinite(norm2 * norm2):
        raise UsageError(f"vector too large: |n|^2 = {norm2:.17g}, and |n|^4 overflows")
    return np.array(values)


def _matrix_arg(ns) -> np.ndarray:
    payload = _read_input(ns, "matrix", "JSON via --stdin or --input PATH", False)
    if isinstance(payload, list) and len(payload) == 3 and all(type(r) is list for r in payload):
        payload = [entry for row in payload for entry in row]
    if not isinstance(payload, list) or len(payload) != 9:
        raise UsageError("matrix must be a row-major JSON array of 9 [re, im] pairs")
    flat = [complex(*_as_number_list(pair, 2, "matrix entry")) for pair in payload]
    return np.array(flat).reshape(3, 3)


def cmd_check(ns) -> int:
    n, safe = _checked(_vector_arg(ns))
    (q1, q2), below = _judged(n, safe, ns.tol)
    valid = bool(np.logical_and(*below))
    eigenvalues = _eigvalsh(_bloch_matrix(n))
    _emit(
        bloch=n,
        q1=q1,
        q2=q2,
        is_state=valid,
        is_pure=bool(_pure(n, safe, ns.tol)),
        eigenvalues=eigenvalues,
        entropy=_entropy(*_xlogx(eigenvalues)) if valid else None,
    )
    return 0 if valid else 2


def cmd_convert(ns) -> int:
    if ns.direction == "bloch-to-rho":
        return _emit(density=from_bloch(_vector_arg(ns), ns.tol))
    return _emit(bloch=to_bloch(_matrix_arg(ns), ns.tol))


def _grid_rows(grid, start: str, inside: str, outside: str):
    """Yield the lines of each grid row as one list, n8-major: start, the n3 and n8 strings and a tail, the
    %-template `inside` of (q1, q2, entropy) or `outside` of (q1, q2), formatted once per mirror pair of columns."""
    half, left = _mirror_columns(len(grid.n3))
    left = left.tolist()
    heads = [start + _fmt(v) + "," for v in grid.n3.tolist()]
    for v8, *values in zip(grid.n8.tolist(), grid.q1, grid.q2, grid.in_region, grid.entropy):
        n8 = _fmt(v8) + ","
        yes, no = n8 + inside, n8 + outside  # n8 holds no %
        points = zip(*(v[:half].tolist() for v in values))
        tails = [yes % (q1, q2, e) if flag else no % (q1, q2) for q1, q2, flag, e in points]
        yield [head + tails[j] for head, j in zip(heads, left)]


def cmd_triangle(ns) -> int:
    grid = entropy_grid(ns.resolution, ns.tol)
    if ns.format == "csv":
        rows = _grid_rows(grid, "", "%.17g,%.17g,true,%.17g\n", "%.17g,%.17g,false,\n")
        sys.stdout.write("n3,n8,q1,q2,in_region,entropy\n")
        sys.stdout.writelines(map("".join, rows))
        return 0
    rows = _grid_rows(grid, "[", "%.17g,%.17g,true,%.17g]", "%.17g,%.17g,false,null]")
    return _emit(
        resolution=ns.resolution,
        n3_range=N3_RANGE,
        n8_range=N8_RANGE,
        columns=["n3", "n8", "q1", "q2", "in_region", "entropy"],
        rows=map(",".join, rows),
    )


def _parse_levels(arg: str):
    """Yield the levels of --levels, lazily: _contours checks --resolution before it reads them."""
    tokens = [token.strip() for token in arg.split(",") if token.strip()]
    if not tokens:
        raise UsageError("--levels names no contour level")
    for token in tokens:
        try:
            yield float(token)
        except ValueError as exc:
            raise UsageError(f"cannot parse contour level {token!r}") from exc


def cmd_contour(ns) -> int:
    contours = _contours(_parse_levels(ns.levels), ns.tol, ns.resolution)
    levels = [{"level": level, "polylines": polylines} for level, polylines in contours]
    return _emit(resolution=ns.resolution, levels=levels)


def cmd_orbit(ns) -> int:
    n = _vector_arg(ns)
    samples = orbit_sample(n, ns.count, ns.seed, ns.tol)
    blocks = (  # a write per block that orbit_sample draws
        ",".join(_SAMPLE_ROW % tuple(r) for r in samples[k : k + _ORBIT_CHUNK].tolist())
        for k in range(0, len(samples), _ORBIT_CHUNK)
    )
    return _emit(seed=ns.seed, count=ns.count, bloch=n, samples=blocks)


def cmd_named_points(ns) -> int:
    points = [
        {"label": label, "n3": p.n3, "n8": p.n8, "bloch": bloch_from_diag(p), "density": rho}
        for label, (p, rho) in named_points().items()
    ]
    return _emit(points=points)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _add_tol(sub):
    sub.add_argument(
        "--tol", type=_finite_float, default=DEFAULT_TOL, help="state-predicate tolerance"
    )


def _add_vector_args(sub):
    sub.add_argument("components", nargs="*", type=float, help="Bloch vector components")
    sub.add_argument("--stdin", action="store_true", help="read JSON input from stdin")
    sub.add_argument("--input", metavar="PATH", help="read JSON input from a file")
    _add_tol(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qutrit-bloch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validity report for an 8-component Bloch vector")
    _add_vector_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="convert between Bloch vectors and density matrices")
    p.add_argument("direction", choices=["bloch-to-rho", "rho-to-bloch"])
    _add_vector_args(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("triangle", help="emit the (n3, n8) constraint/entropy grid")
    p.add_argument("--resolution", type=int, default=100, help="grid points per axis")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_tol(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("contour", help="emit equi-entropy polylines")
    p.add_argument("--levels", required=True, help="comma-separated entropy levels in (0, 1)")
    p.add_argument("--resolution", type=int, default=256, help="lattice points per triangle edge")
    p.add_argument(
        "--tol", type=_finite_float, default=DEFAULT_TOL, help="positive |E - level| target of every contour point"
    )
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("orbit", help="sample the unitary orbit of a state")
    _add_vector_args(p)
    p.add_argument("--count", type=int, default=100, help="number of samples")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="random seed")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("named-points", help="dump the labeled vertex/midpoint table")
    p.set_defaults(func=cmd_named_points)
    return parser


def main(argv=None) -> int:
    # Built per call, not cached: a process runs one command, and the
    # library keeps no module-level caches.
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except (UsageError, ValueError) as exc:  # ValueError: a library check, and its ValidationError exits 2
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code) if exc.code else 0


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # surface a closed pipe here, not at interpreter exit
    except BrokenPipeError:
        # The reader left early (`| head`): point stdout at devnull so the
        # flush at exit cannot fail again, as the Python docs recommend.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()

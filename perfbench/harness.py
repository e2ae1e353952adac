"""Loading the package, calling its CLI in-process, spans, and statistics.

The benchmark reaches the package only through the namespace `load_api`
returns.  Untraced, its attributes are the package's own functions.  Traced,
each public function of gellmann, bloch, density, adjoint, triangle and cli is
wrapped so that every call records a span under the operation that made it.
"""

from __future__ import annotations

import importlib
import inspect
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("gellmann", "bloch", "density", "adjoint", "triangle", "cli")


class CheckError(AssertionError):
    """An output of the package disagrees with the oracle or a required property."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def package_available() -> bool:
    return (SRC / "qutrit_bloch" / "__init__.py").is_file()


class Tracer:
    """In-memory spans: (op id, name, start ns, end ns).

    Operation roots are spans whose op id equals their own index; every call
    inside an operation carries the root's index as its op id.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, int, int]] = []
        self.op = -1
        self.serialize: list[tuple[int, int]] = []  # (ns outside the library call, floats)

    def begin(self, name: str) -> int:
        self.op = len(self.spans)
        self.spans.append((self.op, name, perf_counter_ns(), 0))
        return self.op

    def end(self, op: int) -> None:
        _, name, start, _ = self.spans[op]
        self.spans[op] = (op, name, start, perf_counter_ns())
        self.op = -1

    def record(self, name: str, start: int, end: int) -> None:
        self.spans.append((self.op, name, start, end))

    def wrap(self, name: str, fn):
        record = self.record

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, start, perf_counter_ns())

        return traced

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for _, n, start, end in self.spans if n == name]


def load_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """Import the package from src/ and expose its public functions per layer."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = SimpleNamespace(tracer=tracer)
    for layer in LAYERS:
        module = importlib.import_module(f"qutrit_bloch.{layer}")
        ns = SimpleNamespace()
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            setattr(ns, name, fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn))
        setattr(api, layer, ns)
    api.ValidationError = importlib.import_module("qutrit_bloch.bloch").ValidationError
    api.cli_main = importlib.import_module("qutrit_bloch.cli").main
    return api


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    seconds: float


def run_cli(api, label: str, argv: list[str], stdin: str = "") -> CliResult:
    """Run `qutrit-bloch argv` in-process with in-memory stdin/stdout/stderr.

    The timed interval is the call of main() alone: parsing, compute and
    serialization.  Traced, it is recorded as the span cli.<label>.
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        start = perf_counter_ns()
        code = api.cli_main(argv)
        end = perf_counter_ns()
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    if api.tracer is not None:
        api.tracer.record(f"cli.{label}", start, end)
    return CliResult(code, out, err, (end - start) / 1e9)


def median(values):
    s = sorted(values)
    k = len(s) // 2
    return s[k] if len(s) % 2 else 0.5 * (s[k - 1] + s[k])


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest value with q percent at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]

"""Benchmark of qutrit-bloch: one workload, measured in the library and the CLI.

    python3 perfbench/run.py --workload states --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from src/.
Set-up: fresh interpreters measure set-up time and peak memory.  Then whole
rounds of library and CLI operations run, one process and one thread, each
operation after the previous one ends, for --seconds seconds; every output is
checked against the oracle (perfbench/oracle.py) or a property the method
must have.  The last line of stdout is one JSON object with the counts of
operations attempted and failed and the metrics: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  A traced run also writes its
spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

from harness import ROOT, Tracer, load_api, median, package_available, percentile
from workloads import WORKLOADS, TriangleWorkload

HERE = Path(__file__).resolve().parent
SETUP_INTERPRETERS = 7  # fresh interpreters per run, after one discarded warm-up
MIN_LIB_OPS = 100  # so that at least ten operations lie beyond the 90th percentile
MAX_SECONDS = 120

END_TO_END = {
    "setup_s": "s",
    "lib_op_p50_s": "s",
    "lib_op_p90_s": "s",
    "lib_items_per_s": "1/s",
    "cli_op_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gellmann.import_s": "s",
    "bloch.state_constraints_us": "us",
    "bloch.is_mixed_state_us": "us",
    "bloch.is_pure_us": "us",
    "density.from_bloch_us": "us",
    "density.to_bloch_us": "us",
    "density.spectrum_us": "us",
    "density.eigvals_hermitian_3x3_us": "us",
    "density.entropy_of_mixing_us": "us",
    "density.char_poly_coeffs_us": "us",
    "density.mixing_entropy_us": "us",
    "adjoint.haar_random_su3_us": "us",
    "adjoint.adjoint_su3_us": "us",
    "adjoint.orbit_sample_us_per_sample": "us",
    "triangle.entropy_grid_ns_per_point": "ns",
    "triangle.contour_s_per_level": "s",
    "triangle.contour_vertices": "count",
    "cli.check_s": "s",
    "cli.convert_bloch_to_rho_s": "s",
    "cli.convert_rho_to_bloch_s": "s",
    "cli.orbit_s": "s",
    "cli.triangle_csv_s": "s",
    "cli.triangle_json_s": "s",
    "cli.serialize_ns_per_float": "ns",
    "cli.bytes_out": "bytes",
    "cli.build_parser_us": "us",
    "trace.lib_op_p50_s": "s",
}


class Run:
    """Counts, timings and the first check failure of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lib_s: list[float] = []
        self.cli_s: list[float] = []
        self.cli_bytes = 0
        self.cli_ops = 0
        self.error: str | None = None

    def fault(self, message: str) -> None:
        if self.error is None:
            self.error = message
            print(f"check failed: {message}", file=sys.stderr)


def fresh_interpreter(workload: str, seed: int, trace: bool, run: Run) -> dict:
    """Set-up time and peak memory from one fresh interpreter (perfbench/child.py)."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else [])
    cmd += [str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    if doc["error"]:
        run.fault(f"set-up interpreter: {doc['error']}")
    if trace:
        for line in proc.stderr.splitlines():
            if line.rstrip().endswith("qutrit_bloch.gellmann"):
                doc["gellmann_import_s"] = int(line.split("|")[1]) / 1e6
    return doc


def guarded(run: Run, check, *args) -> bool:
    """Run a check; a wrong or malformed output is recorded and the run goes on.

    Returns whether the operation failed in the counted sense (see workloads).
    """
    try:
        return bool(check(*args))
    except Exception as exc:
        run.fault(f"{type(exc).__name__}: {exc}")
        return False


def lib_round(wl, run: Run, tracer, count: bool) -> None:
    for i in wl.lib_round:
        op = tracer.begin(f"op.{wl.name}.lib") if tracer else None
        start = time.perf_counter()
        result = wl.lib_op(i)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end(op)
        failed = guarded(run, wl.check_lib, i, result)
        if count:
            run.attempted += 1
            run.failed += failed
            if not failed:
                run.lib_s.append(seconds)


def cli_round(wl, run: Run, tracer, count: bool) -> None:
    for i in wl.cli_round:
        op = tracer.begin(f"op.{wl.name}.cli") if tracer else None
        result, seconds, nbytes = wl.cli_op(i)
        if tracer:
            tracer.end(op)
        failed = guarded(run, wl.check_cli, i, result)
        if count:
            run.attempted += 1
            run.failed += failed
            run.cli_ops += 1
            run.cli_bytes += nbytes
            if not failed:
                run.cli_s.append(seconds)


def measure(wl, seconds: int, tracer, run: Run, setup) -> list[dict]:
    """One warm-up round, then whole rounds until the time is up.

    The set-up interpreters run one at a time at evenly spaced points of the
    run, so that their median samples the same machine conditions as the
    operations; the time they take is not counted in the run's length.
    """
    lib_round(wl, run, tracer, count=False)
    cli_round(wl, run, tracer, count=False)
    setup()  # warm-up: the first interpreter after the package's files changed compiles them
    if tracer:
        tracer.spans.clear()
    children: list[dict] = []
    busy = 0.0
    while True:
        if len(children) < SETUP_INTERPRETERS and busy >= len(children) * seconds / SETUP_INTERPRETERS:
            children.append(setup())
        start = time.perf_counter()
        lib_round(wl, run, tracer, count=True)
        cli_round(wl, run, tracer, count=True)
        busy += time.perf_counter() - start
        if busy >= MAX_SECONDS or (
            busy >= seconds and len(run.lib_s) >= MIN_LIB_OPS and len(children) == SETUP_INTERPRETERS
        ):
            return children


def probe_layers(own, seed: int, api, run: Run) -> TriangleWorkload:
    """Traced only: reach every layer, so that every per-layer metric exists.

    Runs a few operations of the other workloads and each workload's direct
    calls of functions its operations reach only inside the package.  These
    operations are checked but not counted.
    """
    tracer = api.tracer
    triangle = None
    for cls in WORKLOADS.values():
        wl = own if isinstance(own, cls) else cls(seed)
        if wl is not own:
            wl.attach(api)
            for i in wl.lib_round[: wl.probe_ops]:
                op = tracer.begin(f"probe.{wl.name}.lib")
                result = wl.lib_op(i)
                tracer.end(op)
                guarded(run, wl.check_lib, i, result)
            for i in wl.cli_round[: wl.probe_ops]:
                op = tracer.begin(f"probe.{wl.name}.cli")
                result, _, _ = wl.cli_op(i)
                tracer.end(op)
                guarded(run, wl.check_cli, i, result)
        op = tracer.begin(f"probe.{wl.name}.calls")
        guarded(run, wl.probe)
        tracer.end(op)
        if isinstance(wl, TriangleWorkload):
            triangle = wl
    op = tracer.begin("probe.cli.build_parser")
    for _ in range(16):
        api.cli.build_parser()
    tracer.end(op)
    return triangle


def layer_metrics(tracer: Tracer, triangle: TriangleWorkload, children, run: Run) -> dict:
    def med(name, scale=1e-3):
        values = tracer.durations_ns(name)
        if not values:
            raise RuntimeError(f"no span named {name}")
        return median(values) * scale

    values = {"gellmann.import_s": median([c["gellmann_import_s"] for c in children])}
    for name in PER_LAYER:
        if name.endswith("_us") and not name.startswith("cli."):
            values[name] = med(name[:-3])
    values["cli.build_parser_us"] = med("cli.build_parser")
    values["adjoint.orbit_sample_us_per_sample"] = med("adjoint.orbit_sample") / WORKLOADS["orbit"].COUNT
    values["triangle.entropy_grid_ns_per_point"] = med("triangle.entropy_grid", 1.0) / triangle.R**2
    values["triangle.contour_s_per_level"] = med("triangle.equi_entropy_contour", 1e-9)
    values["triangle.contour_vertices"] = triangle.vertices
    for label in ("check", "convert_bloch_to_rho", "convert_rho_to_bloch", "orbit", "triangle_csv", "triangle_json"):
        values[f"cli.{label}_s"] = med(f"cli.{label}", 1e-9)
    outside_ns = sum(ns for ns, _ in tracer.serialize)
    values["cli.serialize_ns_per_float"] = outside_ns / sum(n for _, n in tracer.serialize)
    values["cli.bytes_out"] = run.cli_bytes / run.cli_ops
    values["trace.lib_op_p50_s"] = median(run.lib_s)
    return values


def write_trace(tracer: Tracer, workload: str, seed: int, metrics: dict) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "metrics": metrics, "spans": tracer.spans}
    (out / f"trace-{workload}-{seed}.json").write_text(json.dumps(doc))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()
    if not package_available():
        print(f"error: no package source at {ROOT / 'src' / 'qutrit_bloch'}", file=sys.stderr)
        return 2

    run = Run()
    tracer = Tracer() if ns.trace else None
    api = load_api(tracer)
    wl = WORKLOADS[ns.workload](ns.seed)
    wl.attach(api)
    children = measure(wl, ns.seconds, tracer, run, lambda: fresh_interpreter(ns.workload, ns.seed, bool(ns.trace), run))

    if ns.trace:
        triangle = probe_layers(wl, ns.seed, api, run)
        values = layer_metrics(tracer, triangle, children, run)
        units = PER_LAYER
        write_trace(tracer, ns.workload, ns.seed, values)
    else:
        values = {
            "setup_s": median([c["setup_s"] for c in children]),
            "lib_op_p50_s": median(run.lib_s),
            "lib_op_p90_s": percentile(run.lib_s, 90),
            "lib_items_per_s": wl.items_per_lib_op * len(run.lib_s) / math.fsum(run.lib_s),
            "cli_op_p50_s": median(run.cli_s),
            "peak_rss_mb": median([c["rss_mb"] for c in children]),
        }
        units = END_TO_END
    print(
        f"{ns.workload}: {len(run.lib_s)} library and {len(run.cli_s)} CLI operations measured",
        file=sys.stderr,
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": run.error is None, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

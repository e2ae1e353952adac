"""One fresh interpreter: set-up time and peak resident set of a workload.

numpy is imported before the clock starts, since it is a floor the package
does not control.  setup_s runs from the start of `import qutrit_bloch` to
the end of a first call into every layer the workload uses.  Then one
library operation and one CLI operation run, both checked, and the peak
resident set of the process is read before the checks.

    python3 perfbench/child.py --workload states --seed 1

Prints one JSON line.  Run with `python3 -X importtime` to also report the
import time of the gellmann module.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy  # noqa: F401  (the floor, kept out of the timed interval)

from harness import load_api
from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    VmHWM belongs to the memory map that exec created.  ru_maxrss is only the
    fallback: on Linux it also keeps the peak of the parent image the process
    was forked from, which would report the benchmark's own size.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    ns = parser.parse_args()
    wl = WORKLOADS[ns.workload](ns.seed)

    start = time.perf_counter()
    wl.attach(load_api())
    wl.first_touch()
    setup_s = time.perf_counter() - start

    i = wl.lib_round[0]
    lib = wl.lib_op(i)
    j = wl.cli_round[0]
    cli, _, _ = wl.cli_op(j)
    rss_mb = peak_rss_mb()
    try:
        wl.check_lib(i, lib)
        wl.check_cli(j, cli)
        error = None
    except Exception as exc:  # reported to the parent as a wrong output
        error = f"{type(exc).__name__}: {exc}"
    sys.stderr.flush()
    print(json.dumps({"setup_s": setup_s, "rss_mb": rss_mb, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

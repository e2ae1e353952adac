#!/usr/bin/env python3
"""Map the entropy-of-mixing landscape over the diagonal-state triangle.

Runs `qutrit-bloch triangle` and `qutrit-bloch contour` in process and writes
their output as the constraint/entropy grid CSV and the equi-entropy contour
JSON, so both files are what the CLI prints for the same options; the CLI
also validates --levels and --tol.  Then prints summary statistics: the
entropy extrema and the in-region fraction of the bounding box, and, read
back from the contour document, the points per level and the residual of the
n3 -> -n3 mirror symmetry on them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

import numpy as np

from qutrit_bloch.bloch import DEFAULT_TOL
from qutrit_bloch.cli import main as cli_main
from qutrit_bloch.triangle import diag_entropy, entropy_grid


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, default=301)
    parser.add_argument("--contour-resolution", type=int, default=256)
    parser.add_argument(
        "--levels", default="0.1,0.25,0.4,0.55,0.7,0.85,0.95,0.99", help="comma-separated entropy levels in (0, 1)"
    )
    parser.add_argument("--tol", default=repr(DEFAULT_TOL))
    parser.add_argument("--outdir", type=Path, default=Path("entropy_landscape_out"))
    return parser.parse_args()


def run_cli(argv: list[str], path: Path) -> str:
    """Write the stdout of `qutrit-bloch argv` to path and return it; exit with
    the CLI's code, its error already on stderr, when it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code:
        raise SystemExit(code)
    path.write_text(out.getvalue())
    return out.getvalue()


def main() -> None:
    cfg = parse_args()
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    grid_path, contour_path = cfg.outdir / "triangle_grid.csv", cfg.outdir / "contours.json"

    run_cli(["triangle", "--resolution", str(cfg.resolution), "--tol", cfg.tol], grid_path)
    grid = entropy_grid(cfg.resolution, float(cfg.tol))
    inside = grid.in_region
    ent = np.where(inside, grid.entropy, -np.inf)
    iy, ix = np.unravel_index(np.argmax(ent), ent.shape)
    print(f"grid {cfg.resolution}x{cfg.resolution}: in-region fraction {inside.mean():.4f}")
    print(
        f"entropy max {ent[iy, ix]:.12f} at (n3, n8) = "
        f"({grid.n3[ix]:+.6f}, {grid.n8[iy]:+.6f})"
    )
    zero_count = int(np.sum(inside & (np.abs(grid.entropy) <= 1e-12)))
    print(f"zero-entropy grid nodes (pure vertices on the grid): {zero_count}")

    argv = ["contour", "--levels", cfg.levels, "--resolution", str(cfg.contour_resolution)]
    document = json.loads(run_cli([*argv, "--tol", cfg.tol], contour_path))
    mirror_residual = 0.0
    for entry in document["levels"]:
        level, polylines = entry["level"], entry["polylines"]
        n3, n8 = np.array([p for line in polylines for p in line]).T
        mirror_residual = max(mirror_residual, np.abs(diag_entropy((-n3, n8)) - level).max())
        print(f"level {level:5.3f}: {len(polylines):3d} polyline(s), {n3.size:5d} points")
    print(f"mirror-symmetry residual over contour points: {mirror_residual:.3e}")
    print(f"wrote {grid_path} and {contour_path}")


if __name__ == "__main__":
    main()

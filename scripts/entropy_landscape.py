#!/usr/bin/env python3
"""Map the entropy-of-mixing landscape over the diagonal-state triangle.

Writes the constraint/entropy grid as CSV and equi-entropy contour polylines
as JSON, byte for byte what `qutrit-bloch triangle` and `qutrit-bloch contour`
print for the same options, then prints summary statistics: the entropy
extrema, the in-region fraction of the bounding box, and the residual of the
n3 -> -n3 mirror symmetry checked on the extracted contours.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qutrit_bloch.bloch import DEFAULT_TOL
from qutrit_bloch.cli import _contour_document, _finite_float, _grid_csv, _to_json
from qutrit_bloch.triangle import _lattice_contour, _lattice_entropy, diag_entropy, entropy_grid


@dataclass(frozen=True)
class Config:
    resolution: int = 301
    contour_resolution: int = 256
    levels: tuple[float, ...] = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 0.99)
    tol: float = DEFAULT_TOL
    outdir: Path = Path("entropy_landscape_out")


def parse_args() -> Config:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, default=Config.resolution)
    parser.add_argument("--contour-resolution", type=int, default=Config.contour_resolution)
    parser.add_argument(
        "--levels",
        default=",".join(str(v) for v in Config.levels),
        help="comma-separated entropy levels in (0, 1)",
    )
    parser.add_argument("--tol", type=_finite_float, default=Config.tol)
    parser.add_argument("--outdir", type=Path, default=Config.outdir)
    ns = parser.parse_args()
    levels = tuple(float(t) for t in ns.levels.split(",") if t.strip())
    return Config(ns.resolution, ns.contour_resolution, levels, ns.tol, ns.outdir)


def main() -> None:
    cfg = parse_args()
    cfg.outdir.mkdir(parents=True, exist_ok=True)

    grid = entropy_grid(cfg.resolution, cfg.tol)
    (cfg.outdir / "triangle_grid.csv").write_text(_grid_csv(grid) + "\n")
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

    contour_entropy = _lattice_entropy(cfg.contour_resolution)
    contours = []
    mirror_residual = 0.0
    for level in cfg.levels:
        polylines = _lattice_contour(contour_entropy, level, cfg.tol)
        points = sum(len(line) for line in polylines)
        for line in polylines:
            for p in line:
                mirror_residual = max(
                    mirror_residual, abs(diag_entropy((-p.n3, p.n8)) - level)
                )
        contours.append((level, polylines))
        print(f"level {level:5.3f}: {len(polylines):3d} polyline(s), {points:5d} points")
    print(f"mirror-symmetry residual over contour points: {mirror_residual:.3e}")

    document = _contour_document(cfg.contour_resolution, contours)
    (cfg.outdir / "contours.json").write_text(_to_json(document) + "\n")
    print(f"wrote {cfg.outdir / 'triangle_grid.csv'} and {cfg.outdir / 'contours.json'}")


if __name__ == "__main__":
    main()

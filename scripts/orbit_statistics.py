#!/usr/bin/env python3
"""Exercise the adjoint action on the named triangle states.

For each labeled state, samples its unitary orbit and reports how well the
orbit preserves what it must preserve: the spectrum, the entropy of mixing,
purity (for the vertices), and the vector norm, each from one batched call
over the samples.  Also estimates the Haar moment <|U_11|^2>, which should
approach 1/3.
"""

from __future__ import annotations

import argparse

import numpy as np

from qutrit_bloch.adjoint import haar_random_su3, orbit_sample
from qutrit_bloch.bloch import is_pure
from qutrit_bloch.density import entropy_of_mixing, from_bloch, spectrum
from qutrit_bloch.triangle import bloch_from_diag, named_points


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main() -> None:
    cfg = parse_args()
    print(f"orbit samples per state: {cfg.count}, seed {cfg.seed}")
    print(f"{'label':6s} {'entropy':>10s} {'eig dev':>10s} {'ent dev':>10s} {'|n| dev':>10s} {'pure':>6s}")
    for label, (point, rho) in named_points().items():
        n = bloch_from_diag(point)
        xs0 = spectrum(rho)
        e0 = entropy_of_mixing(rho)
        norm0 = float(np.linalg.norm(n))
        samples = orbit_sample(n, cfg.count, cfg.seed)
        rhos = from_bloch(samples)
        spec_dev = float(np.max(np.abs(spectrum(rhos) - xs0)))
        ent_dev = float(np.max(np.abs(entropy_of_mixing(rhos) - e0)))
        norm_dev = float(np.max(np.abs(np.linalg.norm(samples, axis=-1) - norm0)))
        pure_count = int(np.count_nonzero(is_pure(samples)))
        print(
            f"{label:6s} {e0:10.6f} {spec_dev:10.2e} {ent_dev:10.2e} {norm_dev:10.2e} "
            f"{pure_count:4d}/{cfg.count}"
        )

    rng_seeds = range(cfg.seed, cfg.seed + cfg.count)
    moment = float(np.mean([abs(haar_random_su3(s)[0, 0]) ** 2 for s in rng_seeds]))
    print(f"Haar moment <|U_11|^2> over {cfg.count} samples: {moment:.4f} (expected 1/3)")


if __name__ == "__main__":
    main()

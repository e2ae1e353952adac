"""The three workloads: inputs made from the seed, operations, and output checks.

A workload runs in rounds.  A round is a fixed list of library operations and
a fixed list of CLI operations over the workload's seeded inputs; every run
attempts whole rounds, so the share of failed operations is the same in
every run.  Inputs are made with numpy and the oracle alone; the package
sees only the generated numbers.

Each check either passes, reports the operation as failed (the known gap
between two validity tolerances, see StatesWorkload), or raises CheckError.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

import numpy as np

import oracle
from harness import CheckError, require, run_cli

TOL = 1e-9  # the package's default state tolerance, passed explicitly


def same_bits(a, b) -> bool:
    """Equal as IEEE doubles, bit for bit (so -0.0 differs from 0.0)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def close(a, b, tol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def parse_doc(result, what: str) -> dict:
    try:
        doc = json.loads(result.out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{what}: stdout is not one JSON document: {exc}") from exc
    require(doc.get("schema_version") == "1", f"{what}: schema_version is {doc.get('schema_version')!r}")
    return doc


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, tag]))


class Workload:
    """Inputs, one library operation, one CLI operation, and their checks."""

    name = ""
    items_per_lib_op = 1
    probe_ops = 1  # operations run as layer probes when another workload is traced

    def attach(self, api) -> None:
        self.api = api

    def first_touch(self) -> None:
        """One first call, on a small input, into every layer the workload uses."""
        raise NotImplementedError

    def probe(self) -> None:
        """Traced direct calls of public functions the operations reach only inside the package."""


class StatesWorkload(Workload):
    """The scalar per-state API on a seeded mix of Haar-rotated density matrices.

    Two inputs of every round are fixed and do not depend on the seed: states
    rho = U diag((1+d)/2, (1+d)/2, -d) U^dag with d in (1e-10, 1.4e-10].  Their
    vectors pass is_mixed_state, from_bloch and `check`, which allow a slack
    of 1e-9 on (q1, q2), but fail to_bloch, spectrum, entropy_of_mixing and
    char_poly_coeffs, which allow a slack of 1e-10 on the smallest
    eigenvalue.  Each operation on them counts as failed while the gates
    disagree; it passes once every gate accepts and the round trip holds, or
    once every gate rejects.
    """

    name = "states"
    probe_ops = 8
    MIX = (("interior", 10), ("degenerate", 6), ("rank2", 6), ("pure", 4), ("diagonal", 3), ("maximally_mixed", 1))
    GAP = ((1.4e-10, None), (1.2e-10, 20051111))  # (d, seed of U or None for U = I)
    GAP_POSITIONS = (15, 31)

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        made = []
        for kind, count in self.MIX:
            for _ in range(count):
                made.append((kind, self._spectrum(kind, rng)))
        order = rng.permutation(len(made))
        states = []
        for k in order:
            kind, x = made[k]
            u = np.eye(3) if kind in ("diagonal", "maximally_mixed") else oracle.haar_from_rng(rng, 1)[0]
            if kind == "diagonal":
                x = x[rng.permutation(3)]
            states.append((kind, u, x))
        for pos, (d, useed) in zip(self.GAP_POSITIONS, self.GAP):
            u = np.eye(3) if useed is None else oracle.haar_from_rng(np.random.default_rng(useed), 1)[0]
            states.insert(pos, ("gap", u, np.array([(1 + d) / 2, (1 + d) / 2, -d])))
        self.kinds = [kind for kind, _, _ in states]
        self.vectors = [
            np.zeros(8) if kind == "maximally_mixed" else oracle.bloch_from_rho(u @ np.diag(x) @ u.conj().T)
            for kind, u, x in states
        ]
        self.rho = [oracle.rho_from_bloch(n) for n in self.vectors]
        self.spec = [oracle.spectrum(r) for r in self.rho]
        self.q = [oracle.constraints(r) for r in self.rho]
        self.cp = [oracle.char_poly(r) for r in self.rho]
        self.stdin_vector = [json.dumps([float(v) for v in n]) for n in self.vectors]
        self.stdin_rho = [json.dumps([[float(z.real), float(z.imag)] for z in r.ravel()]) for r in self.rho]
        self.lib_round = list(range(len(states)))
        self.cli_round = list(range(len(states)))
        self.ref: dict[int, list] = {}

    @staticmethod
    def _spectrum(kind: str, rng: np.random.Generator) -> np.ndarray:
        if kind in ("interior", "diagonal"):
            while True:
                x = np.sort(rng.dirichlet((2.0, 2.0, 2.0)))[::-1]
                if x[2] >= 0.03 and min(x[0] - x[1], x[1] - x[2]) >= 0.03:
                    return x
        if kind == "degenerate":
            a = rng.uniform(0.05, 0.30) if rng.random() < 0.5 else rng.uniform(0.37, 0.49)
            return np.sort(np.array([a, a, 1.0 - 2.0 * a]))[::-1]
        if kind == "rank2":
            p = rng.uniform(0.55, 0.95)
            return np.array([p, 1.0 - p, 0.0])
        if kind == "pure":
            return np.array([1.0, 0.0, 0.0])
        return np.full(3, 1.0 / 3.0)

    def first_touch(self) -> None:
        i = self.kinds.index("maximally_mixed")
        self.lib_op(i)
        self.cli_op(i)

    def lib_op(self, i: int) -> list:
        n = self.vectors[i]
        bloch, density, invalid = self.api.bloch, self.api.density, self.api.ValidationError
        out = [bloch.is_mixed_state(n, TOL), bloch.is_pure(n, TOL), bloch.state_constraints(n)]
        try:
            rho = density.from_bloch(n, TOL)
        except invalid as exc:
            out.append(exc)
            rho = self.rho[i]  # the remaining gates judge the state's own matrix
        else:
            out.append(rho)
        for fn in (density.to_bloch, density.spectrum, density.entropy_of_mixing, density.char_poly_coeffs):
            try:
                out.append(fn(rho))
            except invalid as exc:
                out.append(exc)
        return out

    def _gates(self, i: int, accepted: list[bool], what: str) -> bool | None:
        """None when every gate accepts; else whether the operation failed."""
        if all(accepted):
            return None
        gap = self.kinds[i] == "gap"
        if not any(accepted):
            require(gap, f"{what}: every gate rejects the valid {self.kinds[i]} state {i}")
            return False
        require(gap, f"{what}: gates disagree on the valid {self.kinds[i]} state {i}: {accepted}")
        return True

    def check_lib(self, i: int, r: list) -> bool:
        mixed, pure, q, rho, back, spec, ent, cp = r
        invalid = self.api.ValidationError
        verdict = self._gates(i, [bool(mixed)] + [not isinstance(v, invalid) for v in r[3:]], "library")
        if verdict is not None:
            return verdict
        require(close(q, self.q[i], 1e-12), f"state {i}: (q1, q2) = {q}, oracle {self.q[i]}")
        require(bool(pure) == (self.kinds[i] == "pure"), f"state {i} ({self.kinds[i]}): is_pure = {pure}")
        require(np.max(np.abs(rho - self.rho[i])) <= 1e-14, f"state {i}: from_bloch differs from the oracle")
        require(close(back, self.vectors[i], 1e-13), f"state {i}: to_bloch(from_bloch(n)) != n")
        require(close(spec, self.spec[i], 1e-12), f"state {i}: spectrum {spec}, oracle {self.spec[i]}")
        want = oracle.entropy(self.spec[i])
        require(close(ent, want, 1e-12), f"state {i}: entropy {ent!r}, oracle {want!r}")
        require(close(cp, self.cp[i], 1e-12), f"state {i}: char_poly_coeffs {cp}, oracle {self.cp[i]}")
        self.ref[i] = r
        return False

    def cli_op(self, i: int):
        api = self.api
        check = run_cli(api, "check", ["check", "--stdin"], self.stdin_vector[i])
        to_rho = run_cli(api, "convert_bloch_to_rho", ["convert", "bloch-to-rho", "--stdin"], self.stdin_vector[i])
        if to_rho.code == 0:
            rho_doc = json.dumps(json.loads(to_rho.out)["density"])
        else:
            rho_doc = self.stdin_rho[i]  # the remaining gate judges the state's own matrix
        to_n = run_cli(api, "convert_rho_to_bloch", ["convert", "rho-to-bloch", "--stdin"], rho_doc)
        calls = (check, to_rho, to_n)
        return calls, sum(c.seconds for c in calls), sum(len(c.out) for c in calls)

    def check_cli(self, i: int, calls) -> bool:
        check, to_rho, to_n = calls
        cdoc = parse_doc(check, "check")
        require(check.code == (0 if cdoc["is_state"] else 2), f"check exit {check.code} with is_state {cdoc['is_state']}")
        accepted = [check.code == 0, to_rho.code == 0, to_n.code == 0]
        for c in calls:
            require(c.code in (0, 2), f"state {i}: CLI exit code {c.code}: {c.err.strip()}")
            require(c.err == "" if c.code == 0 else c.err.count("\n") <= 1, f"state {i}: stderr {c.err!r}")
        verdict = self._gates(i, accepted, "CLI")
        if verdict is not None:
            return verdict
        lib = self.ref.get(i)
        require(lib is not None, f"the CLI accepts state {i}, which the library gates do not all accept")
        require(same_bits(cdoc["bloch"], self.vectors[i]), f"check of state {i}: bloch does not echo the input")
        require(same_bits([cdoc["q1"], cdoc["q2"]], lib[2]), f"check of state {i}: q1, q2 differ from the library")
        require(cdoc["is_pure"] == lib[1], f"check of state {i}: is_pure differs from the library")
        require(same_bits(cdoc["eigenvalues"], lib[5]), f"check of state {i}: eigenvalues differ from the library")
        require(same_bits(cdoc["entropy"], lib[6]), f"check of state {i}: entropy differs from the library")
        pairs = np.array(parse_doc(to_rho, "bloch-to-rho")["density"], dtype=float)
        require(
            same_bits(pairs[:, 0], lib[3].real.ravel()) and same_bits(pairs[:, 1], lib[3].imag.ravel()),
            f"bloch-to-rho of state {i} differs from from_bloch",
        )
        require(same_bits(parse_doc(to_n, "rho-to-bloch")["bloch"], lib[4]), f"rho-to-bloch of state {i} differs from to_bloch")
        return False

    def probe(self) -> None:
        eigs = [self.api.density.eigvals_hermitian_3x3(rho) for rho in self.rho]
        for i, eig in enumerate(eigs):
            require(close(eig, self.spec[i], 1e-12), f"eigvals_hermitian_3x3 of state {i}: {eig}, oracle {self.spec[i]}")


class OrbitWorkload(Workload):
    """Batch orbit sampling: orbit_sample(n, COUNT, seed) and `orbit --count COUNT --seed S`."""

    name = "orbit"
    COUNT = 64
    items_per_lib_op = COUNT
    probe_ops = 2
    KINDS = ("pure", "rank2", "interior", "degenerate")

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        self.vectors, self.seeds, self.spec = [], [], []
        for kind in self.KINDS * 2:
            x = StatesWorkload._spectrum(kind, rng)
            u = oracle.haar_from_rng(rng, 1)[0]
            n = oracle.bloch_from_rho(u @ np.diag(x) @ u.conj().T)
            self.vectors.append(n)
            self.seeds.append(int(rng.integers(0, 2**31 - 1)))
            self.spec.append(oracle.spectrum(oracle.rho_from_bloch(n)))
        self.expected = [oracle.orbit(n, self.COUNT, s) for n, s in zip(self.vectors, self.seeds)]
        self.stdin_vector = [json.dumps([float(v) for v in n]) for n in self.vectors]
        self.lib_round = list(range(len(self.vectors)))
        self.cli_round = list(range(len(self.vectors)))
        self.ref: dict[int, np.ndarray] = {}
        self.first_bytes: dict[int, str] = {}

    def _argv(self, i: int, count: int) -> list[str]:
        return ["orbit", "--stdin", "--count", str(count), "--seed", str(self.seeds[i])]

    def first_touch(self) -> None:
        self.api.adjoint.orbit_sample(self.vectors[0], 1, self.seeds[0], TOL)
        run_cli(self.api, "orbit", self._argv(0, 1), self.stdin_vector[0])

    def lib_op(self, i: int) -> np.ndarray:
        return self.api.adjoint.orbit_sample(self.vectors[i], self.COUNT, self.seeds[i], TOL)

    def check_samples(self, i: int, out) -> None:
        require(np.shape(out) == (self.COUNT, 8), f"orbit {i}: shape {np.shape(out)}")
        dev = float(np.max(np.abs(out - self.expected[i])))
        require(dev <= 1e-12, f"orbit {i}: samples differ from the oracle draw by {dev:.3e}")
        spec = oracle.spectrum(oracle.rho_from_bloch(out))
        require(close(spec, np.broadcast_to(self.spec[i], spec.shape), 1e-12), f"orbit {i}: a sample changes the spectrum")
        norms = np.linalg.norm(out, axis=1)
        require(close(norms, np.full(self.COUNT, np.linalg.norm(self.vectors[i])), 1e-12), f"orbit {i}: a sample changes |n|")

    def check_lib(self, i: int, out) -> bool:
        self.ref[i] = out
        self.check_samples(i, out)
        return False

    def cli_op(self, i: int):
        r = run_cli(self.api, "orbit", self._argv(i, self.COUNT), self.stdin_vector[i])
        return r, r.seconds, len(r.out)

    def check_cli(self, i: int, r) -> bool:
        require(r.code == 0 and r.err == "", f"orbit {i}: exit {r.code}: {r.err.strip()}")
        first = self.first_bytes.setdefault(i, r.out)
        require(r.out == first, f"orbit {i}: two identical CLI calls gave different bytes")
        doc = parse_doc(r, "orbit")
        require(doc["seed"] == self.seeds[i] and doc["count"] == self.COUNT, f"orbit {i}: seed/count not echoed")
        require(same_bits(doc["bloch"], self.vectors[i]), f"orbit {i}: bloch does not echo the input")
        require(same_bits(doc["samples"], self.ref[i]), f"orbit {i}: CLI samples differ from orbit_sample")
        return False

    def probe(self) -> None:
        adjoint = self.api.adjoint
        unitaries = [adjoint.haar_random_su3(s) for s in self.seeds * 2]
        adjoints = [adjoint.adjoint_su3(u) for u in unitaries]
        pairs = []
        for i in self.lib_round[: self.probe_ops]:
            r = run_cli(self.api, "orbit", self._argv(i, self.COUNT), self.stdin_vector[i])
            start = perf_counter_ns()
            out = adjoint.orbit_sample(self.vectors[i], self.COUNT, self.seeds[i], TOL)
            self.api.tracer.serialize.append((int(r.seconds * 1e9) - (perf_counter_ns() - start), 8 * (self.COUNT + 1)))
            pairs.append((i, r, out))
        for s, u, ad in zip(self.seeds * 2, unitaries, adjoints):
            require(oracle.same_up_to_center(u, oracle.haar_su3(s, 1)[0], 1e-13), f"haar_random_su3({s}) differs from the oracle")
            require(np.max(np.abs(ad - oracle.adjoint(u))) <= 1e-13, f"adjoint_su3 differs from the oracle (seed {s})")
        for i, r, out in pairs:
            self.check_samples(i, out)
            require(r.out == self.first_bytes.get(i, r.out), f"orbit {i}: CLI bytes changed")


class TriangleWorkload(Workload):
    """Figure data: entropy_grid(R) plus equi-entropy contours at seeded levels.

    The two levels are drawn from narrow bands, so every seed's composite
    costs the same: contour cost follows the vertex count, which at
    resolution 256 is 22 at level 0.1 and 294 at level 0.5.  No grid value of
    the entropy at R = 64 lies inside either band, so every level of a band
    crosses the same grid edges and the vertex count is the same for every
    seed.
    """

    name = "triangle"
    R = 64
    BANDS = ((0.326, 0.334), (0.433, 0.439))
    EDGE_MARGIN = 2e-5  # barycentric distance within which a point may take either class
    probe_ops = 1

    def __init__(self, seed: int):
        rng = _rng(seed, 3)
        self.levels = [float(rng.uniform(lo, hi)) for lo, hi in self.BANDS]
        self.n3 = np.linspace(-oracle.SQRT3 / 2, oracle.SQRT3 / 2, self.R)
        self.n8 = np.linspace(-1.0, 0.5, self.R)
        x, y = np.meshgrid(self.n3, self.n8)
        w = oracle.barycentric(x, y)
        self.q1, self.q2 = oracle.triangle_constraints(w)
        wmin = w.min(axis=-1)
        self.inside = wmin >= self.EDGE_MARGIN
        self.outside = wmin <= -self.EDGE_MARGIN
        self.entropy = oracle.entropy(w)
        self.lib_round = [0, 0]  # the same composite twice per CLI operation
        self.cli_round = [0]
        self.ref = None
        self.vertices = 0
        self.first_bytes: dict[str, str] = {}

    def _argv(self, fmt: str, resolution: int) -> list[str]:
        return ["triangle", "--resolution", str(resolution), "--format", fmt]

    def first_touch(self) -> None:
        self.api.triangle.entropy_grid(8, TOL)
        self.api.triangle.equi_entropy_contour(0.5, TOL, 8)
        for fmt in ("csv", "json"):
            run_cli(self.api, f"triangle_{fmt}", self._argv(fmt, 8))

    def lib_op(self, i: int):
        triangle = self.api.triangle
        grid = triangle.entropy_grid(self.R, TOL)
        return grid, [triangle.equi_entropy_contour(level, TOL, self.R) for level in self.levels]

    def check_grid(self, g) -> None:
        require(close(g.n3, self.n3, 1e-15) and close(g.n8, self.n8, 1e-15), "grid axes differ from linspace")
        require(close(g.q1, self.q1, 1e-12) and close(g.q2, self.q2, 1e-12), "grid q1/q2 differ from the oracle")
        require(not np.any(self.inside & ~g.in_region), "in_region misses a point inside the triangle")
        require(not np.any(self.outside & g.in_region), "in_region admits a point outside the triangle")
        require(np.all(np.isnan(g.entropy[~g.in_region])), "entropy is defined at an out-of-region point")
        both = self.inside & g.in_region
        require(close(g.entropy[both], self.entropy[both], 1e-12), "grid entropy differs from the oracle")

    def check_contours(self, contours) -> int:
        vertices = 0
        for level, lines in zip(self.levels, contours):
            require(len(lines) > 0, f"contour {level}: no polylines")
            for line in lines:
                pts = np.array([tuple(p) for p in line], dtype=float)
                require(pts.shape[0] >= 2 and pts.shape[1:] == (2,), f"contour {level}: a polyline of {pts.shape[0]} points")
                w = oracle.barycentric(pts[:, 0], pts[:, 1])
                require(np.all(w >= -1e-12), f"contour {level}: a vertex lies outside the triangle")
                dev = float(np.max(np.abs(oracle.entropy(w) - level)))
                require(dev <= TOL + 1e-12, f"contour {level}: a vertex has |E - level| = {dev:.3e}")
                vertices += pts.shape[0]
        return vertices

    def check_lib(self, i: int, r) -> bool:
        self.ref = grid, contours = r
        self.check_grid(grid)
        self.vertices = self.check_contours(contours)
        return False

    def cli_op(self, i: int):
        calls = [run_cli(self.api, f"triangle_{fmt}", self._argv(fmt, self.R)) for fmt in ("csv", "json")]
        return calls, sum(c.seconds for c in calls), sum(len(c.out) for c in calls)

    def _expected_rows(self):
        g = self.ref[0]
        inside = g.in_region.ravel()
        return (np.tile(g.n3, self.R), np.repeat(g.n8, self.R), g.q1.ravel(), g.q2.ravel(), inside, g.entropy.ravel()[inside])

    def check_table(self, fmt: str, rows) -> None:
        n3, n8, q1, q2, inside, entropy = self._expected_rows()
        require(len(rows) == self.R * self.R, f"triangle {fmt}: {len(rows)} rows")
        cols = list(zip(*rows))
        for k, (name, want) in enumerate((("n3", n3), ("n8", n8), ("q1", q1), ("q2", q2))):
            require(same_bits(np.array(cols[k], dtype=float), want), f"triangle {fmt}: column {name} differs from entropy_grid")
        require(list(cols[4]) == inside.tolist(), f"triangle {fmt}: in_region differs from entropy_grid")
        got = [e for e, keep in zip(cols[5], inside) if keep]
        require(all(e is None for e, keep in zip(cols[5], inside) if not keep), f"triangle {fmt}: entropy set out of region")
        require(same_bits(np.array(got, dtype=float), entropy), f"triangle {fmt}: entropy differs from entropy_grid")

    def check_cli(self, i: int, calls) -> bool:
        for fmt, r in zip(("csv", "json"), calls):
            require(r.code == 0 and r.err == "", f"triangle {fmt}: exit {r.code}: {r.err.strip()}")
            first = self.first_bytes.setdefault(fmt, r.out)
            require(r.out == first, f"triangle {fmt}: two identical CLI calls gave different bytes")
        csv, js = calls
        lines = csv.out.splitlines()
        require(lines[0] == "n3,n8,q1,q2,in_region,entropy", f"triangle csv: header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            a, b, c, d, flag, e = line.split(",")
            require(flag in ("true", "false"), f"triangle csv: in_region {flag!r}")
            rows.append((float(a), float(b), float(c), float(d), flag == "true", float(e) if e else None))
        self.check_table("csv", rows)
        doc = parse_doc(js, "triangle json")
        require(doc["resolution"] == self.R, "triangle json: resolution not echoed")
        require(doc["columns"] == ["n3", "n8", "q1", "q2", "in_region", "entropy"], "triangle json: columns")
        require(same_bits(doc["n3_range"], [self.n3[0], self.n3[-1]]), "triangle json: n3_range")
        require(same_bits(doc["n8_range"], [self.n8[0], self.n8[-1]]), "triangle json: n8_range")
        self.check_table("json", doc["rows"])
        return False

    def float_count(self) -> int:
        """Floats written by one csv and one json call: 4 per row plus the in-region entropies."""
        per_table = 4 * self.R * self.R + int(self.ref[0].in_region.sum())
        return 2 * per_table + 4

    def probe(self) -> None:
        triangle, density = self.api.triangle, self.api.density
        pts = np.array([tuple(p) for lines in self.ref[1] for line in lines for p in line][:64])
        w = oracle.barycentric(pts[:, 0], pts[:, 1])
        entropies = [density.mixing_entropy(weights) for weights in w]
        runs = []
        for _ in range(2):
            calls, seconds, _ = self.cli_op(0)
            start = perf_counter_ns()
            grid = triangle.entropy_grid(self.R, TOL)
            self.api.tracer.serialize.append((int(seconds * 1e9) - 2 * (perf_counter_ns() - start), self.float_count()))
            runs.append((calls, grid))
        for weights, e, want in zip(w, entropies, oracle.entropy(w)):
            require(abs(e - want) <= 1e-12, f"mixing_entropy({weights}) = {e!r}, oracle {want!r}")
        for calls, grid in runs:
            self.check_grid(grid)
            for fmt, r in zip(("csv", "json"), calls):
                require(r.out == self.first_bytes.get(fmt, r.out), f"triangle {fmt}: CLI bytes changed")


WORKLOADS = {cls.name: cls for cls in (StatesWorkload, OrbitWorkload, TriangleWorkload)}

"""The benchmark's checks accept the package's answers and reject wrong ones.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run
from harness import ROOT, CheckError, load_api
from workloads import OrbitWorkload, StatesWorkload, TriangleWorkload

SEED = 7


@pytest.fixture(scope="module")
def api():
    return load_api()


def attached(cls, api):
    wl = cls(SEED)
    wl.attach(api)
    return wl


def first_valid(wl):
    return next(i for i in wl.lib_round if wl.kinds[i] != "gap")


def test_states_checks_reject_shifted_entropy(api):
    wl = attached(StatesWorkload, api)
    i = first_valid(wl)
    good = wl.lib_op(i)
    assert wl.check_lib(i, good) is False
    bad = list(good)
    bad[6] = good[6] + 1e-9
    with pytest.raises(CheckError, match="entropy"):
        wl.check_lib(i, bad)

    calls, _, _ = wl.cli_op(i)
    assert wl.check_cli(i, calls) is False
    doc = json.loads(calls[0].out)
    doc["entropy"] += 1e-9
    calls[0].out = json.dumps(doc)
    with pytest.raises(CheckError, match="entropy"):
        wl.check_cli(i, calls)


def test_states_gap_inputs_fail_and_valid_rejections_are_errors(api):
    wl = attached(StatesWorkload, api)
    for i in StatesWorkload.GAP_POSITIONS:
        assert wl.kinds[i] == "gap"
        assert wl.check_lib(i, wl.lib_op(i)) is True
        calls, _, _ = wl.cli_op(i)
        assert wl.check_cli(i, calls) is True
    i = first_valid(wl)
    bad = wl.lib_op(i)
    bad[4] = api.ValidationError("not positive semidefinite")
    with pytest.raises(CheckError, match="gates disagree"):
        wl.check_lib(i, bad)


def test_gap_inputs_do_not_depend_on_the_seed():
    a, b = StatesWorkload(1), StatesWorkload(2)
    for i in StatesWorkload.GAP_POSITIONS:
        assert np.array_equal(a.vectors[i], b.vectors[i])
    assert not np.array_equal(a.vectors[0], b.vectors[0])


def test_orbit_checks_reject_swapped_sample(api):
    wl = attached(OrbitWorkload, api)
    out = wl.lib_op(0)
    assert wl.check_lib(0, out) is False
    swapped = out.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    with pytest.raises(CheckError, match="oracle draw"):
        wl.check_lib(0, swapped)

    assert wl.check_lib(0, out) is False
    r, _, _ = wl.cli_op(0)
    assert wl.check_cli(0, r) is False
    doc = json.loads(r.out)
    doc["samples"][0], doc["samples"][1] = doc["samples"][1], doc["samples"][0]
    wl.first_bytes.clear()
    r.out = json.dumps(doc)
    with pytest.raises(CheckError, match="samples"):
        wl.check_cli(0, r)


def test_triangle_checks_reject_vertex_off_level(api):
    wl = attached(TriangleWorkload, api)
    grid, contours = wl.lib_op(0)
    assert wl.check_lib(0, (grid, contours)) is False
    assert wl.vertices > 0
    moved = [[list(line) for line in lines] for lines in contours]
    p = moved[0][0][1]
    moved[0][0][1] = type(p)(p.n3 + 1e-6, p.n8)
    with pytest.raises(CheckError, match="level"):
        wl.check_lib(0, (grid, moved))

    assert wl.check_lib(0, (grid, contours)) is False
    calls, _, _ = wl.cli_op(0)
    assert wl.check_cli(0, calls) is False


def test_triangle_vertex_count_does_not_depend_on_the_seed(api):
    counts = set()
    for seed in (1, 2, 3):
        wl = TriangleWorkload(seed)
        wl.attach(api)
        wl.check_lib(0, wl.lib_op(0))
        counts.add(wl.vertices)
    assert len(counts) == 1


def test_triangle_checks_reject_wrong_region_class(api):
    wl = attached(TriangleWorkload, api)
    grid, contours = wl.lib_op(0)
    region = grid.in_region.copy()
    region[0, 0] = True  # a bounding-box corner, far outside the triangle
    with pytest.raises(CheckError, match="outside"):
        wl.check_grid(dataclasses.replace(grid, in_region=region))


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

import io
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qutrit_bloch.adjoint import _ORBIT_CHUNK
from qutrit_bloch.cli import main
from qutrit_bloch.gellmann import SQRT3

from conftest import assert_same_text, bloch_from_rho_oracle

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "cli"
CASES = {c["name"]: c for c in json.loads((CORPUS / "cases.json").read_text())}
ORIGIN = ["0", "0", "0", "0", "0", "0", "0", "0"]
VERTEX_R = ["0", "0", repr(SQRT3 / 2), "0", "0", "0", "0", "0.5"]
HUGE_INT = 10**400  # a JSON integer that no double holds
DEEP_JSON = "[" * 3000  # nested deeper than the JSON decoder recurses


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_origin_is_valid_with_unit_entropy(self, capsys):
        code, out, _ = run(capsys, ["check", *ORIGIN])
        doc = json.loads(out)
        assert code == 0
        assert doc["schema_version"] == "1"
        assert doc["is_state"] and not doc["is_pure"]
        assert abs(doc["entropy"] - 1.0) <= 1e-12
        np.testing.assert_allclose(doc["eigenvalues"], [1 / 3] * 3, atol=1e-15)
        assert doc["q1"] == 0.0 and doc["q2"] == 0.0

    def test_vertex_is_pure_with_zero_entropy(self, capsys):
        code, out, _ = run(capsys, ["check", *VERTEX_R])
        doc = json.loads(out)
        assert code == 0
        assert doc["is_state"] and doc["is_pure"]
        assert abs(doc["entropy"]) <= 1e-12
        assert abs(doc["q1"] - 1.0) <= 1e-14

    def test_invalid_vector_exits_2_but_reports(self, capsys):
        code, out, _ = run(capsys, ["check", "0", "0", "0", "0", "0", "0", "0", "2"])
        doc = json.loads(out)
        assert code == 2
        assert not doc["is_state"]
        assert doc["entropy"] is None
        assert doc["q1"] == 4.0

    def test_zero_tol_answers(self, capsys):
        code, out, _ = run(capsys, ["check", *ORIGIN, "--tol", "0"])
        assert code == 0
        assert '"is_pure":false' in out

    def test_large_finite_vector_reports_finite_constraints(self, capsys):
        code, out, _ = run(capsys, ["check", *ORIGIN[:-1], "1e76"])
        assert code == 2
        doc = json.loads(out)
        assert math.isfinite(doc["q1"]) and math.isfinite(doc["q2"])

    def test_wrong_component_count_exits_1(self, capsys):
        code, _, err = run(capsys, ["check", "1", "2", "3"])
        assert code == 1
        assert "8" in err

    def test_unparseable_component_exits_1(self, capsys):
        code, _, _ = run(capsys, ["check", *ORIGIN[:-1], "zork"])
        assert code == 1

    def test_nan_component_exits_1(self, capsys):
        code, _, err = run(capsys, ["check", *ORIGIN[:-1], "nan"])
        assert code == 1
        assert "finite" in err

    def test_double_dash_allows_negative_scientific(self, capsys):
        code, out, _ = run(capsys, ["check", "--", "0", "0", "-8.66e-1", "0", "0", "0", "0", "0.5"])
        assert code == 0

    def test_stdin_vector(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([0.0] * 8)))
        code, out, _ = run(capsys, ["check", "--stdin"])
        assert code == 0
        assert abs(json.loads(out)["entropy"] - 1.0) <= 1e-12

    def test_input_file_vector(self, capsys, tmp_path):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps([0.0] * 8))
        code, out, _ = run(capsys, ["check", "--input", str(path)])
        assert code == 0

    def test_missing_input_file_exits_1(self, capsys):
        code, _, err = run(capsys, ["check", "--input", "/nonexistent/vec.json"])
        assert code == 1

    def test_conflicting_sources_exit_1(self, capsys, tmp_path):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps([0.0] * 8))
        code, _, _ = run(capsys, ["check", *ORIGIN, "--input", str(path)])
        assert code == 1

    def test_no_source_exits_1(self, capsys):
        code, _, _ = run(capsys, ["check"])
        assert code == 1

    def test_bad_json_stdin_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
        code, _, err = run(capsys, ["check", "--stdin"])
        assert code == 1
        assert "JSON" in err


class TestConvert:
    def test_bloch_to_rho_origin(self, capsys):
        code, out, _ = run(capsys, ["convert", "bloch-to-rho", *ORIGIN])
        doc = json.loads(out)
        assert code == 0
        pairs = np.array(doc["density"])
        rho = pairs[:, 0].reshape(3, 3) + 1j * pairs[:, 1].reshape(3, 3)
        np.testing.assert_allclose(rho, np.eye(3) / 3, atol=0)

    def test_rho_to_bloch_projector(self, capsys, monkeypatch):
        pairs = [[1.0, 0.0]] + [[0.0, 0.0]] * 8
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(pairs)))
        code, out, _ = run(capsys, ["convert", "rho-to-bloch", "--stdin"])
        doc = json.loads(out)
        assert code == 0
        expected = [0, 0, SQRT3 / 2, 0, 0, 0, 0, 0.5]
        np.testing.assert_allclose(doc["bloch"], expected, atol=1e-14)

    def test_rho_to_bloch_accepts_nested_rows(self, capsys, monkeypatch):
        rows = [
            [[1 / 3, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1 / 3, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [1 / 3, 0.0]],
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rows)))
        code, out, _ = run(capsys, ["convert", "rho-to-bloch", "--stdin"])
        assert code == 0
        assert json.loads(out)["bloch"] == [0.0] * 8

    def test_round_trip_preserves_doubles(self, capsys, monkeypatch):
        vec = ["0.1", "-0.2", "0.05", "0.01", "-0.03", "0.2", "0.11", "-0.17"]
        code, out, _ = run(capsys, ["convert", "bloch-to-rho", *vec])
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(json.loads(out)["density"])))
        code, out, _ = run(capsys, ["convert", "rho-to-bloch", "--stdin"])
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["bloch"], [float(v) for v in vec], atol=1e-12)

    def test_invalid_state_exits_2_naming_constraint(self, capsys):
        code, _, err = run(capsys, ["convert", "bloch-to-rho", "0", "0", "0", "0", "0", "0", "0", "2"])
        assert code == 2
        assert "|n|^2" in err

    def test_non_hermitian_matrix_exits_2(self, capsys, monkeypatch):
        pairs = [[1.0, 0.0], [0.5, 0.0]] + [[0.0, 0.0]] * 7
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(pairs)))
        code, _, err = run(capsys, ["convert", "rho-to-bloch", "--stdin"])
        assert code == 2
        assert "Hermitian" in err

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_non_hermitian_matrix_exits_2_without_a_warning(self, capsys, monkeypatch, sign):
        # rho - rho^dag overflows; the deviation reads inf and fails its bound.
        pairs = [[sign * 1e308, 0.0], [sign * 1e308, 0.0]] + [[0.0, 0.0], [-sign * 1e308, 0.0]] + [[0.0, 0.0]] * 5
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(pairs)))
        code, out, err = run(capsys, ["convert", "rho-to-bloch", "--stdin"])
        assert (code, out, err) == (2, "", "error: not Hermitian: max |rho - rho^dag| = inf\n")

    def test_overflowing_vector_exits_2_naming_q1(self, capsys, monkeypatch):
        # Hermitian with unit trace, but sqrt(3) Tr(rho lambda_3)/2 overflows.
        pairs = [[1e308, 0.0]] + [[0.0, 0.0]] * 3 + [[-1e308, 0.0]] + [[0.0, 0.0]] * 3 + [[1.0, 0.0]]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(pairs)))
        code, out, err = run(capsys, ["convert", "rho-to-bloch", "--stdin"])
        assert (code, out, err) == (2, "", "error: not a state: |n|^2 = inf outside [0, 1] (not positive semidefinite)\n")

    def test_rho_to_bloch_honours_tol_like_bloch_to_rho(self, capsys, monkeypatch):
        # Smallest eigenvalue -1e-8: q2 exceeds 1 by about 6.75e-8, outside
        # the default slack of 1e-9 and inside 1e-6.
        d = 1e-8
        rho = np.diag([(1 + d) / 2, (1 + d) / 2, -d]).astype(complex)
        pairs = json.dumps([[z.real, z.imag] for z in rho.ravel()])
        vector = [repr(float(v)) for v in bloch_from_rho_oracle(rho)]
        for extra, want in (([], 2), (["--tol", "1e-6"], 0)):
            monkeypatch.setattr("sys.stdin", io.StringIO(pairs))
            code, out, _ = run(capsys, ["convert", "rho-to-bloch", "--stdin", *extra])
            assert code == want
            if want == 0:
                assert json.loads(out)["bloch"] == [float(v) for v in vector]
            code, _, _ = run(capsys, ["convert", "bloch-to-rho", *vector, *extra])
            assert code == want

    def test_matrix_on_argv_exits_1(self, capsys):
        code, _, _ = run(capsys, ["convert", "rho-to-bloch", "1", "0", "0"])
        assert code == 1

    def test_bad_direction_exits_1(self, capsys):
        code, _, _ = run(capsys, ["convert", "sideways", *ORIGIN])
        assert code == 1


class TestTriangle:
    def test_resolution_3_rows_by_hand(self, capsys):
        from qutrit_bloch.triangle import diag_constraints

        code, out, _ = run(capsys, ["triangle", "--resolution", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n3,n8,q1,q2,in_region,entropy"
        assert len(lines) == 10
        xs = [-SQRT3 / 2, 0.0, SQRT3 / 2]
        ys = [-1.0, -0.25, 0.5]
        expected_points = [(x, y) for y in ys for x in xs]
        expected_inside = {(0.0, -1.0), (0.0, -0.25), (-SQRT3 / 2, 0.5), (0.0, 0.5), (SQRT3 / 2, 0.5)}
        for line, (x, y) in zip(lines[1:], expected_points):
            fields = line.split(",")
            assert float(fields[0]) == x and float(fields[1]) == y
            q1, q2 = diag_constraints((x, y))
            assert float(fields[2]) == q1 and float(fields[3]) == q2
            inside = (x, y) in expected_inside
            assert fields[4] == ("true" if inside else "false")
            assert (fields[5] == "") == (not inside)

    def test_origin_row_has_unit_entropy(self, capsys):
        code, out, _ = run(capsys, ["triangle", "--resolution", "7"])
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert len(origin) == 1
        assert origin[0][4] == "true"
        assert abs(float(origin[0][5]) - 1.0) <= 1e-12

    def test_in_region_rows_have_constraints_in_unit_interval(self, capsys):
        code, out, _ = run(capsys, ["triangle", "--resolution", "41"])
        for row in out.strip().split("\n")[1:]:
            fields = row.split(",")
            if fields[4] == "true":
                assert -1e-9 <= float(fields[2]) <= 1 + 1e-9
                assert -1e-9 <= float(fields[3]) <= 1 + 1e-9

    def test_json_and_csv_agree(self, capsys):
        code, csv_out, _ = run(capsys, ["triangle", "--resolution", "11", "--format", "csv"])
        code2, json_out, _ = run(capsys, ["triangle", "--resolution", "11", "--format", "json"])
        assert code == code2 == 0
        doc = json.loads(json_out)
        assert doc["schema_version"] == "1"
        assert doc["columns"] == ["n3", "n8", "q1", "q2", "in_region", "entropy"]
        csv_rows = csv_out.strip().split("\n")[1:]
        assert len(csv_rows) == len(doc["rows"]) == 121
        for csv_row, json_row in zip(csv_rows, doc["rows"]):
            fields = csv_row.split(",")
            for i in range(4):
                assert float(fields[i]) == json_row[i]
            assert (fields[4] == "true") == json_row[4]
            if json_row[5] is None:
                assert fields[5] == ""
            else:
                assert float(fields[5]) == json_row[5]

    def test_bad_resolution_exits_1(self, capsys):
        code, _, _ = run(capsys, ["triangle", "--resolution", "1"])
        assert code == 1


class TestContour:
    def test_single_level_structure(self, capsys):
        code, out, _ = run(capsys, ["contour", "--levels", "0.9", "--resolution", "128"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        (entry,) = doc["levels"]
        assert entry["level"] == 0.9
        for line in entry["polylines"]:
            assert len(line) >= 2
            for n3, n8 in line:
                assert math.hypot(n3, n8) < 0.35

    def test_points_recheck_level_within_heuristic_bound(self, capsys):
        from qutrit_bloch.triangle import diag_entropy

        resolution = 64
        code, out, _ = run(capsys, ["contour", "--levels", "0.5,0.8", "--resolution", str(resolution)])
        assert code == 0
        for entry in json.loads(out)["levels"]:
            for line in entry["polylines"]:
                for p in line:
                    assert abs(diag_entropy(p) - entry["level"]) <= 2 / resolution

    def test_levels_share_one_grid_and_match_the_per_level_path(self, capsys, monkeypatch):
        from qutrit_bloch import cli, triangle

        levels, resolution = [0.3, 0.6, 0.9], 96
        per_level = [
            {"level": lv, "polylines": triangle.equi_entropy_contour(lv, resolution=resolution)}
            for lv in levels
        ]
        document = {"schema_version": "1", "resolution": resolution, "levels": per_level}
        expected = cli._to_json(document) + "\n"
        calls, lattice_entropy = [], triangle._lattice_entropy

        def counting_lattice(*args, **kwargs):
            calls.append(args)
            return lattice_entropy(*args, **kwargs)

        monkeypatch.setattr(triangle, "_lattice_entropy", counting_lattice)
        argv = ["contour", "--levels", "0.3,0.6,0.9", "--resolution", str(resolution)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert len(calls) == 1
        assert out == expected

    @pytest.mark.parametrize(
        "resolution, shape",
        [(65, [(False, 98)] * 3), (257, [(False, 394)] * 3), (64, [(True, 289)]), (256, [(True, 1183)])],
    )
    def test_a_lattice_point_at_the_level_counts_as_above_it(self, capsys, resolution, shape):
        # log3(2) = 0.6309297535714574 is the lattice entropy at the edge midpoints of an odd resolution
        code, out, _ = run(capsys, ["contour", "--levels", "0.6309297535714574", "--resolution", str(resolution)])
        assert code == 0
        (entry,) = json.loads(out)["levels"]
        assert [(line[0] == line[-1], len(line)) for line in entry["polylines"]] == shape

    def test_missing_or_empty_levels_exit_1(self, capsys):
        for argv in (["contour"], ["contour", "--levels", ""], ["contour", "--levels", ","]):
            code, out, err = run(capsys, argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--levels" in err

    def test_out_of_range_level_exits_1_naming_it(self, capsys):
        code, _, err = run(capsys, ["contour", "--levels", "0.5,1.5"])
        assert code == 1
        assert "1.5" in err

    @pytest.mark.parametrize("level", ["0", "1"])
    def test_level_at_an_end_of_the_open_interval_exits_1(self, capsys, level):
        code, out, err = run(capsys, ["contour", "--levels", level])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unparseable_level_exits_1(self, capsys):
        code, _, err = run(capsys, ["contour", "--levels", "0.5,abc"])
        assert code == 1

    def test_unattainable_at_resolution_exits_2(self, capsys):
        code, _, err = run(capsys, ["contour", "--levels", "0.5", "--resolution", "2"])
        assert code == 2
        assert "not bracketed" in err

    def test_a_tol_the_refinement_cannot_reach_exits_2(self, capsys):
        code, out, err = run(capsys, ["contour", "--levels", "0.5", "--resolution", "8", "--tol", "1e-300"])
        assert code == 2
        assert out == ""
        assert err == "error: contour refinement failed to reach |E - 0.5| <= 1e-300\n"

    @pytest.mark.parametrize(
        "levels, tol",
        [("1.5", "1e-9"), ("abc", "1e-9"), ("0.5", "0"), ("0.5,1.5", "1e-9"), ("0.5,abc", "1e-9")],
        ids=["level", "unparseable", "tol", "second-level", "second-unparseable"],
    )
    def test_every_level_and_tol_is_checked_before_the_lattice(self, capsys, monkeypatch, levels, tol):
        from qutrit_bloch import triangle

        def fail(resolution):
            raise AssertionError("the lattice entropy was built before the levels were checked")

        monkeypatch.setattr(triangle, "_lattice_entropy", fail)
        code, out, err = run(capsys, ["contour", "--levels", levels, "--tol", tol, "--resolution", "4000"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_an_out_of_range_level_is_reported_before_an_unbracketed_one(self, capsys):
        code, _, err = run(capsys, ["contour", "--levels", "0.5,1.5", "--resolution", "2"])
        assert code == 1
        assert "1.5" in err

    def test_resolution_is_checked_before_the_levels_are_parsed(self, capsys):
        code, _, err = run(capsys, ["contour", "--levels", "abc", "--resolution", "1"])
        assert code == 1
        assert "resolution must be at least 2" in err


class TestOrbit:
    def test_origin_orbit_is_all_zeros(self, capsys):
        code, out, _ = run(capsys, ["orbit", *ORIGIN, "--count", "3", "--seed", "9"])
        doc = json.loads(out)
        assert code == 0
        assert doc["samples"] == [[0.0] * 8] * 3

    def test_pure_orbit_samples_are_pure(self, capsys):
        from qutrit_bloch.bloch import is_pure

        code, out, _ = run(capsys, ["orbit", *VERTEX_R, "--count", "10", "--seed", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 4 and doc["count"] == 10
        for sample in doc["samples"]:
            assert is_pure(np.array(sample))

    def test_different_seeds_differ(self, capsys):
        _, out1, _ = run(capsys, ["orbit", *VERTEX_R, "--count", "2", "--seed", "1"])
        _, out2, _ = run(capsys, ["orbit", *VERTEX_R, "--count", "2", "--seed", "2"])
        assert out1 != out2

    def test_invalid_state_exits_2(self, capsys):
        code, _, _ = run(capsys, ["orbit", "0", "0", "0", "0", "0", "0", "0", "2", "--count", "1"])
        assert code == 2

    def test_explicit_seed_0_is_the_default(self, capsys):
        # argparse does not pass the default through the option's type check
        argv = ["orbit", *VERTEX_R, "--count", "2"]
        code, out, _ = run(capsys, [*argv, "--seed", "0"])
        assert code == 0
        assert out == run(capsys, argv)[1]

    def test_negative_seed_message_names_the_option(self, capsys):
        code, _, err = run(capsys, ["orbit", *ORIGIN, "--seed", "-1"])
        assert code == 1
        assert "--seed" in err and "'-1'" in err

    def test_bad_count_exits_1(self, capsys):
        code, _, _ = run(capsys, ["orbit", *ORIGIN, "--count", "0"])
        assert code == 1


class TestNamedPoints:
    def test_table(self, capsys):
        code, out, _ = run(capsys, ["named-points"])
        assert code == 0
        doc = json.loads(out)
        labels = [p["label"] for p in doc["points"]]
        assert labels == ["R", "B", "G", "M_RB", "M_RG", "M_BG", "O"]
        by_label = {p["label"]: p for p in doc["points"]}
        assert by_label["M_BG"]["n3"] == -SQRT3 / 4
        assert by_label["M_BG"]["n8"] == -0.25
        pairs = np.array(by_label["R"]["density"])
        np.testing.assert_array_equal(pairs[:, 0].reshape(3, 3), np.diag([1.0, 0, 0]))
        assert by_label["O"]["bloch"] == [0.0] * 8


class TestFloatSerialization:
    def test_seventeen_digit_round_trip(self, capsys):
        vec = ["0.1", "0.2", repr(1 / 3), "0", "0", "0", "0", repr(-1 / 7)]
        code, out, _ = run(capsys, ["check", *vec])
        doc = json.loads(out)
        assert doc["bloch"] == [float(v) for v in vec]

    def test_library_values_serialize_as_they_are(self):
        from qutrit_bloch import cli

        value = {
            "real": np.array([[1.0, -0.0], [0.5, 2.0]]),
            "complex": np.array([0.1 - 1j / 3]),
            "scalar": complex(0.5, 0.0),
            "tuple": (0.25, (1, None)),
        }
        assert cli._to_json(value) == (
            '{"real":[1,-0,0.5,2],"complex":[[0.10000000000000001,-0.33333333333333331]],'
            '"scalar":[0.5,0],"tuple":[0.25,[1,null]]}'
        )

    def test_no_command_exits_1(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "qutrit-bloch" in out

    @pytest.mark.parametrize(
        "command, tol_help",
        [
            ("check", "state-predicate tolerance"),
            ("triangle", "state-predicate tolerance"),
            ("contour", "positive |E - level| target of every contour point"),
        ],
        ids=["check", "triangle", "contour"],
    )
    def test_tol_help_names_what_tol_bounds(self, capsys, command, tol_help):
        code, out, _ = run(capsys, [command, "--help"])
        assert code == 0
        assert " ".join(out.split("\n  --tol TOL")[1].split()) == tol_help  # the option's help, unwrapped


def _reference_json(obj) -> str:
    """An independent JSON writer: recursive, 17 significant digits per float."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_reference_json(v)}" for k, v in obj.items()) + "}"
    return "[" + ",".join(_reference_json(v) for v in obj) + "]"


def _reference_grid_rows(grid):
    """The grid rows, one element at a time: (n3, n8, q1, q2, inside, entropy or None)."""
    for i8, v8 in enumerate(grid.n8):
        for i3, v3 in enumerate(grid.n3):
            inside = bool(grid.in_region[i8, i3])
            entropy = float(grid.entropy[i8, i3]) if inside else None
            q1, q2 = float(grid.q1[i8, i3]), float(grid.q2[i8, i3])
            yield [float(v3), float(v8), q1, q2, inside, entropy]


class TestRowWriterBytes:
    """The grid and orbit row templates write the bytes of a per-value serializer."""

    @pytest.mark.parametrize("tol", [None, "0"])
    @pytest.mark.parametrize("resolution", [2, 3, 4, 7, 11, 64, 101])
    def test_triangle_matches_per_value_serializer(self, capsys, resolution, tol):
        from qutrit_bloch.bloch import DEFAULT_TOL
        from qutrit_bloch.triangle import N3_RANGE, N8_RANGE, entropy_grid

        tol_args = [] if tol is None else ["--tol", tol]
        grid = entropy_grid(resolution, DEFAULT_TOL if tol is None else float(tol))
        rows = list(_reference_grid_rows(grid))
        csv_lines = ["n3,n8,q1,q2,in_region,entropy"]
        for row in rows:
            fields = [_reference_json(v) for v in row[:5]]
            csv_lines.append(",".join(fields + ["" if row[5] is None else _reference_json(row[5])]))
        doc = {
            "schema_version": "1",
            "resolution": resolution,
            "n3_range": list(N3_RANGE),
            "n8_range": list(N8_RANGE),
            "columns": ["n3", "n8", "q1", "q2", "in_region", "entropy"],
            "rows": rows,
        }
        argv = ["triangle", "--resolution", str(resolution), *tol_args]
        for fmt, expected in (("csv", "\n".join(csv_lines) + "\n"), ("json", _reference_json(doc) + "\n")):
            code, out, err = run(capsys, [*argv, "--format", fmt])
            assert (code, err) == (0, "")
            assert_same_text(out, expected)

    @pytest.mark.parametrize("count", [1, 64, _ORBIT_CHUNK + 3])
    def test_orbit_matches_per_value_serializer(self, capsys, count):
        from qutrit_bloch.adjoint import orbit_sample
        from qutrit_bloch.bloch import DEFAULT_TOL

        n = [0.1, 0.2, 0.0, 0.1, 0.0, 0.0, 0.3, -0.1]
        samples = orbit_sample(np.array(n), count, 3, DEFAULT_TOL)
        doc = {
            "schema_version": "1",
            "seed": 3,
            "count": count,
            "bloch": n,
            "samples": [[float(x) for x in row] for row in samples],
        }
        argv = ["orbit", *map(repr, n), "--count", str(count), "--seed", "3"]
        assert run(capsys, argv) == (0, _reference_json(doc) + "\n", "")


class RecordingStdout:
    """A stdout that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def run_recorded(monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    monkeypatch.setattr("sys.stdout", RecordingStdout())
    return main(argv), sys.stdout.writes


def envelope_and_items(text, key):
    """The document text outside the array `key` (all of it but the rows, for
    CSV), and the text of each array item with its separator."""
    if key is None:
        header, *lines = text.splitlines(keepends=True)
        return header, lines
    head, _, rest = text.partition(f'"{key}":[[')
    items = rest[: -len("]]}\n")].split("],[")
    return head, [f"[{item}]," for item in items]


class TestStreaming:
    """triangle and orbit write a grid row or a sample block per write, and
    nothing at all when they fail."""

    @pytest.mark.parametrize(
        "name, key, per_write",
        [
            ("triangle-csv-7", None, 7),
            ("triangle-json-7", "rows", 7),
            ("triangle-csv-64", None, 64),
            ("triangle-json-64", "rows", 64),
            ("orbit-64", "samples", _ORBIT_CHUNK),
        ],
    )
    def test_corpus_documents_in_row_sized_writes(self, monkeypatch, name, key, per_write):
        case = CASES[name]
        code, writes = run_recorded(monkeypatch, case["argv"], case["stdin"] or "")
        expected = (CORPUS / f"{name}.out").read_text()
        assert code == case["exit_code"] == 0
        assert_same_text("".join(writes), expected)
        envelope, items = envelope_and_items(expected, key)
        assert max(map(len, writes)) <= len(envelope) + per_write * max(map(len, items))
        assert len(writes) >= len(items) / per_write

    def test_orbit_writes_one_sample_block_at_a_time(self, monkeypatch):
        count = 2 * _ORBIT_CHUNK + 1
        argv = ["orbit", *ORIGIN[:-1], "0.25", "--count", str(count), "--seed", "5"]
        code, writes = run_recorded(monkeypatch, argv)
        assert code == 0
        _, items = envelope_and_items("".join(writes), "samples")
        assert len(items) == count
        blocks = [w for w in writes if w.startswith("[") and w.endswith("]")]
        assert [w.count("],[") + 1 for w in blocks] == [_ORBIT_CHUNK, _ORBIT_CHUNK, 1]

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["triangle", "--resolution", "1"], 1),
            (["triangle", "--resolution", "1", "--format", "json"], 1),
            (["triangle", "--resolution", "3", "--tol", "-1"], 1),
            (["orbit", "1", *ORIGIN[1:]], 2),
            (["orbit", *ORIGIN, "--count", "0"], 1),
        ],
        ids=["triangle-csv-resolution", "triangle-json-resolution", "triangle-tol", "orbit-not-a-state", "orbit-count"],
    )
    def test_failing_command_writes_nothing(self, monkeypatch, argv, exit_code):
        code, writes = run_recorded(monkeypatch, argv)
        assert code == exit_code
        assert writes == []


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["orbit", *ORIGIN, "--seed", "-1"], ""),
            (["check", *ORIGIN, "--tol", "-1"], ""),
            (["contour", "--levels", "0.5", "--tol", "0"], ""),
            (["contour", "--levels", "0.5", "--resolution", "1"], ""),
            (["triangle", "--resolution", "3", "--tol", "nan"], ""),
            (["check", "1e200", *ORIGIN[1:]], ""),
            (["convert", "bloch-to-rho", "1e200", *ORIGIN[1:]], ""),
            (["orbit", "1e200", *ORIGIN[1:]], ""),
            (["check", *ORIGIN[:-1], "1e103"], ""),
            (["check", "--", "1.7e308", *ORIGIN[1:]], ""),
            (["check", "--stdin"], "[0, 0]"),
            (["check", "--stdin"], '[0, 0, 0, 0, 0, 0, 0, "0"]'),
            (["check", "--stdin"], "[0, 0, 0, 0, 0, 0, 0, NaN]"),
            (["convert", "rho-to-bloch"], ""),
            (["check", *ORIGIN, "--tol", "abc"], ""),
            (["orbit", *ORIGIN, "--seed", "x"], ""),
            (["convert", "rho-to-bloch", "--stdin"], "[1, 2, 3]"),
            (["convert", "rho-to-bloch", "--stdin"], "[[1, 0], [0, 0], 5]"),
            (["convert", "rho-to-bloch", "--stdin"], "[[1, 2, 3], [4, 5, 6], [7, 8, 9]]"),
            (["check", "--stdin"], DEEP_JSON),
            (["convert", "bloch-to-rho", "--stdin"], DEEP_JSON),
            (["convert", "rho-to-bloch", "--stdin"], DEEP_JSON),
            (["orbit", "--stdin"], DEEP_JSON),
        ],
        ids=[
            "orbit-negative-seed",
            "check-negative-tol",
            "contour-zero-tol",
            "contour-resolution-1",
            "triangle-nan-tol",
            "check-overflow",
            "convert-overflow",
            "orbit-overflow",
            "check-cubic-overflow",
            "check-overflow-near-max",
            "json-vector-of-2",
            "json-vector-with-a-string",
            "json-vector-with-nan",
            "rho-to-bloch-no-source",
            "check-unparseable-tol",
            "orbit-unparseable-seed",
            "matrix-of-3-numbers",
            "matrix-rows-and-a-number",
            "matrix-of-3-number-rows",
            "check-deep-json",
            "bloch-to-rho-deep-json",
            "rho-to-bloch-deep-json",
            "orbit-deep-json",
        ],
    )
    def test_exits_1_with_one_line_message(self, capsys, monkeypatch, argv, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["check", "--stdin"], [HUGE_INT] + [0] * 7),
            (["convert", "bloch-to-rho", "--stdin"], [HUGE_INT] + [0] * 7),
            (["convert", "rho-to-bloch", "--stdin"], [[HUGE_INT, 0]] + [[0, 0]] * 8),
            (["orbit", "--stdin"], [HUGE_INT] + [0] * 7),
        ],
        ids=["check", "convert-bloch-to-rho", "convert-rho-to-bloch", "orbit"],
    )
    def test_json_integer_beyond_double_range_exits_1(self, capsys, monkeypatch, argv, payload):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err and err.count("\n") == 1

    def test_json_integer_beyond_digit_limit_exits_1(self, capsys, monkeypatch):
        # json.loads raises a plain ValueError for an int literal over 4300 digits
        monkeypatch.setattr("sys.stdin", io.StringIO("[1" + "0" * 5000 + ",0,0,0,0,0,0,0]"))
        code, out, err = run(capsys, ["check", "--stdin"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid JSON input") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", [["check"], ["convert", "bloch-to-rho"], ["convert", "rho-to-bloch"], ["orbit"]], ids=" ".join
    )
    def test_json_file_nested_too_deep_exits_1(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        code, out, err = run(capsys, [*command, "--input", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON input: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "fmt, head", [("csv", b"n3,n8,q1,q2,in_region,entropy\n"), ("json", b'{"schema_version":"1","resolution":300,')],
        ids=["csv", "json"],
    )
    def test_closed_pipe_leaves_no_traceback(self, fmt, head):
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        argv = [sys.executable, "-m", "qutrit_bloch.cli", "triangle", "--resolution", "300", "--format", fmt]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with subprocess.Popen(argv, env=env, **pipes) as proc:
            # The document is megabytes, far more than a pipe buffers, so the
            # writer is still writing when the reader goes away.
            assert proc.stdout.read(len(head)) == head
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""


class TestEntropyLandscapeScript:
    def test_files_match_cli_output(self, capsys, monkeypatch, tmp_path):
        from qutrit_bloch import cli, triangle

        argv = ["--resolution", "11", "--contour-resolution", "32", "--levels", "0.5,0.9"]
        monkeypatch.setattr(sys, "argv", ["entropy_landscape.py", *argv, "--outdir", str(tmp_path)])
        calls, lattice_entropy = [], triangle._lattice_entropy

        def counting_lattice(*args, **kwargs):
            calls.append(args)
            return lattice_entropy(*args, **kwargs)

        monkeypatch.setattr(triangle, "_lattice_entropy", counting_lattice)
        runpy.run_path(str(ROOT / "scripts" / "entropy_landscape.py"), run_name="__main__")
        assert calls == [(32,)]  # one lattice per run, not one per level
        capsys.readouterr()
        _, grid_csv, _ = run(capsys, ["triangle", "--resolution", "11"])
        _, contours, _ = run(capsys, ["contour", "--levels", "0.5,0.9", "--resolution", "32"])
        assert (tmp_path / "triangle_grid.csv").read_text() == grid_csv
        assert (tmp_path / "contours.json").read_text() == contours


    def test_tol_is_checked_by_the_cli(self, capsys, monkeypatch, tmp_path):
        argv = ["entropy_landscape.py", "--resolution", "5", "--tol", "nan", "--outdir", str(tmp_path)]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(ROOT / "scripts" / "entropy_landscape.py"), run_name="__main__")
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--tol" in err
        assert not (tmp_path / "triangle_grid.csv").exists()


class TestOrbitStatisticsScript:
    def test_orbit_invariants_hold_to_1e_10(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["orbit_statistics.py", "--count", "20"])
        runpy.run_path(str(ROOT / "scripts" / "orbit_statistics.py"), run_name="__main__")
        labels = {"R", "B", "G", "M_RB", "M_RG", "M_BG", "O"}
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        rows = [row for row in rows if row and row[0] in labels]
        assert {row[0] for row in rows} == labels
        for label, _, eig_dev, ent_dev, norm_dev, pure in rows:
            assert max(float(eig_dev), float(ent_dev), float(norm_dev)) <= 1e-10, label
            assert pure == ("20/20" if label in "RBG" else "0/20")

import csv
import io
import json

import pytest

from starmix import SolverError
from starmix.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    GRID_COUNTS,
    GRID_LENGTHS,
    main,
)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"m": [1, 2, 3], "n": [4, 3, 2], "K": 1}))
    return str(path)


@pytest.fixture
def path_spec_file(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"m": [1], "n": [2], "K": 1}))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Edits of a baseline's ``slem`` document: each returns the edited document
# and the text the validation detail must name.
def drop_edge(doc):
    u, v, _ = doc["weights"]["edges"].pop(5)
    return doc, f"edge ({u}, {v})"


def add_self_loop(doc):
    doc["weights"]["edges"].append([0, 0, 0.5])
    return doc, "(0, 0)"


def change_one_weight(doc):
    doc["weights"]["edges"][0][2] /= 2.0
    return doc, "stratum (1, 1)"


def top_level_array(doc):
    return doc["weights"]["edges"], "not a JSON object"


def null_weight(doc):
    u, v, _ = doc["weights"]["edges"][3]
    doc["weights"]["edges"][3][2] = None
    return doc, f"edge entry [{u}, {v}, None]"


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSlemCommand:
    def test_json_stdout_with_manifest(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, ["slem", "--spec", spec_file, "--scheme", "optimal"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["slem"] == pytest.approx(0.9213, abs=1e-4)
        assert doc["theta"] is not None
        assert doc["manifest"]["command"] == "slem"
        assert doc["manifest"]["version"]
        assert doc["weights"]["strata"][0][0] == pytest.approx(0.0787, abs=1e-4)

    def test_csv_row(self, capsys, spec_file):
        code, out, _ = run_cli(
            capsys,
            ["slem", "--spec", spec_file, "--scheme", "best_constant", "--format", "csv"],
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["m", "n", "K", "scheme", "slem", "theta", "weights"]
        assert len(rows) == 1
        assert float(rows[0][4]) == pytest.approx(0.9614, abs=1e-3)

    def test_out_file_and_sibling_manifest(self, capsys, tmp_path, spec_file):
        out = tmp_path / "weights.json"
        code, stdout, _ = run_cli(
            capsys, ["slem", "--spec", spec_file, "--out", str(out)]
        )
        assert code == EXIT_OK
        assert stdout == ""
        doc = json.loads(out.read_text())
        assert "manifest" not in doc
        manifest = json.loads((tmp_path / "weights.json.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]
        assert manifest["command"] == "slem"

    def test_three_path_value(self, capsys, path_spec_file):
        code, out, _ = run_cli(capsys, ["slem", "--spec", path_spec_file])
        assert code == EXIT_OK
        assert json.loads(out)["slem"] == pytest.approx(0.5, abs=1e-12)

    def test_twelve_significant_digits(self, capsys, spec_file):
        _, out, _ = run_cli(capsys, ["slem", "--spec", spec_file])
        slem_value = json.loads(out)["slem"]
        assert len(repr(slem_value).replace("0.", "")) <= 13


class TestGridCommands:
    def test_slem_grid_shape_and_spot_values(self, capsys):
        code, out, _ = run_cli(capsys, ["slem-grid", "--format", "csv"])
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["m", "n", "slem"]
        assert len(rows) == len(GRID_LENGTHS) * len(GRID_COUNTS) == 54
        table = {(row[0], row[1]): float(row[2]) for row in rows}
        assert table[("4 3 2", "1 2 3")] == pytest.approx(0.9402, abs=1e-4)
        assert table[("3 2 1", "2 1 3")] == pytest.approx(0.9102, abs=1e-4)

    def test_kmax_single_spec(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"m": [3, 2, 1], "n": [1, 2, 3], "K": 1}))
        code, out, _ = run_cli(capsys, ["kmax", "--spec", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["k_max"] == 15

    def test_kmax_requires_spec_or_grid(self, capsys):
        code, _, err = run_cli(capsys, ["kmax"])
        assert code == EXIT_USAGE
        assert "spec" in err


class TestSweepCommand:
    def test_small_sweep(self, capsys, path_spec_file):
        code, out, _ = run_cli(
            capsys,
            ["sweep-k", "--spec", path_spec_file, "--k-min", "1", "--k-max", "2",
             "--format", "csv"],
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header[:4] == ["K", "slem_closed_form", "slem_formula_weights", "slem_numeric"]
        assert len(rows) == 2
        # Single-core row reproduces the plain-star rate.
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-12)
        for row in rows:
            if row[1]:
                assert abs(float(row[1]) - float(row[3])) <= 1e-3

    def test_bad_range_rejected(self, capsys, path_spec_file):
        code, _, err = run_cli(
            capsys, ["sweep-k", "--spec", path_spec_file, "--k-min", "3", "--k-max", "2"]
        )
        assert code == EXIT_USAGE
        assert "range" in err


class TestSimulateCommand:
    def test_traces_start_at_one(self, capsys, path_spec_file):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--spec", path_spec_file, "--schemes", "optimal,metropolis",
             "--trials", "5", "--iterations", "3", "--seed", "7", "--format", "csv"],
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["iteration", "optimal", "metropolis"]
        assert len(rows) == 4
        assert float(rows[0][1]) == 1.0
        assert float(rows[0][2]) == 1.0

    def test_deterministic_given_seed(self, capsys, path_spec_file):
        # The manifest records wall-clock timing; everything else must be
        # bit-identical across runs with the same seed.
        argv = ["simulate", "--spec", path_spec_file, "--schemes", "optimal",
                "--trials", "4", "--iterations", "5", "--seed", "11"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == EXIT_OK
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("manifest")
        doc2.pop("manifest")
        assert doc1 == doc2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exact_consensus_has_no_fitted_decay(self, capsys, tmp_path, fmt):
        # Best-constant weights on two nodes give W = J/2: one step reaches
        # consensus, so no trace point above the noise floor is left to fit.
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"m": [1], "n": [1], "K": 1}))
        code, out, err = run_cli(
            capsys,
            ["simulate", "--spec", str(path), "--schemes", "best_constant",
             "--trials", "4", "--iterations", "5", "--format", fmt],
        )
        assert code == EXIT_OK, err
        if fmt == "json":
            assert json.loads(out)["fitted_decay"] == {"best_constant": None}
        else:
            header, rows = parse_csv(out)
            assert header == ["iteration", "best_constant"]
            assert len(rows) == 6

    def test_zero_iterations_has_no_fitted_decay(self, capsys, path_spec_file):
        code, out, err = run_cli(
            capsys,
            ["simulate", "--spec", path_spec_file, "--schemes", "optimal,metropolis",
             "--trials", "3", "--iterations", "0"],
        )
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert doc["traces"] == {"optimal": [1.0], "metropolis": [1.0]}
        assert doc["fitted_decay"] == {"optimal": None, "metropolis": None}

    def test_unknown_scheme_rejected(self, capsys, path_spec_file):
        code, _, err = run_cli(
            capsys, ["simulate", "--spec", path_spec_file, "--schemes", "bogus"]
        )
        assert code == EXIT_USAGE
        assert "scheme" in err


class TestValidateCommand:
    def test_passes_on_reference_spec(self, capsys, spec_file):
        code, out, _ = run_cli(
            capsys, ["validate", "--spec", spec_file, "--skip-optimizer"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        names = {c["name"]: c["status"] for c in doc["checks"]}
        assert names["spectrum_union"] == "pass"
        assert names["interlacing"] == "pass"
        assert names["rank_one_reconstruction"] == "pass"
        assert names["oracle_equivalence"] == "skip"

    def test_spectrum_union_detail_names_the_bad_window(self, capsys, monkeypatch, spec_file):
        code, out, _ = run_cli(capsys, ["validate", "--spec", spec_file, "--skip-optimizer"])
        detail = {c["name"]: c for c in json.loads(out)["checks"]}["spectrum_union"]["detail"]
        assert detail.startswith("samples=5 windows=") and detail.endswith("worst_count_error=0")

        import starmix.cli as cli_module

        union = cli_module.spectrum_union

        def shifted(decomp):
            values = union(decomp)
            values[0] += 1e-6
            return values

        monkeypatch.setattr(cli_module, "spectrum_union", shifted)
        code, out, _ = run_cli(capsys, ["validate", "--spec", spec_file, "--skip-optimizer"])
        assert code == EXIT_VALIDATION
        check = {c["name"]: c for c in json.loads(out)["checks"]}["spectrum_union"]
        assert check["status"] == "fail"
        assert "worst_count_error=1 first_bad=[1.00000099" in check["detail"]
        assert check["detail"].endswith("counted=0 predicted=1")

    def test_interlacing_skipped_for_unit_counts(self, capsys, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps({"m": [2, 1], "n": [1, 2], "K": 1}))
        code, out, _ = run_cli(
            capsys, ["validate", "--spec", str(path), "--skip-optimizer"]
        )
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["interlacing"]["status"] == "skip"
        assert ">= 2" in checks["interlacing"]["detail"]

    @pytest.mark.parametrize("length", [2, 50])
    def test_interlacing_passes_for_one_branch_type(self, capsys, tmp_path, length):
        # With one branch type the core block's second eigenvalue is not
        # part of the moduli tie, so only |reduced_top| and |core_lowest| count.
        path = tmp_path / "one_type.json"
        path.write_text(json.dumps({"m": [length], "n": [3], "K": 1}))
        code, out, _ = run_cli(
            capsys, ["validate", "--spec", str(path), "--skip-optimizer"]
        )
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["interlacing"]["status"] == "pass", checks["interlacing"]

    def test_block_checks_run_for_three_cores(self, capsys, tmp_path):
        path = tmp_path / "three_cores.json"
        path.write_text(json.dumps({"m": [2, 3, 4], "n": [3, 2, 2], "K": 3}))
        code, out, _ = run_cli(
            capsys, ["validate", "--spec", str(path), "--skip-optimizer"]
        )
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("spectrum_union", "rank_one_reconstruction", "stationary_vector"):
            assert checks[name]["status"] == "pass", checks[name]
        assert checks["interlacing"]["status"] == "skip"
        assert "one core" in checks["interlacing"]["detail"]

    def test_weights_roundtrip(self, capsys, tmp_path, spec_file):
        weights_path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, ["slem", "--spec", spec_file, "--out", str(weights_path)])
        assert code == EXIT_OK
        code, out, _ = run_cli(
            capsys,
            ["validate", "--spec", spec_file, "--weights", str(weights_path),
             "--skip-optimizer"],
        )
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["weights_roundtrip"]["status"] == "pass"

    def test_tampered_weights_fail_with_range_error(self, capsys, tmp_path, spec_file):
        weights_path = tmp_path / "w.json"
        run_cli(capsys, ["slem", "--spec", spec_file, "--out", str(weights_path)])
        doc = json.loads(weights_path.read_text())
        doc["weights"]["strata"][0][0] = 1.5
        weights_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            ["validate", "--spec", spec_file, "--weights", str(weights_path),
             "--skip-optimizer"],
        )
        assert code == EXIT_VALIDATION
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["weights_roundtrip"]["status"] == "fail"
        assert "outside (0, 1]" in checks["weights_roundtrip"]["detail"]

    @pytest.mark.parametrize(
        "edit",
        [drop_edge, add_self_loop, change_one_weight, top_level_array, null_weight],
    )
    def test_edited_edge_table_fails_naming_the_fault(
        self, capsys, tmp_path, spec_file, edit
    ):
        weights_path = tmp_path / "w.json"
        run_cli(
            capsys,
            ["slem", "--spec", spec_file, "--scheme", "metropolis",
             "--out", str(weights_path)],
        )
        doc, named = edit(json.loads(weights_path.read_text()))
        weights_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            ["validate", "--spec", spec_file, "--weights", str(weights_path),
             "--skip-optimizer"],
        )
        assert code == EXIT_VALIDATION
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["weights_roundtrip"]["status"] == "fail"
        assert named in checks["weights_roundtrip"]["detail"]

    def test_validate_with_optimizer(self, capsys, path_spec_file):
        code, out, _ = run_cli(capsys, ["validate", "--spec", path_spec_file])
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["oracle_equivalence"]["status"] == "pass"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["slem", "--spec", "/nonexistent.json"])
        assert code == EXIT_USAGE
        assert "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, ["slem", "--spec", str(path)])
        assert code == EXIT_USAGE

    def test_invalid_spec_contents(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"m": [2, 2], "n": [1, 1], "K": 1}))
        code, _, err = run_cli(capsys, ["slem", "--spec", str(path)])
        assert code == EXIT_USAGE
        assert "duplicate" in err

    def test_unknown_flag(self, capsys, spec_file):
        code, _, _ = run_cli(capsys, ["slem", "--spec", spec_file, "--bogus"])
        assert code == EXIT_USAGE

    def test_numerical_failure_maps_to_exit_two(self, capsys, monkeypatch, spec_file):
        import starmix.cli as cli_module

        def boom(spec):
            raise SolverError("forced failure")

        monkeypatch.setattr(cli_module, "solve_theta", boom)
        code, _, err = run_cli(capsys, ["slem", "--spec", spec_file])
        assert code == EXIT_NUMERIC
        assert "numerical failure" in err


class TestRoundTrip:
    def test_emitted_slem_reproducible_from_emitted_weights(self, capsys, tmp_path, spec_file):
        from starmix import BranchSpec, build_network
        from starmix.cli import weights_from_document
        from starmix.spectral import assemble_weight_matrix, slem

        for scheme in ("optimal", "metropolis", "max_degree", "best_constant"):
            out = tmp_path / f"{scheme}.json"
            code, _, _ = run_cli(
                capsys, ["slem", "--spec", spec_file, "--scheme", scheme, "--out", str(out)]
            )
            assert code == EXIT_OK
            doc = json.loads(out.read_text())
            spec = BranchSpec.from_dict(doc["spec"])
            network = build_network(spec)
            weights = weights_from_document(doc, network)
            matrix = assemble_weight_matrix(network, weights)
            assert abs(slem(matrix) - doc["slem"]) <= 1e-10

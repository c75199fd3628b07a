"""Command-line interface: exit codes, output bundles, environment
overrides, and byte-level determinism of repeated runs."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from switchcert import (
    Primitive,
    PrimitiveMap,
    QuadraticLyapunov,
    SwitchingSignal,
    load_scenario,
    run_scenario,
    save_library,
    shipped_certificate,
)
from switchcert import cli
from switchcert.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_INVALID_SIGNAL,
    EXIT_OK,
    main,
)
from switchcert.library_io import read_document
from switchcert.simulation import budget_from_certificate
from switchcert.switching import Supervisor, heading_policy
from switchcert.walker import shipped_stride_primitives

from conftest import make_pair_library, make_primitive
from test_simulation import draw_campaign_oracle, twelve_dimensional_library
from switchcert import PrimitiveLibrary

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def read_outputs(out_dir: Path) -> dict:
    """Map file name to bytes, with manifest timing fields masked out."""
    result = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            doc = json.loads(data)
            doc.pop("duration_seconds", None)
            data = json.dumps(doc, sort_keys=True).encode()
        result[path.name] = data
    return result


@pytest.fixture(scope="module")
def pair_library_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("library") / "pair.json"
    save_library(make_pair_library(), path)
    return path


@pytest.fixture(scope="module")
def single_library_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("library") / "single.json"
    save_library(PrimitiveLibrary((make_primitive(0, basin_level=2.0),)), path)
    return path


class TestCertify:
    def test_shipped_library_produces_a_feasible_certificate(self, tmp_path):
        code = main(
            ["certify", "--library", "shipped-walker", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        certificate = json.loads((tmp_path / "certificate.json").read_text())
        assert certificate["n0_bar"] == 2
        assert certificate["na_bar"] <= 1.0
        report = (tmp_path / "certify_report.txt").read_text()
        assert "FEASIBLE" in report
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "certify"
        assert "sha256" in manifest["inputs"]["library"]

    def test_small_library_certifies_from_a_file(self, tmp_path, single_library_path):
        code = main(
            ["certify", "--library", str(single_library_path), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert (tmp_path / "certificate.json").exists()

    def test_offset_pair_geometry_is_reported_infeasible(self, tmp_path, pair_library_path):
        # the jump factor near the excluded core grows much faster than the
        # basins can absorb for this two-center geometry
        code = main(
            ["certify", "--library", str(pair_library_path), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_INFEASIBLE

    def test_report_labels_the_bounds_and_a_vacuous_budget(self, tmp_path):
        code = main(["certify", "--library", "shipped-walker", "--margin-trials", "20",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "certify_report.txt").read_text().splitlines()
        assert "method: exact" in lines
        assert "bound kinds: omega exact, mu exact, delta_hat sampled" in lines
        assert "na_bar <= 1: the budget admits a switch at every step" in lines
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["resolved"]["method"] == "exact"

    def test_a_binding_budget_has_no_vacuous_line(self, tmp_path):
        code = main(["certify", "--library", "shipped-walker", "--epsilon", "0.35",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        certificate = json.loads((tmp_path / "certificate.json").read_text())
        assert certificate["na_bar"] > 1.0
        report = (tmp_path / "certify_report.txt").read_text()
        assert "bound kinds: omega exact, mu exact\n" in report
        assert "admits a switch at every step" not in report

    def test_shipped_certificate_is_reproduced_by_its_margin_run(self, tmp_path):
        code = main(["certify", "--library", "shipped-walker", "--margin-trials", "200",
                     "--seed", "20260822", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        _, shipped = read_document("shipped", dict)
        assert (tmp_path / "certificate.json").read_bytes() == shipped

    def test_missing_library_file_is_an_input_error(self, tmp_path):
        code = main(
            ["certify", "--library", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_INPUT

    def test_malformed_library_file_is_an_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code = main(["certify", "--library", str(bad), "--out-dir", str(tmp_path)])
        assert code == EXIT_INPUT


@pytest.fixture(scope="module")
def five_dim_library_path(tmp_path_factory):
    eye = np.eye(5)
    members = tuple(
        Primitive(
            id=pid,
            map=PrimitiveMap(linear=0.5 * eye, fixed_point=center, disturbance_gain=eye),
            lyapunov=QuadraticLyapunov(weight=eye, center=center),
            basin_level=2.0,
            contraction_rate=0.25,
        )
        for pid, center in enumerate((np.zeros(5), np.full(5, 0.01)))
    )
    path = tmp_path_factory.mktemp("library") / "five.json"
    save_library(PrimitiveLibrary(members), path)
    return path


def test_certify_has_no_dimension_limit(tmp_path, five_dim_library_path):
    code = main(["certify", "--library", str(five_dim_library_path), "--margin-trials", "20",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    certificate = json.loads((tmp_path / "certificate.json").read_text())
    assert certificate["method"] == "exact"
    modes = {(c["inner_id"] == c["outer_id"], c["mode"])
             for c in certificate["containment"]["pairs"]}
    assert modes == {(True, "nested"), (False, "exact")}
    assert certificate["mu"] > 1.0


class TestRejectedValues:
    """Values the library functions reject exit 1 with a message, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--library", "shipped-walker", "--epsilon", "2"],
            ["certify", "--library", "shipped-walker", "--margin-trials", "-1"],
            ["simulate", "--library", "shipped-walker", "--certificate", "shipped",
             "--episodes", "2", "--keep-traces", "-1"],
        ],
        ids=["epsilon-above-one", "negative-margin-trials", "negative-keep-traces"],
    )
    def test_exits_with_input_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")


class TestValidate:
    def write_signal(self, tmp_path, assignments):
        path = tmp_path / "signal.csv"
        SwitchingSignal(assignments).to_csv(path)
        return path

    def test_constant_signal_is_valid(self, tmp_path):
        path = self.write_signal(tmp_path, (1,) * 20)
        code = main(["validate", "--signal", str(path), "--n0", "1", "--na", "2"])
        assert code == EXIT_OK

    def test_na_whose_reciprocal_overflows_is_an_input_error(self, tmp_path, capsys):
        # such a budget admits every signal, but validation steps by 1/na,
        # which reported a NaN slack and INVALID
        path = self.write_signal(tmp_path, (0, 1, 0, 1, 2, 2))
        code = main(["validate", "--signal", str(path), "--n0", "1", "--na", "1e-320"])
        assert code == EXIT_INPUT
        assert "error: na=1e-320 is too small" in capsys.readouterr().err

    @pytest.mark.parametrize("na", ["1e-308", "1e-306"])
    def test_a_tiny_na_reports_the_first_empty_interval(self, tmp_path, capsys, na):
        # with 1/na >= 1 no interval's slack is below n0, which [0, 0]
        # attains; at 1e-308 the steps j/na overflowed, numpy warned and the
        # report named [2, 2]
        assert main(["scenario", "--config", str(EXAMPLES / "curved_leader.json"),
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["validate", "--signal", str(tmp_path / "sigma.csv"), "--n0", "2",
                         "--na", na])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "steps: 28" in out
        assert "worst interval: [0, 0]  slack: 2.0\nVALID\n" in out

    def test_burst_overrun_exits_with_signal_code(self, tmp_path):
        path = self.write_signal(tmp_path, (0, 1, 0, 1, 0, 1, 0, 1))
        out = tmp_path / "out"
        code = main(
            [
                "validate",
                "--signal",
                str(path),
                "--n0",
                "1",
                "--na",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        assert code == EXIT_INVALID_SIGNAL
        report = json.loads((out / "validation_report.json").read_text())
        assert report["valid"] is False
        assert report["worst_slack"] < 0.0
        assert (out / "validation_report.txt").exists()

    def test_signal_is_read_once_and_hashed_as_parsed(self, tmp_path, monkeypatch):
        path = self.write_signal(tmp_path, (0, 0, 1, 1, 2, 2))
        parsed = path.read_bytes()
        reads = []
        read_bytes = Path.read_bytes

        def read_then_replace(self):
            data = read_bytes(self)
            if self == path:
                reads.append(data)
                # a second read of the file would see another, invalid signal
                SwitchingSignal((0, 1) * 5).to_csv(path)
            return data

        monkeypatch.setattr(Path, "read_bytes", read_then_replace)
        out = tmp_path / "out"
        code = main(["validate", "--signal", str(path), "--n0", "1", "--na", "2",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        assert reads == [parsed]
        assert "steps: 6  switches: 2" in (out / "validation_report.txt").read_text()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["inputs"]["signal"]["sha256"] == hashlib.sha256(parsed).hexdigest()

    def test_missing_signal_file_is_an_input_error(self, tmp_path):
        code = main(
            ["validate", "--signal", str(tmp_path / "none.csv"), "--n0", "1", "--na", "1"]
        )
        assert code == EXIT_INPUT

    def test_malformed_signal_file_is_an_input_error(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("not,a\nsignal,file\n")
        code = main(["validate", "--signal", str(path), "--n0", "1", "--na", "1"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "text, message",
        [
            ("step,id\n0,1\n1,1\n", "header"),
            ("k,id\n0,1,2\n1,1,2\n", "row 1 must have two columns"),
            ("k,id\n0,1\n2,1\n", "row 2 has k=2"),
            ("k,id\n0,1\n1,x\n", "row 2 must hold two integers"),
            ("k,id\n0,1\n1,1.5\n", "row 2 must hold two integers"),
            ("k,id\n0,1\n1,1e3\n", "row 2 must hold two integers"),
            ("k,id\n0,1\n1.0,1\n", "row 2 must hold two integers"),
            ("k,id\n0,1\n1,nan\n", "row 2 must hold two integers"),
            ("k,id\n0,1\n1,99999999999999999999\n", "64-bit"),
            ("k,id\n", "no rows"),
        ],
        ids=["bad-header", "three-columns", "gap-in-k", "non-integer-id", "fractional-id",
             "exponent-id", "fractional-k", "nan-id", "id-beyond-int64", "empty-body"],
    )
    def test_malformed_signal_body_names_the_problem(self, tmp_path, capsys, text, message):
        path = tmp_path / "signal.csv"
        path.write_text(text)
        code = main(["validate", "--signal", str(path), "--n0", "1", "--na", "1"])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err

    def test_million_step_signal_in_linear_memory(self, tmp_path):
        steps = 1_000_000
        ids = np.repeat(np.arange(steps // 4) % 3, 4)
        path = tmp_path / "long.csv"
        path.write_text("k,id\n" + "".join(f"{k},{v}\n" for k, v in enumerate(ids.tolist())))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["validate", "--signal", str(path), "--n0", "2", "--na", "4",
                         "--out-dir", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        report = json.loads((out / "validation_report.json").read_text())
        # one switch every four steps: the tightest interval holds one switch
        assert report["switch_count"] == steps // 4 - 1
        assert report["worst_interval"] == [4, 5]
        assert report["worst_slack"] == 1.25
        # a handful of int64/float64 arrays of length K; a scan over interval
        # pairs would need orders of magnitude more
        assert peak <= 12 * 8 * steps, peak


class TestSimulate:
    def test_campaign_summary_and_traces(self, tmp_path, walker_library, walker_certificate):
        code = main(
            [
                "simulate",
                "--library",
                "shipped-walker",
                "--certificate",
                "shipped",
                "--episodes",
                "20",
                "--horizon",
                "50",
                "--seed",
                "7",
                "--keep-traces",
                "3",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "campaign_summary.json").read_text())
        assert summary["episodes"] == 20
        assert summary["violation_count"] == 0
        # the shipped na_bar is below 1, so no proposed switch is ever deferred
        assert summary["deferred_requests"] == 0
        # ellipsoid proposals drawn for the 20 starts, counted one episode at a time
        drawn = draw_campaign_oracle(walker_library, walker_certificate, 20, 50, 0.0, 7, 0)[4]
        assert summary["x0_proposals"] == sum(drawn) == 23
        for index in range(3):
            assert (tmp_path / f"trace_{index:04d}.csv").exists()

    def test_certificate_fingerprint_mismatch_is_an_input_error(
        self, tmp_path, pair_library_path
    ):
        code = main(
            [
                "simulate",
                "--library",
                str(pair_library_path),
                "--certificate",
                "shipped",
                "--episodes",
                "2",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_INPUT


    def test_document_of_another_format_is_an_input_error(self, tmp_path, capsys):
        document = shipped_certificate().to_dict()
        document["format"] = "switchcert-library"
        path = tmp_path / "not_a_certificate.json"
        path.write_text(json.dumps(document))
        code = main(["simulate", "--library", "shipped-walker", "--certificate", str(path),
                     "--episodes", "2", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "not a certificate document" in capsys.readouterr().err


    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_is_an_input_error(self, tmp_path, capsys, amplitude):
        code = main(["simulate", "--library", "shipped-walker", "--certificate", "shipped",
                     "--episodes", "2", "--amplitude", amplitude, "--out-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "amplitude must be nonnegative and finite" in capsys.readouterr().err
        assert not (tmp_path / "campaign_summary.json").exists()

    # A NaN passes every range check, and a NaN na_bar would let the supervisor
    # admit every switch; JSON's NaN and Infinity reach the certificate as floats.
    @pytest.mark.parametrize("field, value, message", [
        ("kappa", math.nan, "kappa must be finite"),
        ("omega", math.nan, "omega must be finite"),
        ("mu", math.nan, "mu must be finite"),
        ("na_bar", math.nan, "na_bar must be finite"),
        ("na_bar", math.inf, "na_bar must be finite"),
        ("delta_hat", math.nan, "delta_hat must be finite"),
        ("n0_bar", True, "n0_bar must be an integer"),
        ("n0_bar", 2.5, "n0_bar must be an integer"),
    ])
    def test_certificate_constants_are_checked(self, tmp_path, capsys, field, value, message):
        document = shipped_certificate().to_dict()
        document[field] = value
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps(document))
        code = main(["simulate", "--library", "shipped-walker", "--certificate", str(path),
                     "--episodes", "2", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "campaign_summary.json").exists()


class TestScenario:
    def test_straight_leader_bundle(self, tmp_path):
        code = main(
            [
                "scenario",
                "--config",
                str(EXAMPLES / "straight_leader.json"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "adaptive"
        assert summary["reduced_in_all_basins"] is True
        for name in (
            "poses.csv",
            "forces.csv",
            "sigma.csv",
            "reduced.csv",
            "plot_walker_path.csv",
            "plot_leader_path.csv",
            "plot_basin_ellipses.csv",
            "run_manifest.json",
        ):
            assert (tmp_path / name).exists(), name

    def test_mode_override_runs_the_ablation(self, tmp_path):
        code = main(
            [
                "scenario",
                "--config",
                str(EXAMPLES / "straight_leader.json"),
                "--mode",
                "fixed:0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "fixed:0"
        assert summary["usage_counts"]["0"] == summary["strides"]

    def test_missing_config_is_an_input_error(self, tmp_path):
        code = main(
            ["scenario", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_INPUT

    def test_config_can_come_from_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWITCHCERT_CONFIG", str(EXAMPLES / "straight_leader.json"))
        monkeypatch.setenv("SWITCHCERT_OUT_DIR", str(tmp_path))
        code = main(["scenario"])
        assert code == EXIT_OK
        assert (tmp_path / "summary.json").exists()

    def curved_config_in(self, directory, **fields):
        directory.mkdir(exist_ok=True)
        config = json.loads((EXAMPLES / "curved_leader.json").read_text())
        config.update(fields)
        path = directory / "leader.json"
        path.write_text(json.dumps(config))
        return path

    @pytest.mark.parametrize("dead_zone", [math.nan, math.inf])
    def test_non_finite_dead_zone_is_an_input_error(self, tmp_path, capsys, dead_zone):
        config = self.curved_config_in(tmp_path / "cfg", dead_zone=dead_zone)
        code = main(["scenario", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "dead_zone must be nonnegative and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Each of these ran before as if the number had been truncated to an
    # integer, or failed only at stride 0 naming neither field nor cause.
    @pytest.mark.parametrize("field, value, message", [
        ("strides", 20.9, "strides must be an integer, got 20.9"),
        ("strides", "20", "strides must be an integer, got '20'"),
        ("initial_primitive", 1.7, "initial_primitive must be an integer, got 1.7"),
        ("initial_primitive", True, "initial_primitive must be an integer, got True"),
        ("start_time", math.nan, "start_time must be finite, got nan"),
    ])
    def test_config_numbers_are_checked_not_truncated(self, tmp_path, capsys, field, value,
                                                      message):
        config = self.curved_config_in(tmp_path / "cfg", **{field: value})
        code = main(["scenario", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_config_numbers_are_integers(self, tmp_path):
        config = self.curved_config_in(tmp_path / "cfg", strides=12.0, initial_primitive=0.0)
        assert main(["scenario", "--config", str(config), "--out-dir", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["strides"] == 12
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["resolved"]["initial_primitive"] == 0

    def test_certificate_flag_resolves_against_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        config = self.curved_config_in(tmp_path / "cfg")
        work = tmp_path / "work"
        work.mkdir()
        shipped_certificate().save(work / "mycert.json")
        monkeypatch.chdir(work)
        argv = ["scenario", "--config", str(config), "--certificate", "mycert.json"]
        assert main(argv + ["--out-dir", str(tmp_path / "only_cwd")]) == EXIT_OK

        # A certificate of the same name beside the config, with a much longer
        # dwell time, must be ignored: the run switches as under the shipped one.
        slow = replace(shipped_certificate(), n0_bar=1, na_bar=50.0)
        slow.save(tmp_path / "cfg" / "mycert.json")
        out = tmp_path / "both"
        assert main(argv + ["--out-dir", str(out)]) == EXIT_OK
        loaded = (work / "mycert.json").read_bytes()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["inputs"]["certificate"] == {
            "path": "mycert.json", "sha256": hashlib.sha256(loaded).hexdigest()}
        reference = tmp_path / "reference"
        assert main(["scenario", "--config", str(EXAMPLES / "curved_leader.json"),
                     "--out-dir", str(reference)]) == EXIT_OK
        assert (out / "summary.json").read_bytes() == (reference / "summary.json").read_bytes()

    def test_subnormal_na_bar_runs_as_the_shipped_certificate(self, tmp_path):
        # any na_bar <= 1 admits a switch at every stride; one whose
        # reciprocal overflows failed the run's own final dwell-time check
        tiny = replace(shipped_certificate(), na_bar=1e-320)
        tiny.save(tmp_path / "tiny.json")
        runs = {}
        for name, extra in (("tiny", ["--certificate", str(tmp_path / "tiny.json")]),
                            ("shipped", [])):
            assert main(["scenario", "--config", str(EXAMPLES / "curved_leader.json"), *extra,
                         "--out-dir", str(tmp_path / name)]) == EXIT_OK
            runs[name] = (tmp_path / name / "summary.json").read_bytes()
        assert runs["tiny"] == runs["shipped"]

    def test_summary_counts_the_deferred_requests(self, tmp_path):
        # The slow certificate of the test above defers switches on the
        # curved leader; replay its requests from the written bearings.
        config = self.curved_config_in(tmp_path / "cfg")
        slow = replace(shipped_certificate(), n0_bar=1, na_bar=50.0)
        slow.save(tmp_path / "slow.json")
        argv = ["scenario", "--config", str(config), "--certificate", str(tmp_path / "slow.json")]
        assert main(argv + ["--out-dir", str(tmp_path / "adaptive")]) == EXIT_OK
        settings = json.loads(config.read_text())
        supervisor = Supervisor(settings["initial_primitive"], budget_from_certificate(slow))
        phis = np.loadtxt(tmp_path / "adaptive" / "forces.csv", delimiter=",", skiprows=1)[:, 3]
        deferred = sum(not supervisor.request(heading_policy(phi, settings["dead_zone"]))
                       for phi in phis[:-1])
        summary = json.loads((tmp_path / "adaptive" / "summary.json").read_text())
        assert deferred > 0
        assert summary["deferred_requests"] == deferred
        sigma = SwitchingSignal.from_csv(tmp_path / "adaptive" / "sigma.csv")
        assert np.array_equal(sigma.assignments, supervisor.signal.assignments)

        assert main(argv + ["--mode", "fixed:2", "--out-dir", str(tmp_path / "fixed")]) == EXIT_OK
        summary = json.loads((tmp_path / "fixed" / "summary.json").read_text())
        assert summary["deferred_requests"] == 0

    def test_manifest_records_the_certificate_the_run_used(self, tmp_path):
        simulate = tmp_path / "simulate"
        assert main(["simulate", "--library", "shipped-walker", "--certificate", "shipped",
                     "--episodes", "1", "--horizon", "1", "--out-dir", str(simulate)]) == EXIT_OK
        shipped = json.loads((simulate / "run_manifest.json").read_text())
        out = tmp_path / "shipped"
        assert main(["scenario", "--config", str(EXAMPLES / "straight_leader.json"),
                     "--out-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["inputs"]["certificate"] == shipped["inputs"]["certificate"]

        cert = tmp_path / "cfg" / "cert.json"
        config = self.curved_config_in(cert.parent, certificate="cert.json")
        shipped_certificate().save(cert)
        out = tmp_path / "from_config"
        assert main(["scenario", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["inputs"]["certificate"] == {
            "path": str(cert), "sha256": hashlib.sha256(cert.read_bytes()).hexdigest()}

    def test_summary_reports_the_largest_disturbance(self, tmp_path):
        assert main(["scenario", "--config", str(EXAMPLES / "curved_leader.json"),
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        forces = np.loadtxt(tmp_path / "forces.csv", delimiter=",", skiprows=1)
        ids = SwitchingSignal.from_csv(tmp_path / "sigma.csv").assignments
        coupling = {p.id: p.force_coupling.tolist() for p in shipped_stride_primitives()}
        norms = []
        for (_, fx, fy, _), pid in zip(forces.tolist(), ids.tolist()):
            (c00, c01), (c10, c11) = coupling[pid]
            norms.append(math.hypot(c00 * fx + c01 * fy, c10 * fx + c11 * fy))
        summary = json.loads((tmp_path / "summary.json").read_text())
        # The products are stride_update's own; two hypot implementations
        # may still differ in the last bit.
        assert summary["max_disturbance"] == pytest.approx(max(norms), rel=1e-15)
        assert summary["max_disturbance"] == pytest.approx(0.0149, abs=5e-5)

    def test_diverging_ablation_names_the_stride_and_the_basin_exit(self, tmp_path, capsys):
        # Turning right at every stride, the ablated walker falls behind a long
        # straight leader; the growing force drives the reduced state out of
        # the basins and the quadratic map then diverges until the position
        # overflows.
        config = json.loads((EXAMPLES / "straight_leader.json").read_text())
        config["strides"] = 600
        config["leader"]["waypoints"] = [[0.0, 0.0], [0.65 * 0.5 * 600 + 10.0, 0.0]]
        path = tmp_path / "long_leader.json"
        path.write_text(json.dumps(config))
        code = main(["scenario", "--config", str(path), "--mode", "fixed:0",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        found = re.fullmatch(r"error: stride (\d+): position must be finite; the reduced "
                             r"state left the basin intersection at stride (\d+)\n", err)
        assert found, err
        failed, left = map(int, found.groups())
        assert 0 < left < failed
        # The strides before the failing one run, and their trace leaves the
        # basin intersection first at the reported boundary.
        config["strides"] = failed
        trace = run_scenario(load_scenario(config, mode_override="fixed:0"))
        assert np.all(trace.in_all_basins[:left]) and not trace.in_all_basins[left]


_POSE_LIST_CONFIG = json.loads((EXAMPLES / "straight_leader.json").read_text())
_POSE_LIST_CONFIG["initial_pose"] = [0, 0]
_MALFORMED = {
    "library": {"entry-not-object": b'{"primitives": ["x"]}',
                "primitives-not-array": b'{"primitives": 5}',
                "not-utf8": b'\xff{"primitives": []}'},
    "certificate": {"no-fields": b'{"format": "switchcert-certificate"}',
                    "not-utf8": b"\xff{}"},
    "config": {"list": b"[1, 2]",
               "pose-list": json.dumps(_POSE_LIST_CONFIG).encode(),
               "not-utf8": b"\xff{}"},
}
# Every subcommand that reads each kind of document; BAD is the malformed file.
_READERS = {
    "library": [["certify", "--library", "BAD"],
                ["simulate", "--library", "BAD", "--certificate", "shipped"]],
    "certificate": [["simulate", "--library", "shipped-walker", "--certificate", "BAD"],
                    ["scenario", "--config", str(EXAMPLES / "straight_leader.json"),
                     "--certificate", "BAD"]],
    "config": [["scenario", "--config", "BAD"]],
}


@pytest.mark.parametrize(
    "body, argv",
    [
        pytest.param(body, argv, id=f"{kind}-{case}-{argv[0]}")
        for kind, cases in _MALFORMED.items()
        for case, body in cases.items()
        for argv in _READERS[kind]
    ],
)
def test_malformed_document_is_a_one_line_input_error(tmp_path, capsys, body, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    argv = [str(bad) if a == "BAD" else a for a in argv]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(bad) in err
    assert "Traceback" not in err


class TestArgumentErrors:
    def test_unknown_subcommand_is_an_input_error(self):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_missing_required_argument_is_an_input_error(self):
        assert main(["certify"]) == EXIT_INPUT

    def test_certify_has_no_method_option(self, tmp_path, capsys):
        # nor a --config option, which only scenario reads
        for option in (["--method", "grid"], ["--config", "x"]):
            argv = ["certify", "--library", "shipped-walker", *option]
            assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_INPUT
            assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
    def test_bad_seed_is_an_input_error_before_anything_runs(
        self, tmp_path, capsys, monkeypatch, seed
    ):
        monkeypatch.setattr(cli, "read_document", lambda *a: pytest.fail("input was read"))
        out = tmp_path / "out"
        argv = ["certify", "--library", "shipped-walker", "--margin-trials", "5",
                "--seed", seed, "--out-dir", str(out)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"argument --seed: seed must be a nonnegative integer, got '{seed}'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_seed_from_2_128_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "read_document", lambda *a: pytest.fail("input was read"))
        out = tmp_path / "out"
        argv = ["simulate", "--library", "shipped-walker", "--certificate", "shipped",
                "--out-dir", str(out)]
        assert main(argv + ["--seed", str(2**128)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"argument --seed: seed must be below 2**128, got '{2**128}'" in err
        assert "Traceback" not in err
        monkeypatch.setenv("SWITCHCERT_SEED", str(2**128 + 5))
        assert main(argv) == EXIT_INPUT
        assert f"seed must be below 2**128, got '{2**128 + 5}'" in capsys.readouterr().err
        assert not out.exists()
        assert cli.build_parser().parse_args(argv + ["--seed", str(2**128 - 1)]).seed == 2**128 - 1

    def test_bad_seed_from_the_environment_is_an_input_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("SWITCHCERT_SEED", "abc")
        monkeypatch.setattr(cli, "read_document", lambda *a: pytest.fail("input was read"))
        argv = ["simulate", "--library", "shipped-walker", "--certificate", "shipped",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_INPUT
        assert "seed must be a nonnegative integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # an explicit flag wins over the environment, and a good value is read
        assert cli.build_parser().parse_args(argv + ["--seed", "3"]).seed == 3
        monkeypatch.setenv("SWITCHCERT_SEED", "4294967296")
        assert cli.build_parser().parse_args(argv).seed == 2**32

    def test_console_entry_point_reports_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "switchcert.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("certify", "validate", "simulate", "scenario"):
            assert name in proc.stdout


SURFACE_ARGV = [["--help"], *([name, "--help"] for name in cli._SUBCOMMANDS), [],
                ["frobnicate"], ["--bogus"], ["--seed", "3", "validate"], ["validate"],
                ["validate", "--signal", "s.csv", "--n0", "1", "--na", "1", "--bogus"],
                ["simulate", "--episodes", "x"], ["scenario", "--seed", "-1"]]


class TestParserSurface:
    @pytest.mark.parametrize("argv", SURFACE_ARGV, ids=" ".join)
    def test_main_answers_as_the_full_parser(self, capsys, argv):
        code = main(argv)
        seen = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert (code, seen.out, seen.err) == (int(exc.value.code or 0), full.out, full.err)

    def test_a_known_command_builds_only_its_own_subparser(self, tmp_path, monkeypatch):
        built = []

        def recorded(name, add_options):
            def add(p):
                built.append(name)
                add_options(p)
            return add

        for name, (summary, func, add_options) in list(cli._SUBCOMMANDS.items()):
            monkeypatch.setitem(cli._SUBCOMMANDS, name,
                                (summary, func, recorded(name, add_options)))
        for name in cli._SUBCOMMANDS:
            built.clear()
            assert main([name, "--help"]) == EXIT_OK
            assert built == [name]
        built.clear()
        path = tmp_path / "signal.csv"
        SwitchingSignal((0, 1, 1)).to_csv(path)
        assert main(["validate", "--signal", str(path), "--n0", "1", "--na", "1"]) == EXIT_OK
        assert built == ["validate"]
        built.clear()
        assert main(["--help"]) == EXIT_OK
        assert built == list(cli._SUBCOMMANDS)


class TestDeterminism:
    def run_twice(self, argv_builder, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(argv_builder(first)) == main(argv_builder(second))
        left = read_outputs(first)
        right = read_outputs(second)
        assert left.keys() == right.keys()
        for name in left:
            assert left[name] == right[name], name

    def test_certify_is_byte_deterministic(self, tmp_path, single_library_path):
        self.run_twice(
            lambda out: [
                "certify",
                "--library",
                str(single_library_path),
                "--out-dir",
                str(out),
            ],
            tmp_path,
        )

    def test_validate_is_byte_deterministic(self, tmp_path):
        signal = tmp_path / "signal.csv"
        SwitchingSignal((0, 1, 1, 0, 2, 2)).to_csv(signal)
        self.run_twice(
            lambda out: [
                "validate",
                "--signal",
                str(signal),
                "--n0",
                "2",
                "--na",
                "1.5",
                "--out-dir",
                str(out),
            ],
            tmp_path,
        )

    def test_simulate_is_byte_deterministic(self, tmp_path):
        self.run_twice(
            lambda out: [
                "simulate",
                "--library",
                "shipped-walker",
                "--certificate",
                "shipped",
                "--episodes",
                "15",
                "--horizon",
                "40",
                "--amplitude",
                "0.05",
                "--seed",
                "3",
                "--keep-traces",
                "2",
                "--out-dir",
                str(out),
            ],
            tmp_path,
        )

    def test_scenario_is_byte_deterministic(self, tmp_path):
        self.run_twice(
            lambda out: [
                "scenario",
                "--config",
                str(EXAMPLES / "curved_leader.json"),
                "--out-dir",
                str(out),
            ],
            tmp_path,
        )


def output_digests(out_dir: Path) -> dict:
    """sha256 of every file of ``out_dir`` but the run manifest."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir()) if path.name != "run_manifest.json"}


# The files `simulate --library shipped-walker --certificate shipped --episodes
# 130 --amplitude 0.1 --seed 11 --keep-traces 3` writes at three horizons,
# pinned while the supervisor still stepped once per step, the norms came
# from np.linalg.norm and the observer read values by take_along_axis.  130
# episodes fill two blocks of the draw and part of a third.
SHIPPED_CAMPAIGN_DIGESTS = {
    1: {
        "campaign_summary.json":
            "834db5798fe1d48649d93536b952609e538cf0c76b1e054d85680cdab29b6fbe",
        "trace_0000.csv":
            "001acc40ae79f2829f2b419baab924f5a819c2b5c33aaaabc48c900f3c1c312f",
        "trace_0001.csv":
            "f4699b4fa81c453e026d243e7fd43cdd75003663a06aac210321d35fb2461c71",
        "trace_0002.csv":
            "3ee9edfda8c3ce8cbc745380018f73fe6ebcbda3726db1db7071563c88d5a782",
    },
    7: {
        "campaign_summary.json":
            "fa50eab8453d4dcf8da25b739e48bdd517f87bf9ed65ecfda00d31bf51eadf61",
        "trace_0000.csv":
            "eb9cf91175eee30120d9b4beae77344ef769b24f10c34a162e775dfe5798a1bb",
        "trace_0001.csv":
            "e4d11f300b722ca9cc9f5678c7f74112cea254448af3dc104ac7bd03da4305e6",
        "trace_0002.csv":
            "a964d8d33dff9c0d7b57fa353ea97ed6d5c6f216d1a8d0c3b8093b39e7a9be41",
    },
    201: {
        "campaign_summary.json":
            "55620fe21a7f8ce800365299f1e73ea3dff4ab6968cf72c4b169b5e522fdbc40",
        "trace_0000.csv":
            "93ef537f3b80a5a75b6fa80a0c953829b862e5f2d9fa1b4b61d943fd814ce911",
        "trace_0001.csv":
            "9cee8bccc432ebf272043b7854422be8b199417a5511097d93542e9f6e42c56c",
        "trace_0002.csv":
            "4d2d6dd90d05f8fca3006abca9a342861f109d616dc183f079194984f4b8c36c",
    },
}
# certify, then simulate --episodes 150 --horizon 30 --amplitude 0.05 --seed 4
# --keep-traces 2, on the 12-D library of test_simulation; its 12-D
# disturbances take the sum of squares' eight running sums.
TWELVE_DIMENSIONAL_DIGESTS = {
    "campaign_summary.json":
        "773637772410c4fec624e29c1421aa90899cb77a762a4c747950d50ee7100214",
    "certificate.json":
        "a50eb5ebb70e3b9623adf3cffb5106b32fa20168bca0d78f3b58c86fcc4bfe68",
    "trace_0000.csv":
        "859f89d98f87be45467ab4c1d8e8efe4334c7cd57bc89e82ab4fa6d11f11ed48",
    "trace_0001.csv":
        "c3c2a5a4f2ae38c1d6d6dc151c957097546bcafb31b283bce3d8d2d48a6fc21f",
}


class TestCampaignBytes:
    """Campaign files pinned byte for byte: the draw, the supervisor and the
    observer may change how they compute, never what."""

    @pytest.mark.parametrize("keep", range(4))
    @pytest.mark.parametrize("horizon", [1, 7, 201])
    def test_shipped_campaign_files(self, tmp_path, horizon, keep):
        assert main(["simulate", "--library", "shipped-walker", "--certificate", "shipped",
                     "--episodes", "130", "--horizon", str(horizon), "--amplitude", "0.1",
                     "--seed", "11", "--keep-traces", str(keep), "--out-dir", str(tmp_path)]) == EXIT_OK
        expected = SHIPPED_CAMPAIGN_DIGESTS[horizon]
        names = ["campaign_summary.json"] + [f"trace_{i:04d}.csv" for i in range(keep)]
        assert output_digests(tmp_path) == {name: expected[name] for name in names}

    def test_twelve_dimensional_campaign_files(self, tmp_path):
        library = tmp_path / "twelve.json"
        save_library(twelve_dimensional_library(), library)
        out = tmp_path / "out"
        assert main(["certify", "--library", str(library), "--out-dir", str(out)]) == EXIT_OK
        for name in ("certify_report.txt", "run_manifest.json"):
            (out / name).unlink()  # the report names the library's path
        assert main(["simulate", "--library", str(library), "--certificate",
                     str(out / "certificate.json"), "--episodes", "150", "--horizon", "30",
                     "--amplitude", "0.05", "--seed", "4", "--keep-traces", "2",
                     "--out-dir", str(out)]) == EXIT_OK
        assert output_digests(out) == TWELVE_DIMENSIONAL_DIGESTS

"""End-to-end tests of the command line: configs, outputs, exit codes."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cvmbqc
from cvmbqc import cluster as clus
from cvmbqc import gates, laser, multiplex, runner
from cvmbqc.quadrature import expr_covariance, x_quad, y_quad
from cvmbqc.runner import ConfigError, main, parse_angle

SRC = str(Path(cvmbqc.__file__).resolve().parents[1])


#: Adjacency rows of a 50-node star, hub first.
STAR_50 = "; ".join(" ".join("1" if (i == 0) != (j == 0) else "0" for j in range(50))
                    for i in range(50))


def write_config(tmp_path, body):
    path = tmp_path / "exp.ini"
    path.write_text(body)
    return str(path)


def run_python(args, cwd):
    """Run a fresh interpreter that imports this checkout's cvmbqc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("0.5", 0.5),
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/2", math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("-3pi/4", -3 * math.pi / 4),
        ("0.5pi", 0.5 * math.pi),
        ("2*pi/3", 2 * math.pi / 3),
    ])
    def test_parse_angle(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-15)

    def test_parse_angle_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_angle("two pies")


class TestSpectrum:
    def test_run_and_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[spectrum]\nkappa = 1.0\npoints = 40\n")
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] boundary_value_at_kappa" in out
        record = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        assert record["passed"] is True
        assert record["scalars"]["four_y_var_at_kappa"] == 0.5
        csv = (tmp_path / "out" / "spectrum_sweep.csv").read_text().splitlines()
        assert csv[0] == "omega,y_var,x_var,four_y_var"
        # the row at omega = kappa carries four_y_var exactly 0.5
        rows = [line.split(",") for line in csv[1:]]
        at_kappa = [r for r in rows if float(r[0]) == 1.0]
        assert at_kappa and float(at_kappa[0][3]) == 0.5

    def test_missing_kappa_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[spectrum]\npoints = 40\n")
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "kappa" in capsys.readouterr().err

    def test_missing_section_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[gate]\ntheta_in = 0.9\n")
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_nonzero_mu_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[spectrum]\nkappa = 1.0\nmu = 0.05\n")
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", ["0", "0.0"])
    def test_mu_is_set_but_never_read(self, tmp_path, capsys, mu):
        cfg = write_config(tmp_path, f"[spectrum]\nkappa = 1.0\nmu = {mu}\n")
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "config error: [spectrum] mu is set but never read\n"

    def test_oracle_verdict_fails_on_a_perturbed_closed_form(self, tmp_path, monkeypatch,
                                                              capsys):
        cfg = write_config(tmp_path, "[spectrum]\nkappa = 1.3\npoints = 40\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
        real = laser.y_spectral_variance
        monkeypatch.setattr(laser, "y_spectral_variance",
                            lambda omega, kappa: real(omega, kappa) * (1.0 + 1e-5))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
        assert "[FAIL] oracle_agreement" in capsys.readouterr().out
        record = json.loads((tmp_path / "bad" / "spectrum.json").read_text())
        verdicts = {v["name"]: v for v in record["verdicts"]}
        assert verdicts["oracle_agreement"]["passed"] is False
        assert record["scalars"]["oracle_rel_error"] > runner.ORACLE_REL_TOL


class TestClusterCheck:
    def test_vacuum_fails_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[cluster-check]\ny_variance = 0.25\n")
        code = main(["cluster-check", "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 1  # not entangled: verdict failure
        assert "[FAIL] entangled[v=0.25]" in out
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text())
        assert record["verdicts"][0]["value"] == 1.0  # nullifier sum for vacuum

    def test_squeezed_passes(self, tmp_path):
        cfg = write_config(tmp_path, "[cluster-check]\ny_variance = 0.01\n")
        code = main(["cluster-check", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text())
        assert record["scalars"]["min_squeezing_threshold"] == 0.25

    def test_custom_graph(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\ny_variance = 0.01\n")
        code = main(["cluster-check", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text())
        assert record["scalars"]["min_squeezing_threshold"] == 0.2

    def test_sweep_factorises_once(self, tmp_path, monkeypatch):
        real = np.linalg.eigh
        calls = []

        def counted(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        cfg = write_config(tmp_path, "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\n"
                                     "y_variance = 0.01, 0.05, 0.1\n")
        # the record before it is written, with its sums unrounded
        record = runner.run(runner.ExperimentConfig(
            "cluster-check", runner.load_params(cfg, "cluster-check"), None,
            tmp_path / "o", "json"))
        assert calls == [(3, 3)]
        assert record.passed
        checks = record.series["checks"]
        assert checks["y_variance"] == [0.01, 0.05, 0.1]
        for v, got in zip(checks["y_variance"], checks["nullifier_sum"]):
            graph = clus.ClusterGraph.chain(3)
            state = clus.generate_cluster([v] * 3, graph)
            assert got == float(np.trace(expr_covariance(clus.nullifiers(graph), state.cov)))

    def test_source_above_edge_threshold_exits_1(self, tmp_path, capsys):
        # a 3-node chain has threshold 1/5; vacuum sources (1/4) are above it
        cfg = write_config(tmp_path, "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\n"
                                     "y_variance = 0.01, 0.25\n")
        assert main(["cluster-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "[FAIL] below_edge_threshold[v=0.25]" in capsys.readouterr().out
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text())
        verdicts = [(v["name"], v["passed"]) for v in record["verdicts"]]
        assert verdicts == [("below_edge_threshold[v=0.01]", True),
                            ("nullifier_covariance[v=0.01]", True),
                            ("below_edge_threshold[v=0.25]", False),
                            ("nullifier_covariance[v=0.25]", True)]
        assert record["passed"] is False

    def test_guard_band_fails_against_the_bound_it_prints(self, tmp_path, capsys):
        # three sums that print as 0.5 or just below it; names keep every digit
        cfg = write_config(tmp_path, "[cluster-check]\ny_variance = "
                                     "0.1249999999999999, 0.12499999999995, 0.124999999999\n")
        assert main(["cluster-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        bound = "0.499999999999 (VLF_BOUND - VLF_GUARD)"
        assert capsys.readouterr().out.splitlines()[:3] == [
            f"[FAIL] entangled[v=0.1249999999999999]: value 0.5 < {bound}",
            f"[FAIL] entangled[v=0.12499999999995]: value 0.5 < {bound}",
            f"[PASS] entangled[v=0.124999999999]: value 0.499999999996 < {bound}"]
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text())
        assert record["series"]["checks"]["verdict"] == [False, False, True]
        assert {v["threshold"] for v in record["verdicts"]} == {0.499999999999}
        assert clus.VLF_GUARDED_BOUND == clus.VLF_BOUND - clus.VLF_GUARD

    @pytest.mark.parametrize("graph,random_q", [
        ("0 1 0; 1 0 1; 0 1 0", False),
        ("0 1 1 1; 1 0 0 0; 1 0 0 0; 1 0 0 0", False),
        ("0 1 0 0 1; 1 0 1 0 0; 0 1 0 1 0; 0 0 1 0 1; 1 0 0 1 0", False),
        # the closed form holds for any orthogonal Q, here a random one
        ("0 1 0; 1 0 1; 0 1 0", True),
    ], ids=["chain3", "star4", "ring5", "chain3-random-q"])
    def test_nullifier_covariance_reads_the_generated_state(self, tmp_path, monkeypatch,
                                                            graph, random_q):
        if random_q:
            q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
            real = clus.cluster_unitary
            monkeypatch.setattr(clus, "cluster_unitary", lambda g: real(g) @ q)
        cfg = write_config(tmp_path, f"[cluster-check]\ngraph = {graph}\n"
                                     "y_variance = 0.001, 0.05, 0.15\n")
        record = runner.run(runner.ExperimentConfig(
            "cluster-check", runner.load_params(cfg, "cluster-check"), None,
            tmp_path / "o", "json"))
        g = clus.ClusterGraph.from_text(graph)
        adj = g.adjacency.astype(float)
        states = [v for v in record.verdicts if v.name.startswith("nullifier_covariance")]
        assert [v.name for v in states] == [f"nullifier_covariance[v={v!r}]"
                                            for v in (0.001, 0.05, 0.15)]
        for verdict, v in zip(states, (0.001, 0.05, 0.15)):
            null_cov = expr_covariance(clus.nullifiers(g), clus.generate_cluster([v] * g.n_nodes,
                                                                                 g).cov)
            want = v * (np.eye(g.n_nodes) + adj @ adj)
            assert verdict.value == np.max(np.abs(null_cov - want)) / np.max(want)
            assert (verdict.threshold, verdict.comparison) == (1e-9, "<=")
            assert verdict.constant == "NULLIFIER_COV_REL_TOL"
            assert verdict.passed
        assert runner.NULLIFIER_COV_REL_TOL == 1e-9

    def test_a_pair_emits_no_nullifier_covariance(self, tmp_path):
        cfg = write_config(tmp_path, "[cluster-check]\ny_variance = 0.05, 0.01\n")
        assert main(["cluster-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text())
        assert [v["name"] for v in record["verdicts"]] == ["entangled[v=0.05]",
                                                          "entangled[v=0.01]"]

    def test_a_wrong_state_fails_the_row_below_the_threshold(self, tmp_path, monkeypatch,
                                                             capsys):
        # sources of twice the asked y variance: the asked value is below
        # the edge threshold, the state is not the one asked for
        real = clus.generate_cluster
        monkeypatch.setattr(clus, "generate_cluster",
                            lambda vy, g, *args: real([2 * v for v in vy], g, *args))
        cfg = write_config(tmp_path, "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\n"
                                     "y_variance = 0.05\n")
        assert main(["cluster-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().out.splitlines()[:2] == [
            "[PASS] below_edge_threshold[v=0.05]: value 0.05 < 0.2 "
            "(min_squeezing_threshold(graph))",
            "[FAIL] nullifier_covariance[v=0.05]: value 1 <= 1e-09 (NULLIFIER_COV_REL_TOL)"]
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text())
        # the row's verdict column is false when any verdict of the row fails
        assert record["series"]["checks"]["verdict"] == [False]

    @pytest.mark.parametrize("variances,value", [
        ("0.05, 0.05", "0.05"), ("0.01, 0.1, 0.010", "0.01"), ("0, -0.0", "-0.0")])
    def test_repeated_variance_is_a_config_error(self, tmp_path, capsys, variances, value):
        # each variance names a verdict, and names must be unique
        cfg = write_config(tmp_path, f"[cluster-check]\ny_variance = {variances}\n")
        assert main(["cluster-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: [cluster-check] y_variance repeats the value {value}"]
        assert not (tmp_path / "o").exists()


class TestDelayedCheck:
    def test_grid_reduction(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[delayed-check]\nkappa = 1.0\nduration = 5.0\ngap = 1.0\n"
            "multiples = 1, 2, 5, 50\nk_values = -3,-2,-1,0,1,2,3\n"
            "x_variance = 10\n"))
        code = main(["delayed-check", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "delayed-check.json").read_text())
        assert record["scalars"]["offgrid_entangled"] is False
        grid = record["series"]["grid"]
        assert all(grid["reduced_exactly"])

    def test_integer_literals_read_exactly(self, tmp_path):
        # 2**53 + 1 is no float: read through one it became 2**53
        cfg = write_config(tmp_path, (
            "[delayed-check]\nkappa = 1.0\nduration = 5.0\ngap = 1.0\n"
            "multiples = 9007199254740993\nk_values = 0, 1.0\n"))
        assert main(["delayed-check", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1)
        record = json.loads((tmp_path / "o" / "delayed-check.json").read_text())
        assert record["inputs"]["multiples"] == [2**53 + 1]
        assert record["inputs"]["k_values"] == [0, 1]


class TestGate:
    def test_record_and_verdicts(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\n"
            "y_variance_1 = 0.05\ny_variance_2 = 0.07\n"))
        code = main(["gate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "gate.json").read_text())
        assert {"signal_matrix", "noise_covariance", "output_covariance",
                "oracle_covariance", "residuals"} <= set(record["scalars"])
        noise = np.array(record["scalars"]["noise_covariance"])
        np.testing.assert_allclose(noise, np.diag([0.1, 0.14]), atol=1e-9)

    def test_sampling_requires_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, (
            "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n"
            "sampling = true\n"))
        code = main(["gate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_sampling_zeroes_offsets_and_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n"
            "sampling = true\n"))
        code = main(["gate", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--seed", "7"])
        assert code == 0
        first = (tmp_path / "a" / "gate.json").read_bytes()
        main(["gate", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "7"])
        second = (tmp_path / "b" / "gate.json").read_bytes()
        assert first == second  # byte-for-byte determinism
        record = json.loads(first)
        assert record["scalars"]["sampling"]["corrected_offsets"] == [0.0, 0.0]
        assert list(record["scalars"]["sampling"]["currents"]) == ["i_1", "i_in"]
        main(["gate", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "8"])
        assert (tmp_path / "c" / "gate.json").read_bytes() != first

    def test_sampled_currents_are_pinned(self, tmp_path):
        # the draw itself, on a correlated input block: a change to it moves
        # these numbers, and must say so
        cfg = write_config(tmp_path, (
            "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n"
            "input_cov = 0.5, 0.1, 0.3\nsampling = true\n"))
        assert main(["gate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "7"]) == 0
        sampling = json.loads((tmp_path / "o" / "gate.json").read_text())["scalars"]["sampling"]
        assert sampling["currents"] == pytest.approx(
            {"i_1": -557935.255378, "i_in": 186814.808471}, rel=1e-12)
        assert sampling["feed_forward_shifts"] == pytest.approx(
            [0.706592193055, -0.677908467635], rel=1e-12)

    def test_screen_applies_the_guarded_two_node_bound(self, tmp_path, capsys):
        # nullifier sum 0.4999999999998: below 1/2 but within VLF_GUARD of it,
        # so cluster-check's entangled verdict fails at this variance
        v = 0.12499999999995
        assert not gates.TwoNodeCluster.from_y_variances(v, v).entangled
        body = f"[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = {v!r}\n"
        cfg = write_config(tmp_path, body)
        assert main(["gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "VLF_GUARDED_BOUND" in capsys.readouterr().err
        cfg = write_config(tmp_path, body + "allow_unentangled = true\n")
        with pytest.warns(UserWarning, match="unentangled"):
            assert main(["gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestCompose:
    def test_explicit_settings(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[compose]\ntheta_in_1 = 0.9\ntheta_1_1 = 0.35\n"
            "theta_in_2 = 1.4\ntheta_1_2 = 0.6\ny_variance = 0.05\n"))
        code = main(["compose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0

    def test_target_solving(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.05\n"))
        code = main(["compose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "compose.json").read_text())
        assert record["scalars"]["solver_residual"] <= 1e-6
        signal = np.array(record["scalars"]["signal_matrix"])
        np.testing.assert_allclose(signal, [[1.0, 0.5], [0.0, 1.0]], atol=1e-8)

    def test_sampling_names_the_currents_by_step(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.05\nsampling = true\n"))
        code = main(["compose", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "7"])
        assert code == 0
        record = json.loads((tmp_path / "o" / "compose.json").read_text())
        assert list(record["scalars"]["sampling"]["currents"]) == [
            "i_1[1]", "i_1[2]", "i_in[1]", "i_in[2]"]

    def test_second_step_variance_without_the_first(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.05\n"
            "y_variance_2_step1 = 0.1\n"))
        assert main(["compose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        record = json.loads((tmp_path / "o" / "compose.json").read_text())
        assert record["inputs"]["y_variances"] == [[0.05, 0.1], [0.05, 0.05]]

    def test_source_variances_fall_back_key_by_key(self, tmp_path):
        # y_variance_<i>_step<s>, then y_variance_<i>, then y_variance, then 0.05
        cfg = write_config(tmp_path, (
            "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance_1 = 0.03\n"
            "y_variance_2_step1 = 0.1\n"))
        assert main(["compose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        record = json.loads((tmp_path / "o" / "compose.json").read_text())
        assert record["inputs"]["y_variances"] == [[0.03, 0.1], [0.03, 0.05]]


class TestOracleVerdictCanFail:
    """A wrong feed-forward gain in the oracle must fail the agreement verdict."""

    @pytest.mark.parametrize("kind,body", [
        ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n"),
        ("compose", "[compose]\ntheta_in_1 = 0.9\ntheta_1_1 = 0.35\n"
                    "theta_in_2 = 1.4\ntheta_1_2 = 0.6\ny_variance = 0.05\n"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.05\n"),
    ], ids=["gate", "compose-angles", "compose-target"])
    def test_flipped_gain_sign_exits_1(self, tmp_path, monkeypatch, capsys, kind, body):
        cfg = write_config(tmp_path, body)
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
        # the gains that the oracle reads
        real = gates._gains

        def flipped(setting, *trig):
            gains = real(setting, *trig).copy()
            gains[0, 0] = -gains[0, 0]
            return gains

        monkeypatch.setattr(gates, "_gains", flipped)
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "bad")])
        assert code == 1
        assert "[FAIL] oracle_agreement" in capsys.readouterr().out
        record = json.loads((tmp_path / "bad" / f"{kind}.json").read_text())
        verdicts = {v["name"]: v for v in record["verdicts"]}
        assert verdicts["oracle_agreement"]["passed"] is False
        assert record["passed"] is False
        assert record["scalars"]["residuals"]["oracle"] > runner.STEP_ORACLE_TOL


class TestFeedForwardVerdictCanFail:
    """Every sampling kind judges the corrected offsets of every output."""

    BODIES = {
        "gate": "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n",
        "compose": "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.05\n",
        "pipeline": ("[pipeline]\nduration = 5.0\ngap = 1.0\nlanes = 2\n"
                     "y_variance = 0.05\nsettings_lane0 = 0.9, 0.35; 1.4, 0.6\n"
                     "settings_lane1 = 1.0, 0.3; 1.2, 0.5\n"),
    }

    @pytest.mark.parametrize("kind", ["compose", "pipeline"])  # gate: TestGate
    def test_needs_a_seed(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, self.BODIES[kind] + "sampling = true\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"[{kind}] sampling mode needs --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_seed_is_checked_before_any_compute(self, tmp_path, monkeypatch, capsys, kind):
        def no_compute(*args, **kwargs):
            raise AssertionError("the engine ran before the seed was checked")

        monkeypatch.setattr(gates, "run_steps", no_compute)
        monkeypatch.setattr(multiplex, "simulate_pipeline", no_compute)
        cfg = write_config(tmp_path, self.BODIES[kind] + "sampling = true\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: [{kind}] sampling mode needs --seed\n"

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_leftover_offset_in_the_last_output_exits_1(self, tmp_path, monkeypatch,
                                                         capsys, kind):
        cfg = write_config(tmp_path, self.BODIES[kind] + "sampling = true\n")
        args = ["--config", cfg, "--seed", "5"]
        assert main([kind, *args, "--out", str(tmp_path / "ok")]) == 0
        real = gates.feed_forward
        calls = []

        def leaky_last(output, currents):
            calls.append(output)
            out = real(output, currents)
            if len(calls) < (2 if kind == "pipeline" else 1):
                return out
            return replace(out, offset=out.offset + [0.0, -2e-3])

        monkeypatch.setattr(gates, "feed_forward", leaky_last)
        assert main([kind, *args, "--out", str(tmp_path / "bad")]) == 1
        assert "[FAIL] feed_forward_offsets_zero" in capsys.readouterr().out
        record = json.loads((tmp_path / "bad" / f"{kind}.json").read_text())
        verdicts = {v["name"]: v for v in record["verdicts"]}
        assert verdicts["feed_forward_offsets_zero"]["value"] == 2e-3

    @pytest.mark.parametrize("kind", ["compose", "gate"])
    def test_leftover_terms_reach_the_sampling_block(self, tmp_path, monkeypatch, kind):
        """The record's corrected offsets and current counts are the
        corrected output's ``offset`` and nonzero ``classical`` entries."""
        cfg = write_config(tmp_path, self.BODIES[kind] + "sampling = true\n")
        real = gates.feed_forward

        def leaky(output, currents):
            out = real(output, currents)
            classical = out.classical.copy()
            classical[1, -1] = 3e-3
            return replace(out, offset=out.offset + [0.0, -2e-3], classical=classical)

        monkeypatch.setattr(gates, "feed_forward", leaky)
        assert main([kind, "--config", cfg, "--seed", "5", "--out", str(tmp_path / "o")]) == 1
        record = json.loads((tmp_path / "o" / f"{kind}.json").read_text())
        sampling = record["scalars"]["sampling"]
        assert sampling["corrected_offsets"] == [0.0, -2e-3]
        assert sampling["corrected_symbol_count"] == [0, 1]
        verdicts = {v["name"]: v for v in record["verdicts"]}
        assert verdicts["feed_forward_offsets_zero"]["value"] == 3e-3


class TestExcessFactorAtLeastOne:
    """Every kind that reads excess_factor refuses one below 1 with the same
    config error, and runs at 1."""

    BODIES = {"spectrum": "[spectrum]\nkappa = 1.0\npoints = 40\n",
              **TestFeedForwardVerdictCanFail.BODIES}

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_below_one_exits_2(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, self.BODIES[kind] + "excess_factor = 0.5\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: excess-noise factor must be >= 1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_one_runs_to_its_verdicts(self, tmp_path, kind):
        # [spectrum] exits 1 here: x_var * y_var rounds to just below the
        # exact 1/16 that its uncertainty_product verdict compares with
        cfg = write_config(tmp_path, self.BODIES[kind] + "excess_factor = 1\n")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == (1 if kind == "spectrum" else 0)
        assert (tmp_path / "o" / f"{kind}.json").exists()


class TestSamplingChangesOnlyItsOwnFields:
    """Sampling adds the ``sampling`` block and the feed-forward verdict to a
    record, and changes nothing else in it."""

    @staticmethod
    def run(tmp_path, kind, sampling):
        """The record of one run, and the bytes of every other file it writes."""
        out = tmp_path / sampling
        cfg = write_config(tmp_path, TestFeedForwardVerdictCanFail.BODIES[kind]
                           + f"sampling = {sampling}\n")
        assert main([kind, "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        return json.loads(files.pop(f"{kind}.json")), files

    @pytest.mark.parametrize("kind", sorted(TestFeedForwardVerdictCanFail.BODIES))
    def test_record_equals_the_unsampled_one(self, tmp_path, kind):
        unsampled, unsampled_files = self.run(tmp_path, kind, "false")
        sampled, sampled_files = self.run(tmp_path, kind, "true")
        assert sampled_files == unsampled_files
        # a pipeline judges its samples without recording them
        assert ("sampling" in sampled["scalars"]) == (kind != "pipeline")
        sampled["scalars"].pop("sampling", None)
        assert sampled["verdicts"].pop()["name"] == "feed_forward_offsets_zero"
        assert sampled == unsampled


class TestVerdict:
    @pytest.mark.parametrize("comparison,holds", [
        ("<", [True, True, False, False, False]), ("<=", [True, True, True, False, False]),
        ("==", [False, False, True, False, False]), (">=", [False, False, True, True, False])])
    def test_passed_is_the_recorded_comparison(self, comparison, holds):
        # on the unrounded numbers: 0.5 - 1e-15 prints as 0.5 but is below it
        assert [runner.Verdict("v", value, 0.5, comparison, "C").passed
                for value in (0.25, 0.5 - 1e-15, 0.5, 0.75, math.nan)] == holds

    def test_takes_no_pass_flag(self):
        with pytest.raises(TypeError):
            runner.Verdict("v", True, 0.25, 0.5, "<", "C")

    @pytest.mark.parametrize("value,threshold,printed,tied", [
        (0.5 - 1e-15, 0.5, ("0.499999999999999", "0.5"), True),
        (0.4999999999996, 0.5, ("0.4999999999996", "0.5"), True),
        (0.5, 0.5, ("0.5", "0.5"), False),
        (0.0, 0.0, ("0", "0"), False),
        (0.25, 0.5, ("0.25", "0.5"), False),
        (math.nan, math.nan, ("nan", "nan"), False)])
    def test_ties_in_print_show_every_digit(self, value, threshold, printed, tied):
        # only a tie of two different numbers changes the print, so the
        # passing 0 == 0 of feed_forward_offsets_zero still reads 0
        verdict = runner.Verdict("v", value, threshold, "<", "C")
        assert verdict.tied_in_print is tied
        assert verdict.printed() == printed
        assert verdict.line().endswith(f"value {printed[0]} < {printed[1]} (C)")

    def test_tie_on_the_edge_threshold_reads_as_it_was_judged(self, tmp_path, capsys):
        # 0.19999999999999998 prints as 0.2 in 12 digits, and the 3-node
        # chain's edge threshold is exactly 0.2
        cfg = write_config(tmp_path, "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\n"
                                     "y_variance = 0.19999999999999998\n")
        out = tmp_path / "o"
        assert main(["cluster-check", "--config", cfg, "--out", str(out),
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "[PASS] below_edge_threshold[v=0.19999999999999998]: "
            "value 0.19999999999999998 < 0.2 (min_squeezing_threshold(graph))")
        verdict, state = json.loads((out / "cluster-check.json").read_text())["verdicts"]
        assert (verdict["value"], verdict["threshold"]) == (0.19999999999999998, 0.2)
        assert state["name"] == "nullifier_covariance[v=0.19999999999999998]"
        assert (out / "cluster-check.csv").read_text().splitlines()[1] == (
            "below_edge_threshold[v=0.19999999999999998],0.19999999999999998,0.2,<,1")


class TestCz:
    def test_default_blocks_hit_target(self, tmp_path):
        cfg = write_config(tmp_path, "[cz]\n")
        code = main(["cz", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "cz.json").read_text())
        expected = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
        assert record["scalars"]["matrix"] == expected

    def test_custom_blocks(self, tmp_path):
        cfg = write_config(tmp_path, "[cz]\na = 1,0;0,1\nb = 1,0;0,1\n")
        code = main(["cz", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "cz.json").read_text())
        assert np.allclose(record["scalars"]["matrix"], np.eye(4))

    def test_half_specified_blocks_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "[cz]\na = 1,0;0,1\n")
        assert main(["cz", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestPipeline:
    BODY = ("[pipeline]\nduration = 5.0\ngap = 1.0\nlanes = 2\n"
            "y_variance = 0.05\n"
            "settings_lane0 = 0.9, 0.35; 1.4, 0.6\n"
            "settings_lane1 = 1.0, 0.3; 1.2, 0.5\n")

    def test_runs_and_writes_events(self, tmp_path):
        cfg = write_config(tmp_path, self.BODY)
        code = main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "pipeline.json").read_text())
        assert record["scalars"]["collisions"] == 0
        assert record["scalars"]["lane_isolation_residual"] <= 1e-12
        events = (tmp_path / "o" / "events.jsonl").read_text().splitlines()
        assert all(set(json.loads(line)) == {"t", "tick", "element", "lane", "action"}
                   for line in events)

    def test_large_input_passes_isolation_beyond_the_oracle_bound(self, tmp_path):
        """ROADMAP item 12: with an input of variance 1e4 the lanes pass
        lane_isolation, while the engine and the single-step oracle chained
        over each lane differ by more than LANE_ISOLATION_TOL, so judging the
        lanes against that oracle at the same bound would exit 1 here."""
        cfg = write_config(tmp_path, self.BODY + "input_cov = 10000, 0, 10000\n")
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        record = json.loads((tmp_path / "o" / "pipeline.json").read_text())
        assert {v["name"]: v["passed"] for v in record["verdicts"]}["lane_isolation"]
        p = runner.load_params(cfg, "pipeline")
        cluster, cov_in = runner._cluster(p), np.diag([1e4, 1e4])
        for lane in range(p["lanes"]):
            settings = [gates.HomodyneSetting(*pair) for pair in p[f"settings_lane{lane}"]]
            out = gates.run_steps((x_quad(0), y_quad(0)), [cluster] * len(settings), settings)
            oracle = cov_in
            for setting in settings:
                oracle = gates.single_step_covariance_oracle(oracle, cluster, setting)
            engine = gates.output_covariance(out, {0: cov_in})
            assert np.max(np.abs(engine - oracle)) > runner.LANE_ISOLATION_TOL

    def test_lane_collision_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # a slot rule that puts both lanes' steps in one slot
        monkeypatch.setattr(multiplex, "lane_slot", lambda lane, step, n_lanes: step)
        cfg = write_config(tmp_path, self.BODY)
        code = main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [pipeline] ")
        assert "collision" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_sampling_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, self.BODY + "sampling = true\n")
        code = main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "3"])
        assert code == 0

    def test_csv_format_writes_verdict_table(self, tmp_path):
        cfg = write_config(tmp_path, self.BODY)
        code = main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--format", "csv"])
        assert code == 0
        table = (tmp_path / "o" / "pipeline.csv").read_text().splitlines()
        assert table[0] == "name,value,threshold,comparison,passed"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_error_leaves_no_verdict_file(self, tmp_path, capsys, fmt):
        # the verdict files are written last, so a failed write of the event
        # log leaves no record that says the run passed
        (tmp_path / "o" / "events.jsonl").mkdir(parents=True)
        cfg = write_config(tmp_path, self.BODY)
        code = main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--format", fmt])
        assert code == 2
        assert "events.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "o" / "pipeline.json").exists()
        assert not (tmp_path / "o" / "pipeline.csv").exists()

    def test_integral_spellings_are_integers(self, tmp_path):
        cfg = write_config(tmp_path, self.BODY.replace("lanes = 2", "lanes = 2.0")
                           + "ticks_per_gap = 1e3\n")
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        record = json.loads((tmp_path / "o" / "pipeline.json").read_text())
        assert record["inputs"]["lanes"] == 2 and record["inputs"]["ticks_per_gap"] == 1000


class TestBadInputExitCode:
    """Inputs rejected by the runner or inside the library exit 2 with a
    config error line, never with a traceback."""

    @pytest.mark.parametrize("kind,text", [
        ("gate", "[gate]\ntheta_in = 0.3\ntheta_1 = 0.3\n"),
        ("compose", "[compose]\ntarget = 2, 0; 0, 1\n"),
        ("pipeline", "[pipeline]\nduration = 5.0\ngap = 1.0\nlanes = 2\n"
                     "ticks_per_gap = 0\n"
                     "settings_lane0 = 0.9, 0.35\nsettings_lane1 = 1.0, 0.3\n"),
        ("cluster-check", "[cluster-check]\ny_variance = -1\n"),
        ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = -1\n"),
        ("pipeline", "[pipeline]\nduration = 5.0\ngap = 1.0\nlanes = 0\n"),
        ("cz", "a = 1\n[cz]\n"),
        ("cz", "[cz]\na = 50%\n"),
        ("delayed-check", "[delayed-check]\nkappa = 1\nduration = 5\ngap = 1\nmultiples = 0\n"),
        ("delayed-check", "[delayed-check]\nkappa = 1\nduration = 0\ngap = 0\n"),
        ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ninput_cov = 1, 0, -1\n"),
        ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ninput_cov = 0.01, 0, 0.01\n"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\ninput_cov = 1, 0, -1\n"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\ninput_cov = 0.01, 0, 0.01\n"),
        ("pipeline", TestPipeline.BODY + "input_cov = 1, 0, -1\n"),
        ("pipeline", TestPipeline.BODY + "input_cov = 0.01, 0, 0.01\n"),
        ("cluster-check", "[cluster-check]\ny_variance =\n"),
        ("cluster-check", "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\ny_variance = 5e-324\n"),
        ("cluster-check", f"[cluster-check]\ngraph = {STAR_50}\ny_variance = 1e307\n"),
        ("gate", "[gate]\ntheta_in = 0\ntheta_1 = 0.35\ny_variance = 0\n"),
        ("gate", "[gate]\ntheta_in = pi/0\ntheta_1 = 0.35\n"),
        ("gate", "[gate]\ntheta_in = nan\ntheta_1 = 0.35\n"),
        ("cluster-check", "[cluster-check]\ny_variance = 0.05, inf\n"),
        ("compose", "[compose]\ntarget = nan, 0; 0, 1\n"),
        # R(0.7) diag(3e8, 1/3e8) R(-1.1): det 1 within rounding, residual far off
        ("compose", "[compose]\ntarget = 104078834.8964697, 204489895.9780269; "
                    "87664393.28543168, 172239463.30439582\n"),
        ("delayed-check", "[delayed-check]\nkappa = 1\nduration = 5\ngap = 1\nmultiples = inf\n"),
        ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\nbeta_0 = 1e308\n"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\nbeta_0 = 5e-324\n"),
        ("pipeline", "[pipeline]\nduration = 1e308\ngap = 1e-300\nlanes = 1\n"
                     "settings_lane0 = 0.9, 0.35\n"),
        ("pipeline", "[pipeline]\nduration = 5\ngap = 5e-324\nticks_per_gap = 10\nlanes = 1\n"
                     "settings_lane0 = 0.9, 0.35\n"),
        # once truncated to [1] and [0, 1], and run
        ("delayed-check", "[delayed-check]\nkappa = 1\nduration = 5\ngap = 1\nmultiples = 1.9\n"),
        ("delayed-check", "[delayed-check]\nkappa = 1\nduration = 5\ngap = 1\n"
                          "k_values = 0.5, 1.5\n"),
    ], ids=["degenerate-phases", "target-det", "ticks-per-gap", "cluster-variance",
            "gate-variance", "no-lanes", "no-section-header", "bad-interpolation",
            "zero-delay", "zero-period",
            "gate-input-negative-variance", "gate-input-uncertainty",
            "compose-input-negative-variance", "compose-input-uncertainty",
            "pipeline-input-negative-variance", "pipeline-input-uncertainty",
            "empty-y-variance", "cluster-variance-underflow", "cluster-variance-overflow",
            "gate-zero-variance",
            "angle-over-zero", "nan-angle", "inf-variance", "nan-target",
            "unreachable-target", "inf-multiple", "huge-beta-0", "subnormal-beta-0",
            "tick-count-overflow", "tick-underflow", "fractional-multiple",
            "fractional-k-values"])
    def test_exits_2_without_traceback(self, tmp_path, kind, text):
        cfg = write_config(tmp_path, text)
        proc = run_python(["-m", "cvmbqc", kind, "--config", cfg, "--out", "o"],
                          tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind,text,message", [
        ("cz", "[cz]\na = 1, 0; 0\nb = 1, 0; 0, 1\n",
         "[cz] a = '1, 0; 0' is not a number matrix with rows of equal length"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0\n",
         "[compose] target = '1, 0.5; 0' is not a number matrix with rows of equal length"),
        ("pipeline", "[pipeline]\nduration = 1e308\ngap = 1e308\nlanes = 1\n"
                     "settings_lane0 = 0.9, 0.35\n",
         "duration + gap = 1e+308 + 1e+308 is not finite"),
        ("compose", "[compose]\ntarget = 1,\n",
         "[compose] target = '1,' is not a number matrix"),
        ("cz", "[cz]\na = 1, x; 0, 1\nb = 1, 0; 0, 1\n",
         "[cz] a = '1, x; 0, 1' is not a number matrix"),
        ("cluster-check", "[cluster-check]\ngraph = 0 1; 1\ny_variance = 0.1\n",
         "[cluster-check] graph = '0 1; 1': adjacency rows have unequal length"),
        ("cluster-check", "[cluster-check]\ngraph = 0 a; a 0\ny_variance = 0.1\n",
         "[cluster-check] graph = '0 a; a 0': adjacency entries must be the integers 0 or 1"),
        ("cluster-check", "[cluster-check]\ngraph = 0 0; 0 0\ny_variance = 0.1\n",
         "[cluster-check] graph = '0 0; 0 0': threshold undefined: the graph has no edges"),
        ("cluster-check", "[cluster-check]\ngraph = 0\ny_variance = 0.1\n",
         "[cluster-check] graph = '0': threshold undefined: the graph has no edges"),
        ("cluster-check", "[cluster-check]\ngraph = 0 1; 0 0\ny_variance = 0.1\n",
         "[cluster-check] graph = '0 1; 0 0': adjacency must be symmetric"),
        ("gate", "[gate]\ntheta_in = abc\ntheta_1 = 0.35\n",
         "[gate] theta_in = 'abc' is not an angle"),
        ("pipeline", "[pipeline]\nduration = 5.0\ngap = 1.0\nlanes = 2\n"
                     "settings_lane0 = 0.9, abc\nsettings_lane1 = 1.0, 0.3\n",
         "[pipeline] settings_lane0 = '0.9, abc' is not a list of 'theta_in, theta_1' pairs"),
        ("compose", "[compose]\ntarget = nan, 0; 0, 1\n",
         "[compose] target = 'nan, 0; 0, 1' has a value that is not finite"),
        ("compose", "[compose]\ntarget = 1e60, 0; 0, 1e-60\n",
         "[compose] target = '1e60, 0; 0, 1e-60' has a value above 1e+50 in magnitude "
         "(MAX_CONFIG_ENTRY)"),
        ("delayed-check", "[delayed-check]\nkappa = 1\nduration = 5\ngap = 1\nmultiples = 1.9\n",
         "[delayed-check] multiples = '1.9' is not an integer list"),
        ("pipeline", TestPipeline.BODY + "ticks_per_gap = 1e-3\n",
         "[pipeline] ticks_per_gap = '1e-3' is not an integer"),
        ("pipeline", TestPipeline.BODY.replace("lanes = 2", "lanes = nan"),
         "[pipeline] lanes = 'nan' is not an integer"),
        ("delayed-check", "[delayed-check]\nkappa = 1\nduration = 5\ngap = 1\n"
                          "k_values = 0, inf\n",
         "[delayed-check] k_values = '0, inf' is not an integer list"),
        # keys no read asks for: the run would ignore them and pass
        ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\nsamplng = true\ny_varience = 0.3\n",
         "[gate] samplng is set but never read; [gate] y_varience is set but never read"),
        ("pipeline", TestPipeline.BODY.replace("lanes = 2", "lanes = 1"),
         "[pipeline] settings_lane1 is set but never read"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\ntheta_in_1 = 0.9\n",
         "[compose] theta_in_1 is set but never read"),
        # a fallback whose every dependent key is set has no effect
        ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance_1 = 0.05\n"
                 "y_variance_2 = 0.05\ny_variance = 0.3\n",
         "[gate] y_variance is set but never read"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.3\n"
                    "y_variance_1 = 0.05\ny_variance_2_step1 = 0.05\n"
                    "y_variance_2_step2 = 0.05\n",
         "[compose] y_variance is set but never read"),
        # the section's own key, also when [DEFAULT] sets it too
        ("gate", "[DEFAULT]\nsamplng = 1\n[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\n"
                 "samplng = true\n",
         "[gate] samplng is set but never read"),
        # the lane keys are read one by one: a huge lane count stops at the
        # first lane without settings
        ("pipeline", "[pipeline]\nduration = 5\ngap = 1\nlanes = 1e16\n"
                     "settings_lane0 = 0.9, 0.35\n",
         "[pipeline] missing required key 'settings_lane1'"),
        # single-key bounds, as rows of runner.KEYS
        ("spectrum", "[spectrum]\nkappa = 0\n",
         "[spectrum] kappa = '0' has a value that is not > 0"),
        ("spectrum", "[spectrum]\nkappa = 1\npoints = 1e16\n",
         "[spectrum] points = '1e16' has a value above 1e+06 in magnitude"),
        ("delayed-check", "[delayed-check]\nkappa = 1\nduration = 5\ngap = 1\n"
                          "multiples = 2, 0\n",
         "[delayed-check] multiples = '2, 0' has a value that is not >= 1"),
    ], ids=["ragged-cz-block", "ragged-target", "period-overflow", "empty-target-entry",
            "non-number-cz-entry", "ragged-graph", "non-integer-graph-entry",
            "edgeless-graph", "one-node-graph", "asymmetric-graph", "unparsed-angle",
            "unparsed-lane-angle", "nan-target", "oversized-target", "fractional-multiple",
            "fractional-tick-count", "nan-lanes", "inf-k-value", "misspelt-keys",
            "lane-beyond-lanes", "target-and-angles", "variance-beside-both-sources",
            "variance-beside-every-step-source", "misspelt-key-also-in-default",
            "lanes-beyond-the-settings", "kappa-not-positive", "points-above-sweep-bound", "multiple-below-one"])
    def test_message_names_the_inputs(self, tmp_path, capsys, kind, text, message):
        cfg = write_config(tmp_path, text)
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_keys_from_default_may_go_unread(self, tmp_path):
        # [DEFAULT] feeds every section, so no one kind need read all of it
        cfg = write_config(tmp_path, "[DEFAULT]\nkappa = 1\nsamplng = true\n"
                                     "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\n")
        assert main(["gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_section_keys_override_default_keys_the_kind_has(self, tmp_path):
        # pins kept behaviour: [DEFAULT] fills what the section leaves unset
        cfg = write_config(tmp_path, "[DEFAULT]\ny_variance = 0.07\ntheta_in = 0.2\n"
                                     "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\n")
        assert main(["gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        record = json.loads((tmp_path / "o" / "gate.json").read_text())
        assert record["inputs"]["theta_in"] == 0.9
        assert record["inputs"]["y_variances"] == [0.07, 0.07]

    def test_default_values_are_not_interpolated_into_a_section(self, tmp_path, capsys):
        # [DEFAULT] parses as a section of its own
        cfg = write_config(tmp_path, "[DEFAULT]\nv = 0.05\n[gate]\ntheta_in = 0.9\n"
                                     "theta_1 = 0.35\ny_variance = %(v)s\n")
        assert main(["gate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "is malformed" in capsys.readouterr().err

    def test_keys_are_checked_before_any_compute(self, tmp_path, monkeypatch, capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError("the pipeline ran before its keys were checked")

        monkeypatch.setattr(multiplex, "simulate_pipeline", no_compute)
        cfg = write_config(tmp_path, TestPipeline.BODY + "samplng = true\n")
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: [pipeline] samplng is set but never read\n")

    @pytest.mark.parametrize("args,named", [
        (["--out", "taken/o"], "'taken/o'"),
        (["--out", "taken"], "'taken'"),
        (["--out", "o", "--seed", "-1"], "--seed"),
    ], ids=["out-under-a-file", "out-names-a-file", "negative-seed"])
    def test_usage_errors_exit_2_without_traceback(self, tmp_path, args, named):
        (tmp_path / "taken").write_text("")
        cfg = write_config(tmp_path, "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\n")
        proc = run_python(["-m", "cvmbqc", "gate", "--config", cfg, *args], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr.splitlines()[-1]
        assert not proc.stdout  # no verdict is reported for a run it could not write


class TestNumericEdgesExitCode:
    """Valid but huge or tiny numbers that once reached numpy unchecked:
    each exits 2 with a config error line and no numpy RuntimeWarning, or
    runs to its verdicts."""

    @pytest.mark.parametrize("text", [
        "kappa = 1e200\n",
        "kappa = 1e300\n",
        "kappa = 1e308\n",
        "kappa = 1e-300\n",
        "kappa = 1e-200\nomega_max = 1e-190\n",
        "kappa = 1\nomega_max = 1e300\n",
        "kappa = 1\nomega_min = 1e-160\n",
        "kappa = 1\nexcess_factor = 1e308\n",
        "kappa = 1\noracle_points = 1\n",
        "kappa = 1\noracle_points = 0\n",
        # an allocation of 71 PiB
        "kappa = 1\npoints = 10000000000000000\n",
        "kappa = 1\noracle_points = 1e16\n",
    ], ids=["kappa-1e200", "kappa-1e300", "kappa-1e308", "kappa-1e-300",
            "kappa-1e-200", "omega-max-1e300", "omega-min-1e-160",
            "excess-factor-1e308", "one-oracle-point", "no-oracle-point",
            "points-1e16", "oracle-points-1e16"])
    def test_spectrum(self, tmp_path, text):
        cfg = write_config(tmp_path, "[spectrum]\n" + text)
        proc = run_python(["-m", "cvmbqc", "spectrum", "--config", cfg, "--out", "o"],
                          tmp_path)
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("config error: [spectrum] ")

    @pytest.mark.parametrize("text", [
        "kappa = 1e-300\nduration = 1\ngap = 5\nmultiples = 3, 7\n",
        "kappa = 0.5\nduration = 5.7e158\ngap = 1\n",
        "kappa = 0.5\nduration = 20\ngap = 0.5\nk_values = 6.3e16, 5.8e225\n",
        # wrote an off-grid lhs of inf, as the non-JSON token Infinity
        "kappa = 1\nduration = 5\ngap = 1\nx_variance = 1e308\n",
    ], ids=["kappa-1e-300", "duration-5.7e158", "k-5.8e225", "x-variance-1e308"])
    def test_delayed_check(self, tmp_path, text):
        cfg = write_config(tmp_path, "[delayed-check]\n" + text)
        proc = run_python(["-m", "cvmbqc", "delayed-check", "--config", cfg, "--out", "o"],
                          tmp_path)
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("config error: [delayed-check] ")

    # the anti-squeezed x variances 1/(16 v) cancel in the nullifiers, so
    # rounding alone passes the relative NULLIFIER_COV_REL_TOL (ROADMAP
    # item 8): 2.5e-8 at 1e-5; at 1e-300 the quotient passes the float range
    @pytest.mark.parametrize("variance", ["1e-5", "1e-300"])
    def test_cluster_check(self, tmp_path, variance):
        """A strongly squeezed chain fails only ``nullifier_covariance``,
        with no RuntimeWarning."""
        cfg = write_config(tmp_path, "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\n"
                                     f"y_variance = {variance}\n")
        proc = run_python(["-W", "error::RuntimeWarning", "-m", "cvmbqc", "cluster-check",
                           "--config", cfg, "--out", "o"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text())
        [failed] = [v for v in record["verdicts"] if not v["passed"]]
        assert failed["name"] == f"nullifier_covariance[v={float(variance)!r}]"
        assert failed["value"] > runner.NULLIFIER_COV_REL_TOL

    def test_cluster_check_at_the_variance_bound(self, tmp_path):
        """A 50-node star at y_variance = MAX_CONFIG_ENTRY runs to a finite
        record with no RuntimeWarning; above it, ``y_variance = 1e307`` in
        ``TestBadInputExitCode``, its nullifier covariance overflowed."""
        cfg = write_config(tmp_path, f"[cluster-check]\ngraph = {STAR_50}\n"
                                     f"y_variance = {runner.MAX_CONFIG_ENTRY!r}\n")
        proc = run_python(["-W", "error::RuntimeWarning", "-m", "cvmbqc", "cluster-check",
                           "--config", cfg, "--out", "o"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        record = json.loads((tmp_path / "o" / "cluster-check.json").read_text(),
                            parse_constant=lambda token: pytest.fail(f"{token} in the record"))
        assert not record["passed"]

    @pytest.mark.parametrize("kind,text,code,message", [
        # source variances near 1e16, or of 1e-12 beside x variances of
        # 6.25e11: these sample, and only the absolute STEP_ORACLE_TOL fails
        # (ROADMAP item 8)
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\nsampling = true\n"
                    "allow_unentangled = true\ny_variance_1_step1 = 4.8e16\n",
         1, "oracle_agreement"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\nsampling = true\n"
                    "y_variance = 1e-12\n", 1, "oracle_agreement"),
        # overflowed in the output covariance
        ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\n"
                 "input_cov = 4.6e-209, 8.5e48, 1e308\n", 2, "MAX_CONFIG_ENTRY"),
        ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\n"
                    "input_cov = 4.6e-209, 8.5e48, 1e308\n", 2, "MAX_CONFIG_ENTRY"),
        # overflowed in the determinant
        ("compose", "[compose]\ntarget = 1e160, 1e160; 1e160, 1e160\n", 2,
         "MAX_CONFIG_ENTRY"),
        ("compose", "[compose]\ntarget = 1e160, 0; 0, 1e-160\n", 2, "MAX_CONFIG_ENTRY"),
    ], ids=["sampling-source-1e16", "sampling-source-1e-12", "gate-input-cov-1e308",
            "compose-input-cov-1e308", "target-1e160", "target-diag-1e160"])
    def test_engine_kinds(self, tmp_path, kind, text, code, message):
        """Exit 2 names ``message`` in the one config error line; exit 1
        fails the one verdict ``message`` and records finite currents."""
        cfg = write_config(tmp_path, text)
        proc = run_python(["-W", "error::RuntimeWarning", "-m", "cvmbqc", kind,
                           "--config", cfg, "--out", "o", "--seed", "3"], tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("config error: ")]
        if code == 2:
            assert len(errors) == 1 and message in errors[0]
            return
        assert not errors
        record = json.loads((tmp_path / "o" / f"{kind}.json").read_text())
        assert [v["name"] for v in record["verdicts"] if not v["passed"]] == [message]
        currents = record["scalars"]["sampling"]["currents"]
        assert len(currents) == 4 and all(map(math.isfinite, currents.values()))


class TestColdPath:
    """No import and no experiment kind loads scipy, and spectrum loads no
    numpy.ma."""

    def test_spectrum_loads_no_numpy_ma(self, tmp_path):
        cfg = write_config(tmp_path, "[spectrum]\nkappa = 1.3\npoints = 40\n")
        script = (
            "import sys\n"
            "from cvmbqc.runner import main\n"
            f"assert main(['spectrum', '--config', {cfg!r}, '--out', 'o']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
        proc = run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"

    def test_import_loads_no_scipy(self, tmp_path):
        proc = run_python(["-c", "import sys, cvmbqc; "
                                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_seven_kinds_load_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[spectrum]\nkappa = 1.3\npoints = 40\n"
            "[cluster-check]\ny_variance = 0.05, 0.08\n"
            "[delayed-check]\nkappa = 1.0\nduration = 5.0\ngap = 1.0\n"
            "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n"
            "sampling = true\n"
            "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.05\nsampling = true\n"
            "[cz]\n" + TestPipeline.BODY + "sampling = true\n"))
        script = (
            "import sys\n"
            "from cvmbqc.runner import EXPERIMENT_KINDS, main\n"
            "assert len(EXPERIMENT_KINDS) == 7\n"
            "for kind in EXPERIMENT_KINDS:\n"
            f"    assert main([kind, '--config', {cfg!r}, '--out', kind, '--seed', '5']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

"""Command-line interface tests: exit codes, outputs, determinism."""

import argparse
import ast
import inspect
import json
import math
import textwrap

import pytest

import uclab.cli
import uclab.verifier
from uclab.cli import build_parser, load_config, main, to_json
from uclab.constants import (FreeConstants, ModelParams, lattice_error, log_c_sfuc,
                             sampling_report)


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _refuse(token):
    raise ValueError(f"{token} is not a JSON number (RFC 8259)")


def strict_json(text):
    """``json.loads`` that rejects the bare NaN, Infinity and -Infinity
    tokens which ``json.dumps`` writes by default."""
    return json.loads(text, parse_constant=_refuse)


class TestConfig:
    def test_flat_keys_map_to_dataclasses(self, tmp_path):
        path = write_cfg(tmp_path, {
            "ds": [2], "deltas_over_G": [0.1], "model.G": 2.0,
            "free.K2": 2.0, "seeds": [3, 4],
        })
        cfg = load_config(path, {})
        assert cfg.params() == ModelParams(d=2, G=2.0, delta=0.2, L=6.0)
        assert cfg.free.K2 == 2.0 and cfg.seeds == (3, 4)

    def test_config_echo_loads_back(self, tmp_path):
        given = {"ds": [2], "L_over_Gs": [5], "deltas_over_G": [0.125], "norm_Vs": [2.0],
                 "model.G": 2.0, "model.theta1": 1.5, "free.K2": 3.0, "seeds": [1, 2],
                 "mu": 0.5, "bcs": ["periodic"]}
        cfg = load_config(write_cfg(tmp_path, given), {})
        assert load_config(write_cfg(tmp_path, cfg.to_dict(), "echo.json"), {}) == cfg

    def test_flags_win_over_file(self, tmp_path):
        path = write_cfg(tmp_path, {"seeds": [3, 4]})
        cfg = load_config(path, {"seeds": (9,)})
        assert cfg.seeds == (9,)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, {"model.bogus": 1})
        with pytest.raises(KeyError):
            load_config(path, {})
        path2 = write_cfg(tmp_path, {"bogus_top": 1}, "b.json")
        with pytest.raises(KeyError):
            load_config(path2, {})

    def test_validation_catches_geometry(self, tmp_path):
        path = write_cfg(tmp_path, {"deltas_over_G": [0.6]})
        cfg = load_config(path, {})
        assert any("delta" in p for p in cfg.validate())
        path2 = write_cfg(tmp_path, {"L_over_Gs": [4]}, "c.json")
        cfg2 = load_config(path2, {})
        assert any("odd" in p for p in cfg2.validate())


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_bad_config_exits_two(self, tmp_path):
        path = write_cfg(tmp_path, {"deltas_over_G": [0.9]})
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_single_bc_key_is_unknown(self, tmp_path, capsys):
        # runs read the boundary conditions from "bcs" only
        path = write_cfg(tmp_path, {"bc": "periodic"})
        assert main(["constants", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "unknown configuration key 'bc'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("model.R", 50), ("model.D0", 0.01), ("model.K_V", 99), ("model.beta", 7),
    ])
    def test_local_estimate_key_is_unknown(self, tmp_path, capsys, key, value):
        # R, D0, K_V and beta are no model parameters: the sampling route
        # derives them, and the constants report gives what it used
        path = write_cfg(tmp_path, {key: value})
        assert main(["constants", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown configuration key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["model.d", "model.L", "model.delta", "model.norm_V"])
    @pytest.mark.parametrize("command", sorted(uclab.cli._COMMANDS))
    def test_a_model_key_with_a_list_key_is_unknown(self, tmp_path, capsys, command, key):
        # d, L, delta and norm_V are set by ds, L_over_Gs, deltas_over_G and
        # norm_Vs alone
        path = write_cfg(tmp_path, {key: 2})
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"unknown configuration key {key!r}" in err
        assert not (tmp_path / "o").exists()

    def test_inadmissible_constants_report_is_success(self, tmp_path):
        path = write_cfg(tmp_path, {"model.theta2": 1.0})
        out = tmp_path / "out"
        assert main(["constants", "--config", path, "--out", str(out)]) == 0
        rep = strict_json((out / "report.json").read_text())
        assert rep["report"]["admissible"] is False
        assert rep["report"]["epsilon"] < 0

    @pytest.mark.parametrize("command,payload,flags,key", [
        pytest.param("verify", {"L_over_Gs": [4]}, [], "L_over_Gs", id="verify-L_over_Gs"),
        pytest.param("verify", {"deltas_over_G": [0.6]}, [], "deltas_over_G",
                     id="verify-deltas_over_G"),
        pytest.param("verify", {"seeds": []}, [], "seeds", id="verify-seeds"),
        pytest.param("verify", {}, ["--h", "0"], "h_per_G", id="verify-h"),
        pytest.param("sweep", {"seeds": []}, [], "seeds", id="sweep-seeds"),
        pytest.param("weight", {"ds": []}, [], "ds", id="weight-ds"),
        pytest.param("carleman-check", {}, ["--grid", "0"], "grids", id="carleman-grid-zero"),
        pytest.param("carleman-check", {}, ["--grid", "-0.01"], "grids",
                     id="carleman-grid-negative"),
        pytest.param("constants", {"energy": math.nan}, [], "energy", id="constants-energy"),
        pytest.param("verify", {"L_over_Gs": [1], "h_per_G": 1}, [], "h_per_G",
                     id="verify-one-cell-grid"),
        # verify builds a cube per side, the last one here of one cell
        pytest.param("verify", {"L_over_Gs": [3, 1], "h_per_G": 1}, [], "h_per_G",
                     id="verify-one-cell-grid-on-a-later-side"),
        pytest.param("cacciopoli-check", {"L_over_Gs": [1], "h_per_G": 1}, [], "h_per_G",
                     id="cacciopoli-one-cell-grid"),
        pytest.param("constants", [1, 2], [], "--config", id="constants-config-array"),
        pytest.param("sweep", {"deltas_over_G": [0.2, 0.3, 0.4]}, [], "deltas_over_G",
                     id="sweep-three-deltas"),
        # four values but one radius: a rank-deficient fit
        pytest.param("sweep", {"deltas_over_G": [0.2] * 4}, [], "deltas_over_G",
                     id="sweep-repeated-deltas"),
        # the fattened annulus needs 2h < L/2 - r2 - r = 0.3: h = 1/4 against L = 3
        pytest.param("cacciopoli-check", {"h_per_G": 4}, [], "h_per_G",
                     id="cacciopoli-annulus-leaves-cube"),
        pytest.param("sweep", {"ds": [1, 2]}, [], "ds", id="sweep-two-dimensions"),
        pytest.param("weight", {"ds": [1, 2]}, [], "ds", id="weight-two-dimensions"),
        pytest.param("cacciopoli-check", {"ds": [1, 2]}, [], "ds",
                     id="cacciopoli-two-dimensions"),
        pytest.param("extend-check", {"ds": [2, 3]}, [], "ds",
                     id="extend-check-two-dimensions"),
        # the d = 1 field's Lipschitz target is out of reach at h = 1/4
        pytest.param("extend-check", {"h_per_G": 4}, [], "h_per_G",
                     id="extend-check-coarse-field"),
        pytest.param("weight", {"seeds": [3, 4]}, [], "seeds", id="weight-two-seeds"),
        pytest.param("carleman-check", {"seeds": [3, 4]}, [], "seeds",
                     id="carleman-check-two-seeds"),
        # a pinned mu puts carleman_C past the largest double, found during the run
        pytest.param("carleman-check", {}, ["--mu", "200", "--trials", "1"], "mu",
                     id="carleman-check-mu-past-doubles"),
        pytest.param("cacciopoli-check", {"seeds": [3, 4]}, [], "seeds",
                     id="cacciopoli-two-seeds"),
        # a subcommand that runs one model reads one value of each list key
        pytest.param("constants", {"ds": [1, 2]}, [], "ds", id="constants-two-dimensions"),
        pytest.param("constants", {"L_over_Gs": [3, 5]}, [], "L_over_Gs",
                     id="constants-two-sides"),
        pytest.param("constants", {"deltas_over_G": [0.125, 0.25]}, [], "deltas_over_G",
                     id="constants-two-deltas"),
        pytest.param("constants", {"norm_Vs": [0, 1]}, [], "norm_Vs",
                     id="constants-two-potentials"),
        pytest.param("sweep", {"L_over_Gs": [3, 5]}, [], "L_over_Gs", id="sweep-two-sides"),
        pytest.param("sweep", {"norm_Vs": [0, 1]}, [], "norm_Vs", id="sweep-two-potentials"),
        pytest.param("cacciopoli-check", {"L_over_Gs": [3, 5]}, [], "L_over_Gs",
                     id="cacciopoli-two-sides"),
        pytest.param("extend-check", {"L_over_Gs": [3, 5]}, [], "L_over_Gs",
                     id="extend-check-two-sides"),
        # an empty list or a value out of range, before any model is built
        *[pytest.param("constants", {key: value}, [], key, id=f"constants-{key}-{value}")
          for key, values in (("ds", ([], [0], [1.5])), ("L_over_Gs", ([], [0], [4])),
                              ("deltas_over_G", ([], [0.0], [0.5], [-0.1])),
                              ("norm_Vs", ([], [-1.0])))
          for value in values],
        # an integer past the double range, which math.isfinite cannot take
        *[pytest.param("constants", {key: value}, [], key, id=f"constants-{key}-huge")
          for key, value in (("ds", [10**400]), ("seeds", [10**400]), ("h_per_G", 10**400))],
        # L = 3 G overflows, which had been reported as a bad L, no key
        pytest.param("constants", {"model.G": 1e308}, [], "model.G", id="constants-model.G"),
        # an integral L/G times an integral G past the double range, where
        # math.isfinite raised OverflowError
        pytest.param("constants", {"L_over_Gs": [10**301 + 1], "model.G": 10**10}, [],
                     "model.G", id="constants-model.G-integer-product"),
    ])
    def test_bad_key_is_a_config_error(self, tmp_path, capsys, command, payload,
                                       flags, key):
        path = write_cfg(tmp_path, payload)
        assert main([command, "--config", path, "--out", str(tmp_path / "o"),
                     *flags]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith(f"config error: {key}="), err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sweep", "verify", "cacciopoli-check",
                                         "extend-check"])
    def test_a_cube_off_the_lattice_is_one_config_error(self, tmp_path, capsys, command):
        # L = 3 G and h = G/32 are subnormal at G = 1e-320, and L/h is no
        # whole number: the run's CubeDomain had raised this as a traceback
        path = write_cfg(tmp_path, {"model.G": 1e-320})
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        rule = lattice_error(2, L=3 * 1e-320, h=1e-320 / 32)
        assert capsys.readouterr().err.splitlines() == [f"config error: h_per_G=32: {rule}"]
        assert not (tmp_path / "o").exists()

    def test_sweep_model_must_be_admissible_in_its_dimension(self, tmp_path, capsys):
        # epsilon is 0.196 in d = 1 and -0.829 in d = 2
        path = write_cfg(tmp_path, {"ds": [2], "model.theta1": 1.2,
                                    "model.theta2": 0.001, "h_per_G": 16})
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config error: model is inadmissible" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, code", [
        ("verify", [], 0),
        ("carleman-check", ["--trials", "1", "--grid", "0.0625"], 0),
        ("sweep", [], 2),
    ], ids=["verify", "carleman-check", "sweep"])
    def test_only_sweep_needs_an_admissible_model(self, tmp_path, capsys, command, flags,
                                                  code):
        # epsilon = -268.1; verify and carleman-check never read the model's
        # thetas, sweep evaluates its bounds in it
        path = write_cfg(tmp_path, {"model.theta2": 1.0})
        assert main([command, "--config", path, "--out", str(tmp_path / "o"), *flags]) == code
        err = capsys.readouterr().err
        assert ("config error: model is inadmissible: epsilon=" in err) == (code == 2)

    def test_verify_exits_one_when_a_margin_fails(self, tmp_path, monkeypatch, capsys):
        # log_c_sfuc = 0 puts the bounds at 1 and 1/2, far above the mask
        # fractions of this run (balls of radius G/8 in d = 2)
        monkeypatch.setattr(uclab.verifier, "log_c_sfuc", lambda *a, **k: 0.0)
        path = write_cfg(tmp_path, {
            "ds": [2], "norm_Vs": [1.0], "bcs": ["periodic"],
            "L_over_Gs": [3], "deltas_over_G": [0.125], "seeds": [0],
            "h_per_G": 16,
        })
        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out", str(out)]) == 1
        rep = strict_json((out / "report.json").read_text())
        worst = rep["worst_record"]
        assert rep["min_margin"] == worst["margin"] < 0
        err = capsys.readouterr().err
        assert "FAIL: margin <= 0 for record" in err
        assert f"kind={worst['psi_kind']}, d=2, bc=periodic" in err

    def test_verify_exits_one_when_a_worst_ratio_fails(self, tmp_path, monkeypatch, capsys):
        # criterion 7 checks worst_ratio against the bound as well as the
        # margin; a zero worst_ratio has no log and fails without one
        monkeypatch.setattr(uclab.verifier, "worst_ratio", lambda gram: 0.0)
        path = write_cfg(tmp_path, {"ds": [1], "seeds": [0], "h_per_G": 16})
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 1
        fails = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("FAIL:")]
        assert len(fails) == 1
        assert fails[0].startswith("FAIL: worst_ratio <= exp(log_bound) for record (kind=")


# every key whose value is a number, or a list of numbers
NUMERIC_KEYS = [
    *sorted(uclab.cli._KEYS[""] - {"bcs", "dump_eigenpairs", "field_file"}),
    *(f"model.{k}" for k in uclab.cli._KEYS["model"]),
    *(f"free.{k}" for k in sorted(uclab.cli._KEYS["free"])),
]


class TestNumericKeys:
    @pytest.mark.parametrize("value", [True, 10**400], ids=["bool", "huge"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_a_bool_or_a_huge_integer_is_a_config_error(self, tmp_path, capsys, key, value):
        # a bool ran as 0 or 1, and an integer past the double range ended in
        # an OverflowError traceback for the model.* and free.* keys
        path = write_cfg(tmp_path, {key: value})
        assert main(["constants", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}=") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, reason", [
        ("model.theta1", 0.5, "theta1 must be a finite number >= 1, got 0.5"),
        ("model.G", "1", "G must be a finite number > 0, got '1'"),
        ("model.norm_b", -1.0, "norm_b must be a finite number >= 0, got -1.0"),
        ("free.M", 0.5, "M must be a finite number >= 1, got 0.5"),
        ("free.K1", 0.0, "K1 must be a finite number > 0, got 0.0"),
    ])
    def test_a_model_or_free_error_names_its_key(self, tmp_path, capsys, key, value, reason):
        # the reason is the dataclass's own, after the key it rejects
        path = write_cfg(tmp_path, {key: value})
        assert main(["constants", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {key}={value!r}: {reason}\n"


class TestCommands:
    def test_constants_report_embeds_config(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"ds": [1], "deltas_over_G": [0.25]})
        out = tmp_path / "out"
        assert main(["constants", "--config", path, "--out", str(out)]) == 0
        rep = strict_json((out / "report.json").read_text())
        assert rep["config"]["deltas_over_G"] == [0.25]
        assert rep["config"]["bcs"] == ["dirichlet"] and "bc" not in rep["config"]
        assert rep["report"]["T"] == 39
        assert rep["report"]["epsilon"] == 1.0
        assert rep["report"]["out_of_range"] == ""
        # a chain that leaves the double range is reported, not raised
        path = write_cfg(tmp_path, {"ds": [2], "model.theta1": 48.0})
        assert main(["constants", "--config", path, "--out", str(out)]) == 0
        rep = strict_json((out / "report.json").read_text())
        assert rep["report"]["out_of_range"] == "log_c_quc_lower"
        assert rep["report"]["admissible"] is False
        assert "log_c_quc_lower leaves the double range" in capsys.readouterr().out

    def test_constants_evaluates_the_configured_model(self, tmp_path):
        path = write_cfg(tmp_path, {"ds": [2], "L_over_Gs": [5], "deltas_over_G": [0.125],
                                    "norm_Vs": [2.0]})
        out = tmp_path / "out"
        assert main(["constants", "--config", path, "--out", str(out)]) == 0
        rep = strict_json((out / "report.json").read_text())["report"]
        got = {k: rep[f"params.{k}"] for k in ("d", "L", "delta", "norm_V")}
        assert got == {"d": 2, "L": 5.0, "delta": 0.125, "norm_V": 2.0}

    @pytest.mark.parametrize("command, spied, model_of", [
        ("sweep", "uclab.verifier.delta_sweep", lambda a: a[4]),
        ("cacciopoli-check", "uclab.verifier.cacciopoli_check", lambda a: a[1].domain),
        ("extend-check", "uclab.discretization.extension_check", lambda a: a[0].domain),
    ])
    def test_a_cube_is_the_configured_one(self, tmp_path, monkeypatch, command, spied,
                                          model_of):
        # side L_over_Gs G in dimension ds, here with G = 2
        seen = []

        def spy(*args, **kwargs):
            seen.append(model_of(args))
            raise StopIteration

        monkeypatch.setattr(spied, spy)
        path = write_cfg(tmp_path, {"ds": [2], "L_over_Gs": [5], "model.G": 2.0,
                                    "h_per_G": 8, "seeds": [0]})
        with pytest.raises(StopIteration):
            main([command, "--config", path, "--out", str(tmp_path / "o")])
        assert [(m.d, m.L) for m in seen] == [(2, 10.0)]

    @pytest.mark.parametrize("model", [
        {"ds": [200]},  # T^d = 208^200 is no double
        {"ds": [6], "model.theta1": 4.6425812730853403e49},  # T^d is, 2 T^d not
    ], ids=["power", "doubling"])
    def test_constants_report_flags_a_beta_overflow(self, tmp_path, capsys, model):
        # both models are admissible (epsilon = 1), but beta = 2 T^d is no double
        path = write_cfg(tmp_path, model)
        out = tmp_path / "out"
        assert main(["constants", "--config", path, "--out", str(out)]) == 0
        rep = strict_json((out / "report.json").read_text())["report"]
        assert rep["epsilon"] == 1.0
        assert rep["admissible"] is False and rep["out_of_range"] == "beta"
        assert rep["beta"] is None and rep["log_c_sfuc"] is None
        assert "beta leaves the double range" in capsys.readouterr().out

    @pytest.mark.parametrize("model, epsilon, out_of_range", [
        ({"model.theta1": 3e306}, 1.0, "beta"),  # theta1^6 is no double
        ({"model.theta1": 1e52, "model.theta2": 1e-3}, None, ""),  # nor the product
    ], ids=["theta2-zero", "product"])
    def test_constants_report_flags_a_margin_overflow(self, tmp_path, capsys, model,
                                                      epsilon, out_of_range):
        # the margin's product is formed in log space: theta2 = 0 gives
        # epsilon = 1 for any theta1, and a product past the double range
        # gives epsilon = -inf, written as null
        path = write_cfg(tmp_path, model)
        out = tmp_path / "out"
        assert main(["constants", "--config", path, "--out", str(out)]) == 0
        rep = strict_json((out / "report.json").read_text())["report"]
        assert rep["epsilon"] == epsilon
        assert rep["admissible"] is False and rep["out_of_range"] == out_of_range
        assert "Traceback" not in capsys.readouterr().err

    def test_constants_report_flags_a_window_side_overflow(self, tmp_path, capsys):
        # 2 e theta1 is no double, so neither is the window side T
        path = write_cfg(tmp_path, {"model.theta1": 1e308})
        out = tmp_path / "out"
        assert main(["constants", "--config", path, "--out", str(out)]) == 0
        rep = strict_json((out / "report.json").read_text())["report"]
        assert rep["epsilon"] == 1.0
        assert rep["admissible"] is False and rep["out_of_range"] == "T"
        assert rep["T"] is None and rep["beta"] is None
        assert "T leaves the double range" in capsys.readouterr().out

    def test_constants_report_gives_the_geometry_it_used(self, tmp_path):
        path = write_cfg(tmp_path, {"ds": [2], "model.theta1": 1.2, "norm_Vs": [0.5]})
        out = tmp_path / "out"
        assert main(["constants", "--config", path, "--out", str(out)]) == 0
        rep = strict_json((out / "report.json").read_text())["report"]
        R = math.sqrt(2.0) + 2.0
        assert rep["T"] == 52
        assert (rep["R"], rep["D0"], rep["K_V"], rep["beta"]) == (R, R / 2.0, 0.5, 2.0 * 52**2)
        assert not {"params.R", "params.D0", "params.K_V", "params.beta"} & rep.keys()

    @pytest.mark.parametrize("command", ["constants", "weight"])
    def test_report_config_is_a_config(self, tmp_path, command):
        # a report's config block holds only keys the config accepts, so it
        # reruns as a config file and reproduces the report
        first, second = tmp_path / "a", tmp_path / "b"
        assert main([command, "--out", str(first)]) == 0
        block = strict_json((first / "report.json").read_text())["config"]
        assert not {"model.R", "model.D0", "model.K_V", "model.beta"} & block.keys()
        assert not {"model.d", "model.L", "model.delta", "model.norm_V"} & block.keys()
        path = write_cfg(tmp_path, block)
        assert main([command, "--config", path, "--out", str(second)]) == 0
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

    def test_verify_writes_records_and_passes(self, tmp_path):
        path = write_cfg(tmp_path, {
            "ds": [1], "norm_Vs": [0.0], "bcs": ["dirichlet"],
            "L_over_Gs": [3], "deltas_over_G": [0.25], "seeds": [0, 1],
            "h_per_G": 16,
        })
        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        lines = [strict_json(ln) for ln in (out / "records.jsonl").read_text().splitlines()]
        assert len(lines) == 1 + 4  # header + 2 seeds x 2 paths
        assert (out / "summary.csv").exists()
        rep = strict_json((out / "report.json").read_text())
        assert rep["min_margin"] > 0

    def test_verify_deterministic_after_header(self, tmp_path):
        path = write_cfg(tmp_path, {
            "ds": [1], "norm_Vs": [1.0], "bcs": ["periodic"],
            "L_over_Gs": [3], "deltas_over_G": [0.125], "seeds": [0],
            "h_per_G": 16,
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", path, "--out", str(out1)]) == 0
        assert main(["verify", "--config", path, "--out", str(out2)]) == 0
        body1 = (out1 / "records.jsonl").read_text().splitlines()[1:]
        body2 = (out2 / "records.jsonl").read_text().splitlines()[1:]
        assert body1 == body2 and all(strict_json(ln) for ln in body1)
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        strict_json((out1 / "report.json").read_text())

    def test_sweep_with_plot_data(self, tmp_path):
        path = write_cfg(tmp_path, {
            "ds": [1], "L_over_Gs": [3], "h_per_G": 128,
            "deltas_over_G": [0.125, 0.175, 0.25, 0.35, 0.45],
            "seeds": [0, 1, 2],
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert (out / "plot.csv").read_text().startswith("delta,ratio,log_bound")
        rep = strict_json((out / "report.json").read_text())
        assert abs(rep["slope"] - 1.0) < 0.05

    def test_sweep_bounds_at_its_dimension(self, tmp_path):
        # the sweep's model is in its one dimension ds = [2]
        deltas = [0.125, 0.175, 0.25, 0.35, 0.45]
        path = write_cfg(tmp_path, {"ds": [2], "model.theta1": 1.2, "h_per_G": 16,
                                    "deltas_over_G": deltas})
        out = tmp_path / "out"
        main(["sweep", "--config", path, "--out", str(out)])
        rows = (out / "plot.csv").read_text().splitlines()[1:]
        got = [float(row.split(",")[2]) for row in rows]
        want = [log_c_sfuc(ModelParams(d=2, theta1=1.2, delta=dd), FreeConstants())
                for dd in deltas]
        assert got == want

    @pytest.mark.parametrize("d", [1, 2])
    def test_sweep_reads_the_same_ratios_at_a_tiny_scale(self, tmp_path, d):
        # a placement is measured in cells and a sweep's masses carry no h^d,
        # so neither underflows at G = 1e-300: the ratios are the G = 1 ones
        ratios = []
        for G in (1.0, 1e-300):
            out = tmp_path / f"G{G}"
            path = write_cfg(tmp_path, {"model.G": G, "ds": [d], "h_per_G": 16})
            assert main(["sweep", "--config", path, "--out", str(out)]) == 0
            rows = (out / "plot.csv").read_text().splitlines()[1:]
            ratios.append([row.split(",")[1] for row in rows])
        assert ratios[0] == ratios[1]

    @pytest.mark.parametrize("command", ["constants", "sweep"])
    def test_a_huge_scale_keeps_the_unit_scale_constant(self, tmp_path, command):
        # G*(G*norm) keeps a zero norm zero where G*G overflows
        path = write_cfg(tmp_path, {"model.G": 1e200, "h_per_G": 16})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        want = log_c_sfuc(ModelParams(d=1), FreeConstants())
        if command == "constants":
            assert strict_json((out / "report.json").read_text())["report"]["log_c_sfuc"] == want
        else:
            rows = (out / "plot.csv").read_text().splitlines()[1:]
            assert float(rows[2].split(",")[2]) == want  # delta = G/4

    @pytest.mark.parametrize("given,swept", [
        ([0.25], [0.125, 0.175, 0.25, 0.35, 0.45]),
        ([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4]),
    ], ids=["one-value", "four-values"])
    def test_sweep_delta_list(self, tmp_path, given, swept):
        path = write_cfg(tmp_path, {"h_per_G": 64, "deltas_over_G": given})
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert strict_json((out / "report.json").read_text())["deltas"] == swept

    @pytest.mark.parametrize("command, key, value", [
        ("verify", "ds", [1.0]), ("sweep", "ds", [1.0]), ("verify", "seeds", [0.0]),
        ("verify", "h_per_G", 16.0), ("verify", "L_over_Gs", [3.0]),
        ("carleman-check", "trials", 2.0), ("weight", "seeds", [1.0]),
        ("carleman-check", "seeds", [1.0]),
    ])
    def test_whole_floats_run_as_integers(self, tmp_path, command, key, value):
        # JSON may spell an integer as 1.0; the run is the one the integer gives
        small = {"verify": {"norm_Vs": [0.0], "h_per_G": 16},
                 "sweep": {"h_per_G": 64},
                 "carleman-check": {"trials": 1, "grids": [1 / 16]},
                 "weight": {}}[command]
        as_int = [int(v) for v in value] if isinstance(value, list) else int(value)
        reports = []
        for name, given in (("float", value), ("int", as_int)):
            path = write_cfg(tmp_path, {**small, key: given}, f"{name}.json")
            cfg = load_config(path, {})
            values = [cfg.h_per_G, cfg.trials, *cfg.seeds, *cfg.ds, *cfg.L_over_Gs]
            assert all(type(v) is int for v in values)
            out = tmp_path / name
            assert main([command, "--config", path, "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_weight_command(self, tmp_path):
        out = tmp_path / "out"
        assert main(["weight", "--out", str(out)]) == 0
        assert (out / "summary.csv").read_text().startswith("r,phi")

    @pytest.mark.parametrize("floor, code", [(math.nan, 0), (-1.0, 1)])
    def test_weight_gates_the_outer_floor(self, tmp_path, monkeypatch, floor, code):
        # a NaN floor means no sample landed in the outer region
        import uclab.carleman

        slacks = {"lower": 0.0, "upper": 0.0, "outer_floor": floor, "n_inside": 1}
        monkeypatch.setattr(uclab.carleman.WeightFunction, "bound_slacks",
                            lambda self, x: slacks)
        assert main(["weight", "--out", str(tmp_path / "out")]) == code

    def test_carleman_check_command(self, tmp_path):
        path = write_cfg(tmp_path, {"trials": 2, "ds": [1],
                                    "grids": [1 / 64, 1 / 128]})
        out = tmp_path / "out"
        assert main(["carleman-check", "--config", path, "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[0] == "h,worst_ratio,allowed"
        assert len(rows) == 3

    def test_cacciopoli_check_command(self, tmp_path):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, {"h_per_G": 64})
        assert main(["cacciopoli-check", "--config", path,
                     "--out", str(out)]) == 0

    def test_cacciopoli_check_builds_no_field_by_hand(self):
        # it built its identity field inline; synthesize_random_field at its
        # defaults gives A = I in one cell and no b, c or V for any seed
        import numpy as np

        from uclab.fields import synthesize_random_field
        from uclab.geometry import CubeDomain

        tree = ast.parse(inspect.getsource(uclab.cli))
        built = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "CoefficientField"]
        assert built == []
        for d in (1, 2, 3):
            dom = CubeDomain(d, 3.0, 1 / 4, "dirichlet")
            for seed in (0, 7):
                fld = synthesize_random_field(seed, dom)
                assert np.array_equal(fld.A, np.eye(d).reshape((1,) * d + (d, d)))
                assert not (fld.b.any() or fld.c.any() or fld.V.any())
                assert (fld.declared_theta1, fld.declared_theta2) == (1.0, 0.0)

    def test_extend_check_command(self, tmp_path):
        path = write_cfg(tmp_path, {"ds": [2], "seeds": [0, 1], "h_per_G": 16})
        out = tmp_path / "out"
        assert main(["extend-check", "--config", path, "--out", str(out)]) == 0

    def test_extend_check_keeps_a_nan_jump(self, tmp_path, monkeypatch):
        # a NaN gate value fails the check whichever trial it comes from
        import uclab.discretization

        jumps = iter([math.nan, 0.5])
        monkeypatch.setattr(uclab.discretization, "extension_check",
                            lambda fld, psi, lam: {"interface_jump_rel": next(jumps),
                                                   "residual": 0.0})
        path = write_cfg(tmp_path, {"ds": [2], "seeds": [0, 1], "h_per_G": 16})
        out = tmp_path / "out"
        assert main(["extend-check", "--config", path, "--out", str(out)]) == 1
        assert strict_json((out / "report.json").read_text())["worst"] == {
            "interface_jump_rel": None, "residual": 0.0}

    @pytest.mark.parametrize("d", [1, 2])
    def test_extend_check_runs_in_its_dimension(self, tmp_path, monkeypatch, d):
        import uclab.spectral

        solved = []
        eigensolve = uclab.spectral.eigensolve

        def recording(op, **kw):
            solved.append(op.domain.d)
            return eigensolve(op, **kw)

        monkeypatch.setattr(uclab.spectral, "eigensolve", recording)
        path = write_cfg(tmp_path, {"ds": [d], "seeds": [0, 1], "h_per_G": 16})
        out = tmp_path / "out"
        assert main(["extend-check", "--config", path, "--out", str(out)]) == 0
        assert solved == [d, d]
        assert strict_json((out / "report.json").read_text())["worst"]["residual"] <= 1e-12

    def test_h_flag_overrides_grid(self, tmp_path):
        path = write_cfg(tmp_path, {"ds": [1], "seeds": [0], "h_per_G": 16})
        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out", str(out),
                     "--h", "0.125"]) == 0
        rep = strict_json((out / "report.json").read_text())
        assert rep["config"]["h_per_G"] == 8

    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        subactions = [
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        ]
        names = set(subactions[0].choices)
        assert names == {
            "constants", "verify", "sweep", "carleman-check",
            "cacciopoli-check", "extend-check", "weight",
        }


# a small run of each subcommand, its flags and the tables it writes besides
# report.json, by path under --out
SMALL_RUNS = {
    "constants": ({}, [], set()),
    "verify": ({"ds": [1], "seeds": [0], "h_per_G": 16}, ["--dump-eigenpairs"],
               {"records.jsonl", "summary.csv",
                "eigenpairs/eigenpairs_000.csv", "eigenpairs/eigenpairs_000.npy"}),
    "sweep": ({"h_per_G": 64}, [], {"plot.csv"}),
    "carleman-check": ({"trials": 1, "grids": [1 / 16]}, [], {"records.jsonl", "summary.csv"}),
    "cacciopoli-check": ({"h_per_G": 64}, [], set()),
    "extend-check": ({"ds": [2], "seeds": [0, 1], "h_per_G": 16}, [], set()),
    "weight": ({}, [], {"summary.csv"}),
}


class TestOutputs:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_every_subcommand_writes_through_one_path(self, tmp_path, command):
        import numpy as np

        payload, flags, tables = SMALL_RUNS[command]
        path = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out), *flags]) == 0
        # each flag used here switches on the key it is named after
        echo = load_config(path, {}).to_dict() | {
            flag[2:].replace("-", "_"): True for flag in flags}
        assert strict_json((out / "report.json").read_text())["config"] == echo
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert written == {"report.json"} | tables
        for name in tables:
            if name.endswith(".npy"):
                assert np.load(out / name).ndim == 2
                continue
            text = (out / name).read_bytes().decode()
            lines = text.splitlines()
            if name.endswith(".csv"):
                # one header, every line LF-terminated, as many fields per row
                assert "\r" not in text and text.endswith("\n")
                assert lines.count(lines[0]) == 1 and len(lines) > 1
                assert {ln.count(",") for ln in lines} == {lines[0].count(",")}
            else:
                header = strict_json(lines[0])
                assert set(header) == {"created_at", "config"} and header["config"] == echo

    @pytest.mark.parametrize("command, spied, fake, payload", [
        ("cacciopoli-check", "uclab.verifier.cacciopoli_check",
         lambda *a, **k: {"lhs": 2.0, "rhs": 1.0, "holds": False, "min_cprime": 2.0},
         {"h_per_G": 64}),
        ("extend-check", "uclab.discretization.extension_check",
         lambda fld, psi, lam: {"interface_jump_rel": 1.5, "residual": 0.0},
         {"ds": [2], "seeds": [0], "h_per_G": 16}),
        ("weight", "uclab.carleman.WeightFunction.bound_slacks",
         lambda self, x: {"lower": 0.0, "upper": 0.0, "outer_floor": -1.0, "n_inside": 1},
         {}),
    ])
    def test_a_failed_gate_prints_one_fail_line(self, tmp_path, monkeypatch, capsys,
                                                command, spied, fake, payload):
        monkeypatch.setattr(spied, fake)
        path = write_cfg(tmp_path, payload)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len([ln for ln in err if ln.startswith("FAIL: ")]) == 1, err



def _record(ratio=0.5, worst_ratio=0.4, log_bound=math.log(0.1), residual=0.0, seed=0,
            kind="inequality_pair", zeta_norm_sq=0.0, log_gamma=math.nan, residual_norm_sq=0.0):
    return uclab.verifier.ObservabilityRecord(
        psi_kind=kind, d=1, bc="dirichlet", G=1.0, delta=0.25, L=3.0,
        h=1 / 32, theta1=1.0, theta2=0.0, norm_V=0.0, energy=0.0, eigen_index=0, seed=seed,
        ratio=ratio, worst_ratio=worst_ratio, log_bound=log_bound, zeta_norm_sq=zeta_norm_sq,
        residual_violation=residual, residual_norm_sq=residual_norm_sq, log_gamma=log_gamma)


# a projector sample at E = 0 whose window is exp(0) = 1 wide: sqrt(zeta_norm_sq)
# may reach 1 + 1e-8, and the square root of a double's square is that double
_ZETA_BOUND = 1.0 + 1e-8


def _sweep(slope=1.0, r_squared=1.0, degenerate=False):
    return uclab.verifier.SweepResult(slope, 0.0, r_squared, 100.0, [], [], degenerate)


_NAMED = " for record (kind=inequality_pair, d=1, bc=dirichlet, L=3.0, delta=0.25, seed="
# an inequality pair at E = 0: sqrt(residual_norm_sq) may reach 1e-8 (1 + |E|) = 1e-8
_PAIR_RESIDUAL_FAIL = f"sqrt(residual_norm_sq) > 1e-8 (1 + |energy|){_NAMED}0)"
_CACCIOPOLI = {"lhs": 2.0, "rhs": 2.0}
_SWEEP_FAIL = ["sweep slope outside bracket or degenerate fit"]
_SLACKS = {"lower": 0.0, "upper": 0.0, "outer_floor": 0.0}

# gate id -> (the gate applied to a minimal input, the messages it must
# return); an empty list marks an input on the boundary, which passes
GATE_CASES = {
    "record_worst_ratio_zero": (lambda: uclab.cli.record_failures([_record(worst_ratio=0.0)]),
                                [f"worst_ratio <= exp(log_bound){_NAMED}0)"]),
    "record_margin_zero": (lambda: uclab.cli.record_failures(
        [_record(worst_ratio=0.5 + 5e-13, log_bound=math.log(0.5))]),
        [f"margin <= 0{_NAMED}0)"]),
    "record_worst_above_ratio": (lambda: uclab.cli.record_failures(
        [_record(worst_ratio=0.5 + 2e-12)]), [f"worst_ratio > ratio + 1e-12{_NAMED}0)"]),
    "record_worst_at_ratio_plus_1e-12": (lambda: uclab.cli.record_failures(
        [_record(worst_ratio=0.5 + 1e-12)]), []),
    "record_residual_2e-10": (lambda: uclab.cli.record_failures([_record(residual=2e-10)]),
                              [f"residual_violation > 1e-10{_NAMED}0)"]),
    "record_residual_1e-10": (lambda: uclab.cli.record_failures([_record(residual=1e-10)]), []),
    "record_zeta_at_window_plus_residual": (lambda: uclab.cli.record_failures(
        [_record(kind="projector_sample", zeta_norm_sq=_ZETA_BOUND**2, log_gamma=0.0)]), []),
    "record_zeta_past_window_plus_residual": (lambda: uclab.cli.record_failures(
        [_record(kind="projector_sample", log_gamma=0.0,
                 zeta_norm_sq=math.nextafter(_ZETA_BOUND, 2.0)**2)]),
        ["sqrt(zeta_norm_sq) > window_tolerance + 1e-8 (1 + |energy|) for record "
         "(kind=projector_sample, d=1, bc=dirichlet, L=3.0, delta=0.25, seed=0)"]),
    # an inequality pair's zeta is (H - V) psi, which the window does not bound
    "record_zeta_of_a_pair_is_unchecked": (lambda: uclab.cli.record_failures(
        [_record(zeta_norm_sq=1e6)]), []),
    "record_pair_residual_at_bound": (lambda: uclab.cli.record_failures(
        [_record(residual_norm_sq=1e-8**2)]), []),
    "record_pair_residual_past_bound": (lambda: uclab.cli.record_failures(
        [_record(residual_norm_sq=math.nextafter(1e-8, 1.0)**2)]), [_PAIR_RESIDUAL_FAIL]),
    "record_pair_nan_residual": (lambda: uclab.cli.record_failures(
        [_record(residual_norm_sq=math.nan)]), [_PAIR_RESIDUAL_FAIL]),
    # a projector sample's residual is its zeta, so its residual_norm_sq is NaN
    "record_residual_of_a_sample_is_unchecked": (lambda: uclab.cli.record_failures(
        [_record(kind="projector_sample", log_gamma=0.0, residual_norm_sq=math.nan)]), []),
    "record_names_the_least_margin": (lambda: uclab.cli.record_failures(
        [_record(ratio=0.9, worst_ratio=0.0, seed=1), _record(worst_ratio=0.0, seed=2)]),
        [f"worst_ratio <= exp(log_bound){_NAMED}2)"]),
    "sweep_slope_below_floor": (lambda: uclab.cli.sweep_failures(_sweep(slope=1.94), 2),
                                _SWEEP_FAIL),
    "sweep_slope_at_floor": (lambda: uclab.cli.sweep_failures(_sweep(slope=2 * 0.98), 2), []),
    "sweep_slope_above_cap": (lambda: uclab.cli.sweep_failures(_sweep(slope=101.0), 1),
                              _SWEEP_FAIL),
    "sweep_r_squared_0.99": (lambda: uclab.cli.sweep_failures(_sweep(r_squared=0.99), 1), []),
    "sweep_r_squared_0.98": (lambda: uclab.cli.sweep_failures(_sweep(r_squared=0.98), 1),
                             _SWEEP_FAIL),
    "sweep_degenerate": (lambda: uclab.cli.sweep_failures(_sweep(degenerate=True), 1),
                         _SWEEP_FAIL),
    "carleman_ratio_at_cap": (lambda: uclab.cli.carleman_failures({0.5: 6.0}), []),
    "carleman_ratio_above_cap": (lambda: uclab.cli.carleman_failures(
        {1 / 64: 1.15625, 0.5: math.nextafter(6.0, 7.0)}),
        ["ratio exceeded tolerance at h=0.5"]),
    "carleman_nan_ratio": (lambda: uclab.cli.carleman_failures({0.5: math.nan}),
                           ["ratio exceeded tolerance at h=0.5"]),
    "weight_slacks_at_-1e-10": (lambda: uclab.cli.weight_failures(
        dict.fromkeys(_SLACKS, -1e-10)), []),
    "weight_nan_outer_floor": (lambda: uclab.cli.weight_failures(
        _SLACKS | {"outer_floor": math.nan}), []),
    "weight_lower_below": (lambda: uclab.cli.weight_failures(_SLACKS | {"lower": -2e-10}),
                           ["weight lower slack -2.000e-10 is below -1e-10"]),
    "weight_nan_upper": (lambda: uclab.cli.weight_failures(_SLACKS | {"upper": math.nan}),
                         ["weight upper slack nan is below -1e-10"]),
    "weight_outer_floor_below": (lambda: uclab.cli.weight_failures(
        _SLACKS | {"outer_floor": -2e-10}),
        ["weight outer_floor slack -2.000e-10 is below -1e-10"]),
    "cacciopoli_lhs_at_rhs": (lambda: uclab.cli.cacciopoli_failures(_CACCIOPOLI, 1.0), []),
    "cacciopoli_lhs_past_rhs": (lambda: uclab.cli.cacciopoli_failures(
        _CACCIOPOLI | {"lhs": math.nextafter(2.0, 3.0)}, 0.5),
        ["cacciopoli inequality fails: lhs 2 > rhs 2 at C' = 0.5"]),
    "cacciopoli_nan_lhs": (lambda: uclab.cli.cacciopoli_failures(
        _CACCIOPOLI | {"lhs": math.nan}, 1.0),
        ["cacciopoli inequality fails: lhs nan > rhs 2 at C' = 1"]),
    "extension_at_limits": (lambda: uclab.cli.extension_failures(
        {"interface_jump_rel": 1.0, "residual": 1e-8}), []),
    "extension_residual_2e-8": (lambda: uclab.cli.extension_failures(
        {"interface_jump_rel": 0.5, "residual": 2e-8}),
        ["extension residual 2e-08 exceeds 1e-08"]),
    "extension_nan_jump": (lambda: uclab.cli.extension_failures(
        {"interface_jump_rel": math.nan, "residual": 0.0}),
        ["extension interface_jump_rel nan exceeds 1"]),
}


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_each_gate_fails_exactly_past_its_bound(case):
    gate, messages = GATE_CASES[case]
    assert gate() == messages



class TestStrictJson:
    def test_non_finite_values_are_written_as_null(self, tmp_path, monkeypatch):
        # an inadmissible constants report (its constants are NaN), verify
        # records (inequality-pair rows have no log_gamma) and a NaN
        # carleman-check ratio: every output file parses as strict JSON
        import uclab.carleman

        outs = {name: tmp_path / name for name in ("constants", "verify", "carleman")}
        cfg = write_cfg(tmp_path, {"model.theta2": 1.0})
        assert main(["constants", "--config", cfg, "--out", str(outs["constants"])]) == 0
        cfg = write_cfg(tmp_path, {"seeds": [0], "h_per_G": 16}, "verify.json")
        assert main(["verify", "--config", cfg, "--out", str(outs["verify"])]) == 0
        monkeypatch.setattr(uclab.carleman, "carleman_trial", lambda seed, d, h, **kw: {
            "seed": seed, "d": d, "h": h, "ratio": math.nan, "lhs_log": -math.inf})
        assert main(["carleman-check", "--out", str(outs["carleman"]), "--d", "1",
                     "--grid", "0.015625", "--trials", "2"]) == 1

        parsed = {}
        for name, out in outs.items():
            parsed[name] = strict_json((out / "report.json").read_text())
            if (out / "records.jsonl").exists():
                lines = (out / "records.jsonl").read_text().splitlines()
                parsed[name + ".rows"] = [strict_json(ln) for ln in lines[1:]]
        assert parsed["constants"]["report"]["log_c_sfuc"] is None
        pairs = [r for r in parsed["verify.rows"] if r["psi_kind"] == "inequality_pair"]
        assert pairs and all(r["log_gamma"] is None for r in pairs)
        samples = [r for r in parsed["verify.rows"] if r["psi_kind"] == "projector_sample"]
        assert samples and all(r["residual_norm_sq"] is None for r in samples)
        assert all(r["ratio"] is None and r["lhs_log"] is None
                   for r in parsed["carleman.rows"])
        assert parsed["carleman"]["worst_by_h"] == {"0.015625": None}

    def test_a_numpy_scalar_is_written_as_its_value(self):
        # the dimension rule accepts a numpy integer, and the report passed it
        # to json.dumps, which raised "Object of type int64 is not JSON serializable"
        import numpy as np

        want = to_json(sampling_report(ModelParams(d=2)).to_dict())
        assert to_json(sampling_report(ModelParams(d=np.int64(2))).to_dict()) == want


class TestFlagsAreKeys:
    def test_each_flag_sets_a_key_its_command_reads(self):
        # every flag but --config and --out is the dest of a key the cmd_*
        # function reads as cfg.<key>; --h sets h_per_G
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for name, sp in sub.choices.items():
            fn = getattr(uclab.cli, "cmd_" + name.replace("-", "_"))
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
            read = {n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name) and n.value.id == "cfg"}
            keys = {{"h": "h_per_G"}.get(a.dest, a.dest) for a in sp._actions
                    if a.dest not in ("help", "config", "out")}
            assert keys <= read, f"{name} registers flags for {keys - read}"


class TestFieldFileFlag:
    def test_extend_check_consumes_saved_field(self, tmp_path):
        import numpy as np

        from uclab.fields import save_field, synthesize_dir_cross_field
        from uclab.geometry import CubeDomain

        dom = CubeDomain(2, 3.0, 1 / 16, "dirichlet")
        fld = synthesize_dir_cross_field(3, dom, 1.4)
        ff = tmp_path / "field.npz"
        save_field(ff, fld)
        cfg = write_cfg(tmp_path, {"seeds": [0]})
        out = tmp_path / "out"
        assert main(["extend-check", "--config", cfg, "--out", str(out),
                     "--field-file", str(ff)]) == 0

    def test_extend_check_passes_on_a_dirichlet_drift_field(self, tmp_path):
        # self-adjoint drift on a Dirichlet cube: the mirrored divergence
        # extends the base one (the one-sided face divergence missed by 8.8e-4)
        from uclab.fields import save_field, synthesize_random_field
        from uclab.geometry import CubeDomain

        fld = synthesize_random_field(4, CubeDomain(2, 3.0, 1 / 16, "dirichlet"), 1.3,
                                      norm_V=0.7, norm_b=0.4, norm_c=0.3, sa=True)
        ff = tmp_path / "field.npz"
        save_field(ff, fld)
        out = tmp_path / "out"
        assert main(["extend-check", "--out", str(out), "--field-file", str(ff)]) == 0
        rep = strict_json((out / "report.json").read_text())
        assert rep["worst"]["residual"] <= 1e-12

    def test_extend_check_fails_on_an_even_normal_drift(self, tmp_path, monkeypatch):
        # mirroring the drift's normal component evenly breaks the residual
        # inequality on the extension: the residual gate must see it
        import uclab.discretization
        from uclab.fields import save_field, synthesize_random_field
        from uclab.geometry import CubeDomain

        fld = synthesize_random_field(4, CubeDomain(2, 3.0, 1 / 16, "dirichlet"), 1.3,
                                      norm_V=0.7, norm_b=0.4, norm_c=0.3, sa=True)
        ff = tmp_path / "field.npz"
        save_field(ff, fld)
        monkeypatch.setitem(uclab.discretization._PARITY, "b", "scalar")
        out = tmp_path / "out"
        assert main(["extend-check", "--out", str(out), "--field-file", str(ff)]) == 1
        assert strict_json((out / "report.json").read_text())["worst"]["residual"] > 1e-3

    def test_cacciopoli_check_eigensolves_a_saved_field(self, tmp_path):
        # the loaded field's ground state, not the built-in sine mode, is the
        # function the inequality is checked on
        from uclab.discretization import assemble
        from uclab.fields import save_field, synthesize_dir_cross_field
        from uclab.geometry import CubeDomain
        from uclab.spectral import eigensolve
        from uclab.verifier import cacciopoli_check

        dom = CubeDomain(2, 3.0, 1 / 16, "dirichlet")
        fld = synthesize_dir_cross_field(3, dom, 1.4)
        ff = tmp_path / "field.npz"
        save_field(ff, fld)
        cfg = write_cfg(tmp_path, {"seeds": [5]})
        out = tmp_path / "out"
        assert main(["cacciopoli-check", "--config", cfg, "--out", str(out),
                     "--field-file", str(ff)]) == 0
        rep = strict_json((out / "report.json").read_text())
        psi = eigensolve(assemble(fld), count=1, seed=5).grid_vector(0)
        want = cacciopoli_check(psi, fld, 0.1 * 3.0, 0.27 * 3.0, 0.13 * 3.0)
        assert rep["check"]["holds"] is True
        assert rep["check"]["lhs"] == want["lhs"] and rep["check"]["rhs"] == want["rhs"]

    @pytest.mark.parametrize("command", ["cacciopoli-check", "extend-check"])
    def test_a_field_file_run_ignores_the_configured_grid(self, tmp_path, command):
        # one cell per axis on the configured cube, which a field-file run never builds
        from uclab.fields import save_field, synthesize_dir_cross_field
        from uclab.geometry import CubeDomain

        ff = tmp_path / "field.npz"
        save_field(ff, synthesize_dir_cross_field(3, CubeDomain(2, 3.0, 1 / 16, "dirichlet"), 1.4))
        cfg = write_cfg(tmp_path, {"L_over_Gs": [1], "h_per_G": 1})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--field-file", str(ff)]) == 0

    def test_cacciopoli_check_rejects_a_coarse_field_file(self, tmp_path, capsys):
        import numpy as np

        from uclab.fields import CoefficientField, save_field
        from uclab.geometry import CubeDomain

        dom = CubeDomain(1, 3.0, 1 / 4, "dirichlet")
        ff = tmp_path / "field.npz"
        save_field(ff, CoefficientField(dom, np.ones(dom.shape + (1, 1)),
                                        np.zeros(dom.shape + (1,)), np.zeros(dom.shape),
                                        np.zeros(dom.shape), 1.0, 0.0))
        assert main(["cacciopoli-check", "--out", str(tmp_path / "o"),
                     "--field-file", str(ff)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: field_file=") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_extend_check_measures_every_axis(self, tmp_path):
        # a potential wall at the low x-face pushes psi off that face, so the
        # largest interface jump is the one across the y-faces
        import dataclasses

        import numpy as np

        from uclab.discretization import assemble
        from uclab.fields import save_field, synthesize_dir_cross_field
        from uclab.geometry import CubeDomain
        from uclab.spectral import eigensolve

        dom = CubeDomain(2, 3.0, 1 / 16, "dirichlet")
        fld = synthesize_dir_cross_field(3, dom, 1.4)
        x = dom.center_grid()[..., 0]
        fld = dataclasses.replace(fld, V=50.0 * np.exp(-(x + 1.5) / 0.3))
        ff = tmp_path / "field.npz"
        save_field(ff, fld)
        cfg = write_cfg(tmp_path, {"seeds": [0]})
        out = tmp_path / "out"
        assert main(["extend-check", "--config", cfg, "--out", str(out),
                     "--field-file", str(ff)]) == 0
        rep = strict_json((out / "report.json").read_text())

        # the odd mirror puts -psi next to psi at each low face: jump 2|psi|
        psi = eigensolve(assemble(fld), count=2, seed=0).grid_vector(0)
        grad = max(float(np.abs(np.diff(psi, axis=ax)).max()) / dom.h
                   for ax in range(2))
        jumps = [2.0 * float(np.abs(np.take(psi, 0, axis=ax)).max())
                 / (10.0 * dom.h * grad) for ax in range(2)]
        assert jumps[1] > 2.0 * jumps[0]
        assert rep["worst"]["interface_jump_rel"] == pytest.approx(max(jumps), rel=1e-12)

    def test_extend_check_tiles_a_periodic_field(self, tmp_path):
        import numpy as np

        from uclab.fields import save_field, synthesize_random_field
        from uclab.geometry import CubeDomain

        dom = CubeDomain(2, 3.0, 1 / 16, "periodic")
        fld = synthesize_random_field(2, dom, 1.3, norm_V=0.5, norm_b=0.3,
                                      norm_c=0.2, sa=True)
        assert np.any(fld.A[..., 0, 1])  # not Dirichlet-compatible
        # the residual keeps b and c; without them it misses by 7e-3
        ff = tmp_path / "field.npz"
        save_field(ff, fld)
        cfg = write_cfg(tmp_path, {"seeds": [0]})
        out = tmp_path / "out"
        assert main(["extend-check", "--config", cfg, "--out", str(out),
                     "--field-file", str(ff)]) == 0
        rep = strict_json((out / "report.json").read_text())
        assert rep["worst"]["residual"] <= 1e-12

    def test_verify_dump_eigenpairs(self, tmp_path):
        # one CSV and one NPY per field, numbered in order of first appearance:
        # bc, then seed, here, which is not the fields' sorted order
        import numpy as np

        from uclab.verifier import TrialConfig, solve_field

        cfg = write_cfg(tmp_path, {"ds": [1], "norm_Vs": [1.0], "bcs": ["periodic", "dirichlet"],
                                   "seeds": [1, 0], "h_per_G": 16})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--dump-eigenpairs"]) == 0
        firsts = [TrialConfig(d=1, bc=bc, L_over_G=3, norm_V=1.0, delta_over_G=0.25,
                              seed=seed, h_per_G=16)
                  for bc in ("periodic", "dirichlet") for seed in (1, 0)]
        assert [tc.field_key() for tc in firsts] != sorted(tc.field_key() for tc in firsts)
        names = [f"eigenpairs_{i:03d}.{ext}" for i in range(4) for ext in ("csv", "npy")]
        assert sorted(p.name for p in (out / "eigenpairs").iterdir()) == names
        for i, tc in enumerate(firsts):
            _, _, sl = solve_field(tc)
            text = (out / "eigenpairs" / f"eigenpairs_{i:03d}.csv").read_bytes().decode()
            assert "\r" not in text and text.endswith("\n")
            assert text.splitlines() == ["index,eigenvalue"] + [
                f"{j},{float(lam)!r}" for j, lam in enumerate(sl.eigenvalues)]
            vecs = np.load(out / "eigenpairs" / f"eigenpairs_{i:03d}.npy")
            assert np.array_equal(vecs, sl.eigenvectors)


class TestCarlemanFlags:
    def test_pinned_weight_parameters(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "carleman-check", "--out", str(out), "--d", "1",
            "--grid", "0.015625", "--rho", "1.0", "--mu", "0.08",
            "--alpha-mult", "1.2", "--trials", "2", "--seed", "5",
        ]) == 0
        body = (out / "records.jsonl").read_text().splitlines()[1:]
        rows = [strict_json(ln) for ln in body]
        assert all(r["rho"] == 1.0 and r["mu"] == 0.08 for r in rows)
        assert all(abs(r["alpha"] / r["alpha0"] - 1.2) < 1e-12 for r in rows)

    def test_alpha_mult_one_pins_alpha_at_floor(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "carleman-check", "--out", str(out), "--d", "1",
            "--grid", "0.015625", "--alpha-mult", "1.0", "--trials", "3",
        ]) == 0
        body = (out / "records.jsonl").read_text().splitlines()[1:]
        rows = [strict_json(ln) for ln in body]
        assert len(rows) == 3 and all(r["alpha"] == r["alpha0"] for r in rows)

    @pytest.mark.parametrize("flag,value", [
        ("--mu", "nan"), ("--alpha-mult", "nan"), ("--rho", "nan"),
        ("--rho", "-1"), ("--mu", "inf"), ("--alpha-mult", "inf"),
        ("--trials", "0"),
    ])
    def test_bad_trial_parameter_is_a_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(["carleman-check", "--out", str(out), "--d", "1",
                     "--grid", "0.015625", flag, value]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("d,mu,named", [
        ("1", "119", "mu=119.0: the constant alpha0"),  # alpha0 is no double
        ("2", "3", "alpha=2.27922e+18 is too large"),  # the ratio is not resolved
    ])
    def test_an_unrepresentable_pinned_mu_is_one_line(self, tmp_path, capsys, d, mu, named):
        # at the parent, mu = 119 ended in an OverflowError traceback
        out = tmp_path / "out"
        assert main(["carleman-check", "--out", str(out), "--d", d, "--mu", mu,
                     "--grid", "0.015625", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}") and err.count("\n") == 1
        assert "(trial seed=0, d=" in err

    def test_nan_ratio_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        import uclab.carleman

        def nan_trial(seed, d, h, **kw):
            return {"seed": seed, "d": d, "h": h, "ratio": math.nan}

        monkeypatch.setattr(uclab.carleman, "carleman_trial", nan_trial)
        out = tmp_path / "out"
        assert main(["carleman-check", "--out", str(out), "--d", "1",
                     "--grid", "0.015625", "--trials", "2"]) == 1
        assert "FAIL: ratio exceeded tolerance" in capsys.readouterr().err

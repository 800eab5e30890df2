import json
import math

import pytest

from seplab import cli
from seplab.cli import Report, build_config, config_from_dict, emit, run
from seplab.errors import ConfigError


def test_build_config_fills_documented_defaults():
    config = build_config("chsh")
    assert config.seed == 0
    assert config.samples == 10_000
    assert config.params["state"] == "singlet"
    assert config.params["angles_a"] == [0.0, math.pi / 2]
    assert config.params["angles_b"] == [math.pi / 4, -math.pi / 4]


def test_config_round_trips_through_serialization():
    config = build_config("aerts", seed=9, samples=50, params={"dim_a": 3, "rank_a": 2})
    assert config_from_dict(config.to_dict()) == config
    doc = json.loads(json.dumps(config.to_dict()))
    assert config_from_dict(doc) == config


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        build_config("chsh", params={"bogus": 1})
    with pytest.raises(ConfigError, match="extra"):
        config_from_dict({"scenario": "chsh", "extra": True})
    with pytest.raises(ConfigError):
        build_config("nope")
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "chsh", "schema_version": 99})


def test_parameter_validation_messages_name_the_field():
    with pytest.raises(ConfigError, match="rank_a"):
        build_config("aerts", params={"rank_a": 2})  # rank must stay below dim
    with pytest.raises(ConfigError, match="angles_b"):
        build_config("chsh", params={"angles_b": [1.0]})
    with pytest.raises(ConfigError, match="state"):
        build_config("epr", params={"state": "w-state"})
    with pytest.raises(ConfigError, match="samples"):
        build_config("chsh", samples=0)


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    assert build_config("chsh").seed == 123
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-seed")
    with pytest.raises(ConfigError, match="seed"):
        build_config("chsh")
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    assert build_config("chsh").seed == 0


def test_run_aerts_default_qubit_instance():
    report = run(build_config("aerts", seed=42))
    results = report.results
    assert results["separate"] is False
    assert results["missing_couples"] == ["+,+", "-,-"]
    assert results["max_residual"] <= 1e-12
    assert results["probabilities"]["+,-"] == pytest.approx(0.5, abs=1e-12)
    assert results["schmidt_coefficients"] == pytest.approx(
        [1 / math.sqrt(2)] * 2, abs=1e-12
    )


def test_run_chsh_singlet_defaults():
    report = run(build_config("chsh", seed=1, samples=2000))
    assert report.results["abs_s_exact"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert report.results["samples_per_cell"] == 2000
    assert "stderr" in report.results


def test_run_models_rod_dice_bound_line():
    report = run(build_config("models", seed=1, samples=500, params={"model": "rod-dice"}))
    block = report.results["rod-dice"]
    assert block["s_exact"] == pytest.approx(4.0)
    assert "exceeds classical 2 and Tsirelson" in block["bound_line"]


def test_run_product_test_and_epr_and_no_cloning():
    ptest = run(build_config("product-test", seed=2, samples=300))
    assert ptest.results["cube-intact"]["meet_actual"] is True
    assert ptest.results["flaky"]["meet_actual"] is False

    epr = run(build_config("epr", seed=3, samples=1000))
    assert epr.results["hit_rate"] == 1.0

    nc = run(build_config("no-cloning", seed=0))
    assert nc.results["defect"] == pytest.approx(1 / math.sqrt(2) - 0.5, abs=1e-12)
    assert nc.results["impossible"] is True


def test_json_emit_is_byte_identical_across_runs():
    for scenario in cli.SCENARIOS:
        config = build_config(scenario, seed=11, samples=200)
        first = emit(run(config), "json")
        second = emit(run(config), "json")
        assert first == second, scenario


def test_json_floats_are_canonicalized():
    report = Report("x", {}, {"v": 0.1234567890123456789, "w": [1.0, 2.0]}, "0", 0)
    doc = json.loads(emit(report, "json"))
    assert doc["results"]["v"] == 0.123456789012


def test_text_output_carries_the_convention_string():
    text = emit(run(build_config("chsh", seed=5, samples=100)), "text")
    assert "S = E(1,1) + E(1,2) + E(2,1) - E(2,2)" in text


def test_csv_flattens_e_table_with_setting_indices():
    out = emit(run(build_config("chsh", seed=5, samples=100)), "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "section,row,col,value"
    e_rows = [l for l in lines if l.startswith("e_exact,")]
    assert len(e_rows) == 4
    assert any(l.startswith("e_exact,0,1,") for l in e_rows)


def test_csv_rows_parse_cleanly_with_commas_in_keys():
    import csv as csv_module
    import io

    out = emit(run(build_config("aerts", seed=5)), "csv")
    parsed = list(csv_module.reader(io.StringIO(out)))
    assert all(len(row) == 4 for row in parsed)
    sections = {row[0] for row in parsed[1:]}
    assert "probabilities.+,+" in sections  # couple keys survive quoting


def test_main_success_and_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = cli.main(
        ["no-cloning", "--seed", "4", "--format", "json", "--out", str(out_file)]
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["scenario"] == "no-cloning"
    code = cli.main(["no-cloning", "--format", "text"])
    assert code == 0
    assert "defect" in capsys.readouterr().out


def test_main_cli_matches_library_run(tmp_path):
    out_file = tmp_path / "r.json"
    assert cli.main(["chsh", "--seed", "8", "--samples", "150", "--out", str(out_file)]) == 0
    via_cli = out_file.read_text()
    via_lib = emit(run(build_config("chsh", seed=8, samples=150)), "json")
    assert via_cli == via_lib


def test_main_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "c.json"
    config_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "scenario": "chsh",
                "seed": 3,
                "samples": 100,
                "params": {"state": "phi-plus"},
            }
        )
    )
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(["chsh", "--config", str(config_path), "--out", str(out_a)]) == 0
    doc = json.loads(out_a.read_text())
    assert doc["config"]["params"]["state"] == "phi-plus"
    assert doc["seed"] == 3
    assert cli.main(
        ["chsh", "--config", str(config_path), "--seed", "99", "--out", str(out_b)]
    ) == 0
    assert json.loads(out_b.read_text())["seed"] == 99


def test_main_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["chsh", "--samples", "0"]) == 2
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "chsh", "oops": 1}')
    assert cli.main(["chsh", "--config", str(bad)]) == 2
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text('{"scenario": "epr"}')
    assert cli.main(["chsh", "--config", str(mismatched)]) == 2


def test_main_scenario_errors_exit_1(capsys):
    # a qubit paired against a two-qubit state cannot be overlapped
    code = cli.main(["no-cloning", "--state-a", "zero", "--state-b", "singlet"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unwritable_output_exits_1(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "r.json"
    assert cli.main(["no-cloning", "--out", str(missing_dir)]) == 1
    assert "cannot write report" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["chsh", "--what"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("scenario", ["chsh", "models"])
def test_non_finite_angles_exit_2(scenario, bad, capsys):
    assert cli.main([scenario, f"--angles-a=0,{bad}"]) == 2
    assert "angles_a" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["chsh"], ["models", "--model", "all"]])
def test_huge_samples_run_without_per_trial_memory(argv, tmp_path):
    out = tmp_path / "r.json"
    samples = 2_000_000_000
    assert cli.main(argv + ["--samples", str(samples), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    blocks = [results] if argv == ["chsh"] else list(results.values())
    assert len(blocks) == (1 if argv == ["chsh"] else 3)
    assert all(block["samples_per_cell"] == samples for block in blocks)


def test_samples_beyond_64_bits_rejected():
    with pytest.raises(ConfigError, match="samples"):
        build_config("chsh", samples=2**63)
    assert build_config("chsh", samples=2**63 - 1).samples == 2**63 - 1


def test_aerts_random_pair_must_be_a_bool(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(
        json.dumps({"scenario": "aerts", "params": {"random_pair": "false"}})
    )
    assert cli.main(["aerts", "--config", str(config_path)]) == 2
    assert "random_pair" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_aerts_tol_must_be_finite_and_non_negative(tol, capsys):
    assert cli.main(["aerts", f"--tol={tol}"]) == 2
    assert "tol" in capsys.readouterr().err


def test_aerts_dimension_product_capped(tmp_path, capsys):
    assert cli.main(["aerts", "--dim-a", "9", "--dim-b", "9"]) == 2
    assert "dim_a * dim_b" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert cli.main(["aerts", "--dim-a", "8", "--dim-b", "8", "--out", str(out)]) == 0

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seplab import bell, cli
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


@pytest.mark.parametrize(
    "s, line",
    [
        (2.0 + 1e-10, "within classical 2"),
        (-2.0 - 1e-8, "exceeds classical 2, within Tsirelson"),
        (2 * math.sqrt(2) + 1e-10, "exceeds classical 2, within Tsirelson"),
        (-4.0, "exceeds classical 2 and Tsirelson"),
    ],
)
def test_bound_line_reads_the_report_verdict(s, line):
    report = bell.ChshReport(e_table=((0.0, 0.0), (0.0, 0.0)), s=s)
    assert line in cli._bound_line(report)
    assert report.violates_classical == ("exceeds" in line)
    assert report.violates_tsirelson == (" and " in line)


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


@pytest.mark.parametrize(
    "argv", [["chsh"], ["models", "--model", "all"], ["epr", "--observables", "Z,X,Y"]]
)
def test_huge_samples_run_without_per_trial_memory(argv, tmp_path):
    out = tmp_path / "r.json"
    samples = 2_000_000_000
    assert cli.main(argv + ["--samples", str(samples), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    if argv[0] == "epr":  # the singlet: every prediction certain
        assert results["trials"] == results["hits"] == samples
        assert results["min_confidence"] == 1.0
        assert sum(block["trials"] for block in results["per_observable"].values()) == samples
        return
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


@pytest.mark.parametrize("tol", ["0.5", "1.0"])
def test_aerts_tol_at_a_witness_marginal_is_a_config_error(tol, capsys):
    """Every marginal of the witness is 1/2: at tol 1/2 rounding would decide
    which outcomes count as possible, and above it none does."""
    assert cli.main(["aerts", "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "'tol' must be below 0.5" in err


@pytest.mark.parametrize("tol", ["0", "1e-300", "9e-13"])
def test_aerts_tol_below_probability_tol_is_a_config_error(tol, capsys):
    """On this random pair the blocked couples carry about 3e-32 of rounding
    residue: a tol below it would call the witness separate."""
    assert cli.main(["aerts", "--random-pair", "--seed", "11", "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "'tol' must be at least 1e-12" in err


def test_aerts_tol_at_probability_tol_still_finds_the_missing_couples():
    report = run(build_config("aerts", seed=11, params={"random_pair": True, "tol": 1e-12}))
    assert report.results["separate"] is False
    assert report.results["missing_couples"] == ["+,+", "-,-"]


def test_aerts_dimension_product_capped(tmp_path, capsys):
    assert cli.main(["aerts", "--dim-a", "9", "--dim-b", "9"]) == 2
    assert "dim_a * dim_b" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert cli.main(["aerts", "--dim-a", "8", "--dim-b", "8", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "scenario, field, doc",
    [
        ("chsh", "samples", {"samples": 2.7}),
        ("chsh", "samples", {"samples": True}),
        ("chsh", "seed", {"seed": 1.9}),
        ("chsh", "seed", {"seed": "12"}),
        ("chsh", "angles_a", {"params": {"angles_a": "01"}}),
        ("epr", "observables", {"params": {"observables": "ZX"}}),
        ("epr", "observables", {"params": {"observables": [["Z"]]}}),
        ("aerts", "dim_a", {"params": {"dim_a": 2.9}}),
        ("epr", "observables", {"params": {"observables": ["Z", "Z"]}}),
        ("epr", "observables", {"params": {"observables": ["X", "Y", "X"]}}),
    ],
)
def test_malformed_config_values_rejected_not_coerced(scenario, field, doc, tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"scenario": scenario, **doc}))
    assert cli.main([scenario, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert field in err


@pytest.mark.parametrize("observables", ["Z,Z", "X,Y,X", "Y, Y"])
def test_repeated_observable_flag_exits_2(observables, capsys):
    # a repeated name would draw that observable with double weight
    assert cli.main(["epr", "--samples", "10", "--observables", observables]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "observables" in err and "distinct" in err


@pytest.mark.parametrize(
    "content", [b"{", b"\xff{}", b"[" * 100_000 + b"]" * 100_000], ids=["truncated", "utf8", "deep"]
)
def test_unreadable_config_file_exits_2(content, tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_bytes(content)
    assert cli.main(["chsh", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "not valid JSON" in err


# A valid non-default value for every spec entry: (flag text, JSON value,
# the entries it needs set as well).  A flag without text takes no value.
NON_DEFAULT = {
    "seed": ("17", 17, ()),
    "samples": ("65", 65, ()),
    "dim_a": ("3", 3, ()),
    "dim_b": ("4", 4, ()),
    "rank_a": ("2", 2, ("dim_a",)),
    "rank_b": ("3", 3, ("dim_b",)),
    "random_pair": (None, True, ()),
    "tol": ("1e-06", 1e-6, ()),
    "state": ("phi-plus", "phi-plus", ()),
    "angles_a": ("0.25,-0.75", [0.25, -0.75], ()),
    "angles_b": ("1.5,3", [1.5, 3], ()),
    "model": ("rock", "rock", ()),
    "entity": ("flaky", "flaky", ()),
    "observables": ("Y,Z", ["Y", "Z"], ()),
    "state_a": ("minus", "minus", ()),
    "state_b": ("one", "one", ()),
}


ROOT = Path(__file__).resolve().parent.parent


def _scenario_bullets(text: str, start: str, stop: str) -> dict[str, str]:
    """The ``- `scenario` — ...`` bullets between two headings, joined per
    bullet and keyed by scenario name."""
    section = text.split(start, 1)[1].split(stop, 1)[0]
    bullets = re.split(r"^- `([a-z-]+)` — ", section, flags=re.M)[1:]
    return {name: " ".join(body.split()) for name, body in zip(bullets[::2], bullets[1::2])}


def test_readme_flag_lists_match_the_parameter_spec():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullets = _scenario_bullets(readme, "Scenarios and their flags", "Examples:")
    assert set(bullets) == set(cli.SCENARIOS)
    for scenario, body in bullets.items():
        spec = {p.flag: p for p in cli.PARAMS[scenario]}
        found = re.findall(r"`(--[a-z-]+)( [^`]*)?`", body)
        assert found, scenario
        for flag, listed in found:
            assert flag in spec, f"{scenario}: README lists {flag}, not in the spec"
            if "|" in listed:
                assert tuple(listed.strip().split("|")) == spec[flag].choices, flag
        missing = set(spec) - {flag for flag, _ in found}
        assert not missing, f"{scenario}: README omits {sorted(missing)}"


def test_schema_parameter_lines_match_the_parameter_spec():
    schemas = (ROOT / "docs" / "schemas.md").read_text(encoding="utf-8")
    bullets = _scenario_bullets(schemas, "### Scenario parameters and defaults", "## Report")
    assert set(bullets) == set(cli.SCENARIOS)
    for scenario, body in bullets.items():
        # a parameter is a name followed by its default in parentheses;
        # `angles_a`/`angles_b` (...) documents two at once
        found = re.findall(r"`([a-z_]+)`(?=(?:/`[a-z_]+`)* \()", body)
        assert found == [p.name for p in cli.PARAMS[scenario]], scenario
    params = {p.name: p for ps in cli.PARAMS.values() for p in ps}
    kinds = {
        "Integer fields": {"schema_version", "seed", "samples"}
        | {n for n, p in params.items() if p.kind == "int"},
        "List parameters": {n for n, p in params.items() if p.kind in ("angles", "subset")},
    }
    for heading, names in kinds.items():
        listed = re.search(re.escape(heading) + r" \(([^)]*)\)", schemas).group(1)
        assert set(re.findall(r"`([a-z_]+)`", listed)) == names, heading


def _spec(scenario):
    return {p.name: p for p in (cli.SEED, cli.SAMPLES, *cli.PARAMS[scenario])}


@pytest.mark.parametrize(
    "scenario, name", [(s, name) for s in cli.SCENARIOS for name in _spec(s)]
)
def test_flag_and_config_file_give_identical_reports(scenario, name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    spec = _spec(scenario)
    text, value, needs = NON_DEFAULT[name]
    assert json.dumps(value) != json.dumps(spec[name].default)
    chosen = {"samples": ("64", 64), **{n: NON_DEFAULT[n][:2] for n in needs}, name: (text, value)}
    argv, doc = [scenario], {"scenario": scenario, "params": {}}
    for n, (flag_text, json_value) in chosen.items():
        argv.append(spec[n].flag if flag_text is None else f"{spec[n].flag}={flag_text}")
        (doc if n in ("seed", "samples") else doc["params"])[n] = json_value
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(doc))
    via_flags, via_file = tmp_path / "flags.json", tmp_path / "file.json"
    assert cli.main(argv + ["--out", str(via_flags)]) == 0
    assert cli.main([scenario, "--config", str(config_path), "--out", str(via_file)]) == 0
    assert via_flags.read_bytes() == via_file.read_bytes()
    config = json.loads(via_file.read_text())["config"]
    assert (config if name in ("seed", "samples") else config["params"])[name] == value


# product-test loops over its trials in Python, so the fuzz keeps its samples
# small; chsh, models and epr draw counts and take any size.
SMALL_TRIALS = ("product-test",)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _mostly(valid, other):
    """``valid`` three draws in four, so that many cases get past validation."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 0 else valid)


def _valid(param, scenario):
    if param.bits:  # seed and samples
        return st.integers(0, 200 if scenario in SMALL_TRIALS else 2**64)
    choices = st.sampled_from(param.choices or ("",))
    return {
        "int": st.integers(1, 9),
        "float": st.floats(0.0, 1.0),
        "bool": st.booleans(),
        "choice": choices,
        "angles": st.lists(st.floats(-7.0, 7.0), min_size=2, max_size=2),
        "subset": st.lists(choices, min_size=1, max_size=4),
    }[param.kind]


def _samples_json(scenario):
    if scenario in SMALL_TRIALS:  # never a large integer or absent (10,000 trials)
        return _mostly(_valid(cli.SAMPLES, scenario), json_values.filter(
            lambda v: v is not None and (type(v) is not int or v <= 200)
        ))
    return _mostly(_valid(cli.SAMPLES, scenario), st.integers() | json_values)


@st.composite
def config_documents(draw):
    scenario = draw(st.sampled_from(cli.SCENARIOS))
    params = {
        p.name: draw(_mostly(_valid(p, scenario), json_values))
        for p in cli.PARAMS[scenario]
        if draw(st.booleans())
    }
    doc = {
        "scenario": draw(_mostly(st.just(scenario), json_values)),
        "seed": draw(_mostly(_valid(cli.SEED, scenario), st.integers() | json_values)),
        "samples": draw(_samples_json(scenario)),
        "params": draw(_mostly(st.just(params), json_values)),
        "schema_version": draw(_mostly(st.just(1), json_values)),
        "extra": draw(json_values),
    }
    required = ("scenario", "samples") if scenario in SMALL_TRIALS else ("scenario",)
    keep = draw(st.lists(st.sampled_from(list(doc)), unique=True))
    if "extra" in keep and draw(_mostly(st.just(True), st.just(False))):
        keep.remove("extra")
    return scenario, {key: doc[key] for key in doc if key in keep or key in required}


def _flag_text(param, scenario):
    join = {"angles": lambda xs: ",".join(map(str, xs)), "subset": ",".join}.get(param.kind, str)
    return _mostly(_valid(param, scenario).map(join), st.text(max_size=8))


def _small(text):
    try:
        return int(text) <= 200
    except ValueError:
        return True


@st.composite
def argv_lists(draw):
    scenario = draw(st.sampled_from(cli.SCENARIOS))
    argv = [scenario]
    for param in (cli.SEED, cli.SAMPLES, *cli.PARAMS[scenario]):
        small = param is cli.SAMPLES and scenario in SMALL_TRIALS
        if not (small or draw(st.booleans())):
            continue
        if param.kind == "bool":
            argv.append(param.flag)
        else:
            text = _flag_text(param, scenario)
            text = draw(text.filter(_small) if small else text)
            argv.append(f"{param.flag}={text}")
    return argv


def _exit_code(argv):
    """main's exit code, with its output swallowed; argparse's own usage
    error (SystemExit 2) counts as 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return 2
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) == (code != 0)
    return code


@settings(max_examples=100, deadline=None)
@given(config_documents())
@example(("epr", {"scenario": "epr", "samples": 10, "params": {"observables": [["Z"]]}}))
def test_fuzz_config_documents_end_in_an_exit_code(tmp_path_factory, case):
    scenario, doc = case
    config_path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    config_path.write_text(json.dumps(doc))
    _exit_code([scenario, "--config", str(config_path)])


@settings(max_examples=100, deadline=None)
@given(argv_lists())
def test_fuzz_argv_ends_in_an_exit_code(argv):
    _exit_code(argv)

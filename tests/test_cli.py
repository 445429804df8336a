"""Tests for the command-line front end."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import numpy as np

import cvconf.cli
import cvconf.holevo
import cvconf.inference
import cvconf.rates
from cvconf.cli import CSV_HEADER, ConfigError, RunConfig, _pipeline_check, _run_suite, \
    build_config, main, make_parser

README = Path(__file__).resolve().parents[1] / "README.md"
KEYS = [key.name for key in fields(RunConfig)]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfigHandling:
    def test_defaults(self):
        config = build_config(make_parser().parse_args([]))
        assert config.mode == "sweep"
        assert config.sigma == (1.0, 1.0, 1.0)
        assert config.convention == "trace"
        assert config.samples == 1_000_000
        assert config.seed == 0

    def test_distance_grid(self):
        config = RunConfig(d_min=0.0, d_max=3.0, d_step=1.0)
        assert config.distance_grid() == [0.0, 1.0, 2.0, 3.0]

    def test_explicit_distances_override_grid(self):
        config = RunConfig(d_min=0.0, d_max=9.0, d_step=1.0, distances=(5.0, 2.5))
        assert config.distance_grid() == [5.0, 2.5]

    def test_config_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 11\nsamples = 5000\nconvention = amplitude\n")
        args = make_parser().parse_args(["--config", str(path), "--seed", "22"])
        config = build_config(args)
        assert config.seed == 22          # flag wins
        assert config.samples == 5000     # file value survives
        assert config.convention == "amplitude"

    def test_config_file_comments_and_dashes(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\nd-min = 1.0  # trailing\n\nd-max = 2.0\n"
                        "out = run#1.csv\nseed = 3  # note\n")
        config = build_config(make_parser().parse_args(["--config", str(path)]))
        assert config.d_min == 1.0
        assert config.d_max == 2.0
        assert config.out == "run#1.csv"  # a '#' inside a value is kept
        assert config.seed == 3

    def test_unknown_config_key_is_named(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            build_config(make_parser().parse_args(["--config", str(path)]))

    def test_undecodable_config_file_is_named(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"seed = 3\n\xd0\x00\xff = 1\n")
        with pytest.raises(ConfigError, match="config: cannot read"):
            build_config(make_parser().parse_args(["--config", str(path)]))

    @pytest.mark.parametrize("key,text", [("samples", "lots"), ("sigma", "1,2"),
                                          ("mode", "foo"), ("workers", "1.5")])
    def test_malformed_value_is_named(self, tmp_path, key, text):
        path = tmp_path / "run.conf"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ConfigError, match=key):
            build_config(make_parser().parse_args(["--config", str(path)]))

    def test_one_table_declares_every_key(self, tmp_path):
        """The fields of ``RunConfig`` are the flags and the config keys."""
        flags = set(vars(make_parser().parse_args([]))) - {"config"}
        assert flags == set(KEYS)
        path = tmp_path / "run.conf"
        path.write_text("".join(f"{key} = x\n" for key in KEYS))
        assert cvconf.cli.load_config_file(str(path)) == dict.fromkeys(KEYS, "x")

    def test_every_flag_takes_raw_text(self):
        for key in KEYS:
            args = make_parser().parse_args(["--" + key.replace("_", "-"), "x"])
            assert getattr(args, key) == "x"

    def test_grid_size_is_bounded(self):
        for d_max in (9999.0, 9999.6):  # 9999.6 steps round up, then the last point is cut
            assert len(RunConfig(d_max=d_max).distance_grid()) == 10_000
            RunConfig(d_max=d_max).validate()
        for config in (RunConfig(d_max=10_000.0), RunConfig(d_max=10_000.4),
                       RunConfig(d_max=1e6, d_step=1e-3)):
            with pytest.raises(ConfigError, match="d_step"):
                config.validate()
        RunConfig(d_max=1e6, d_step=1e-3, distances=(1.0,)).validate()

    @pytest.mark.parametrize("key,value", [("seed", 1.5), ("samples", 1000.5),
                                           ("workers", 2.0)])
    def test_non_integer_count_is_named(self, key, value):
        """A library caller's float is refused, not truncated or left to numpy."""
        with pytest.raises(ConfigError, match=f"{key}: must be an integer"):
            RunConfig(**{key: value}).validate()

    def test_largest_seed_is_accepted(self):
        RunConfig(seed=2**64 - 1).validate()
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=2**64).validate()

    @pytest.mark.parametrize("argv,key", [
        (["--sigma", "1,2"], "sigma"),
        (["--samples", "0"], "samples"),
        (["--seed", "-3"], "seed"),
        (["--d-step", "0"], "d_step"),
        (["--d-step", "nan"], "d_step"),
        (["--d-min", "nan"], "d_min"),
        (["--d-max", "inf"], "d_max"),
        (["--d-max", "nan"], "d_max"),
        (["--distances", "nan"], "distances"),
        (["--distances", "1,inf"], "distances"),
        (["--sigma", "1,nan,1"], "sigma"),
        (["--sigma", "inf,1,1"], "sigma"),
        (["--atten-db-km", "nan"], "atten_db_km"),
        (["--atten-db-km", "inf"], "atten_db_km"),
        (["--gamma", "nan"], "gamma"),
        (["--gamma=-inf"], "gamma"),
        (["--samples", "lots"], "samples"),
        (["--workers", "1.5"], "workers"),
        (["--mode", "foo"], "mode"),
        (["--convention", "x"], "convention"),
        (["--format", "xml"], "format"),
        (["--seed", "18446744073709551616"], "seed"),
        (["--d-max", "1e300", "--d-step", "1e-300"], "d_step"),
        (["--mags", "1,1,1", "--gamma", "1e200"], "gamma"),
        (["--distances", "1", "--gamma", "1e155"], "gamma"),
        (["--mags", "1e200,1,1"], "mags"),
        (["--samples", "1000000000000000000000000000000"], "samples"),
        (["--distances", "20000"], "distances"),
        (["--distances", "1,20000"], "distances"),
        (["--d-max", "20000", "--d-step", "100"], "d_max"),
        (["--mode", "sweep", "--sigma", "1e153,1,1", "--samples", "65536", "--d-max", "1"],
         "sigma"),
    ])
    def test_invalid_flags_exit_with_diagnostic(self, argv, key, capsys):
        code, _, err = run_cli(["--mode", "point", "--mags", "0,0,0"] + argv, capsys)
        assert code == 2
        assert key.replace("_", "-") in err or key in err

    def test_readme_lists_every_flag(self):
        text = README.read_text(encoding="utf-8")
        paragraph = text[text.index("\nFlags"):]
        paragraph = paragraph[:paragraph.index("\n\n")]
        flags = set(re.findall(r"--[a-z][a-z-]*", make_parser().format_help()))
        assert sorted(f for f in flags if f not in paragraph) == []

    @pytest.mark.parametrize("mags", ["1,nan,1", "inf,1,1"])
    def test_non_finite_mags_are_named(self, mags, capsys):
        code, _, err = run_cli(["--mode", "point", "--mags", mags], capsys)
        assert code == 2
        assert "mags" in err


class TestPointMode:
    def test_zero_announcement_gives_zero_rates(self, capsys):
        code, out, _ = run_cli(
            ["--mode", "point", "--mags", "0,0,0", "--gamma", "0"], capsys)
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["mi"]) == 0.0
        assert float(values["holevo"]) == 0.0
        assert float(values["rate"]) == 0.0

    def test_lossy_point(self, capsys):
        code, out, _ = run_cli(
            ["--mode", "point", "--mags", "1,1,1", "--gamma", "0.5",
             "--distances", "3"], capsys)
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["tau"]) == pytest.approx(10 ** -0.06, rel=1e-12)
        assert float(values["holevo"]) > 0.0
        assert float(values["rate"]) == pytest.approx(
            float(values["mi"]) - float(values["holevo"]), abs=1e-12)

    @pytest.mark.parametrize("argv,want", [
        (["--mags", "1,1,1", "--gamma", "0.5", "--distances", "3"],
         "distance_km = 3\ntau = 0.8709635899560807\nmi = 0.030494769947083\n"
         "holevo = 0.33669390439215408\nrate = -0.30619913444507108\n"),
        (["--mags", "1.5,0.75,0.25", "--gamma", "2.0"],
         "distance_km = 0\ntau = 1\nmi = 0.0087272014681170074\n"
         "holevo = 0\nrate = 0.0087272014681170074\n"
         "distance_km = 1\ntau = 0.954992586021436\nmi = 0.0085872182786084217\n"
         "holevo = 0.078370682962289537\nrate = -0.069783464683681115\n"
         "distance_km = 2\ntau = 0.91201083935590976\nmi = 0.0084373124534913302\n"
         "holevo = 0.13024016969240071\nrate = -0.12180285723890938\n"
         "distance_km = 3\ntau = 0.8709635899560807\nmi = 0.0082778381737678153\n"
         "holevo = 0.17110048754055024\nrate = -0.16282264936678242\n"
         "distance_km = 4\ntau = 0.83176377110267097\nmi = 0.0081092371496465088\n"
         "holevo = 0.20503717175813929\nrate = -0.19692793460849278\n"
         "distance_km = 5\ntau = 0.79432823472428149\nmi = 0.0079320305343535402\n"
         "holevo = 0.23418829195960039\nrate = -0.22625626142524685\n"
         "distance_km = 6\ntau = 0.75857757502918377\nmi = 0.0077468102164042207\n"
         "holevo = 0.25987221621945211\nrate = -0.25212540600304789\n"
         "distance_km = 7\ntau = 0.72443596007499\nmi = 0.0075542296280433074\n"
         "holevo = 0.2829695327501941\nrate = -0.27541530312215079\n"),
        (["--mags", "1.5,0.7,1.2", "--gamma", "0.4", "--distances", "2"],
         "distance_km = 2\ntau = 0.91201083935590976\nmi = 0.027011376947666976\n"
         "holevo = 0.44810078306790846\nrate = -0.42108940612024148\n"),
        (["--mags", "1.5,0.7,1.2", "--gamma", "0.4", "--distances", "2",
          "--convention", "amplitude"],
         "distance_km = 2\ntau = 0.91201083935590976\nmi = 0.027011376947666976\n"
         "holevo = 0.28500407394699506\nrate = -0.25799269699932809\n"),
    ])
    def test_output_is_frozen(self, argv, want, capsys):
        code, out, _ = run_cli(["--mode", "point"] + argv, capsys)
        assert code == 0
        assert out == want

    def test_builds_one_posterior_table(self, monkeypatch, capsys):
        calls = []
        original = cvconf.inference.posterior_table_batch

        def counting(mags, gamma, params):
            calls.append(len(gamma))
            return original(mags, gamma, params)

        for module in (cvconf.inference, cvconf.holevo, cvconf.rates):
            monkeypatch.setattr(module, "posterior_table_batch", counting, raising=False)
        code, _, _ = run_cli(["--mode", "point", "--mags", "1,1,1", "--gamma", "0.5",
                              "--distances", "3"], capsys)
        assert code == 0
        assert calls == [1]

    def test_missing_mags_is_an_error(self, capsys):
        code, _, err = run_cli(["--mode", "point"], capsys)
        assert code == 2
        assert "mags" in err

    def test_one_block_per_distance(self, capsys):
        """Every distance of the grid, in grid order; the first alone was
        once printed and the rest dropped."""
        argv = ["--mode", "point", "--mags", "1.5,0.7,1.2", "--gamma", "0.4"]
        code, out, _ = run_cli(argv + ["--distances", "0,2,3"], capsys)
        assert code == 0
        singles = [run_cli(argv + ["--distances", d], capsys) for d in ("0", "2", "3")]
        assert [code for code, _, _ in singles] == [0, 0, 0]
        assert out.count("distance_km = ") == 3
        assert out == "".join(single for _, single, _ in singles)


@pytest.mark.parametrize("argv", [
    ["--mode", "point", "--mags", "1,1,1", "--gamma", "0.5", "--distances", "3,1"],
    ["--mode", "validate", "--seed", "4"],
], ids=["point", "validate"])
def test_every_mode_writes_out(argv, tmp_path, capsys):
    """``--out`` gets exactly the bytes stdout would, and stdout nothing; point
    and validate mode once ignored it."""
    path = tmp_path / "out.txt"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out
    assert run_cli(argv + ["--out", str(path)], capsys) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")


class TestSweepMode:
    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["--mode", "sweep", "--d-min", "0", "--d-max", "2", "--d-step", "1",
             "--samples", "20000", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 1.0, 2.0]
        # rate_ps column non-increasing within noise
        for near, far in zip(rows, rows[1:]):
            slack = 2.0 * (float(near[4]) + float(far[4]))
            assert float(far[2]) <= float(near[2]) + slack
        assert all(r[8] == "trace" for r in rows)

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            ["--mode", "sweep", "--distances", "0", "--samples", "2000"], capsys)
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path, capsys):
        args = ["--mode", "sweep", "--distances", "0,1", "--samples", "70000",
                "--seed", "9"]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        run_cli(args + ["--out", str(paths[0])], capsys)
        run_cli(args + ["--out", str(paths[1])], capsys)
        run_cli(args + ["--workers", "2", "--out", str(paths[2])], capsys)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("convention,rows", [
        ("trace", [
            "0,1,0.019510829313338182,0.019510829313338196,0.00020068774151702404,"
            "0.00020068774151702401,65536,7,trace",
            "1,0.954992586021436,6.1149816295678222e-05,-0.073189547784318285,"
            "5.5676521596494666e-06,0.00040180243935270584,65536,7,trace",
            "2,0.91201083935590976,9.7050534170200348e-11,-0.13033875047526355,"
            "4.1119804628305881e-11,0.00067261953146952101,65536,7,trace",
            "3,0.8709635899560807,0,-0.17472036900636689,0,0.00087520385625577555,65536,7,trace",
        ]),
        ("amplitude", [
            "0,1,0.019510829313338182,0.019510829313338196,0.00020068774151702404,"
            "0.00020068774151702401,65536,7,amplitude",
            "1,0.954992586021436,0.0011847767065997076,-0.036093648603870238,"
            "4.0830178895145138e-05,0.00023082954502450157,65536,7,amplitude",
            "2,0.91201083935590976,4.3869355149526469e-05,-0.073333669021790115,"
            "4.3368336777342969e-06,0.00040077322303947772,65536,7,amplitude",
            "3,0.8709635899560807,1.2471742777098215e-07,-0.10382569032866115,"
            "3.2495056545613691e-08,0.0005459421714088719,65536,7,amplitude",
        ]),
    ], ids=["trace", "amplitude"])
    def test_csv_output_is_frozen(self, convention, rows, capsys):
        """The Monte-Carlo sweep's exact bytes: a change to any bit of the
        sampler, the rate core or the reduction shows here, with the names
        of the columns that moved."""
        code, out, _ = run_cli(["--mode", "sweep", "--d-max", "3", "--samples", "65536",
                                "--seed", "7", "--convention", convention], capsys)
        assert code == 0
        got = [line.split(",") for line in out.splitlines()]
        want = [line.split(",") for line in [CSV_HEADER] + rows]
        moved = [name for k, name in enumerate(want[0])
                 if [row[k] for row in got] != [row[k] for row in want]]
        assert moved == []
        assert out == "\n".join([CSV_HEADER] + rows) + "\n"

    def test_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(
            ["--mode", "sweep", "--distances", "0", "--samples", "5000",
             "--format", "json", "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["metadata"]["attenuation_db_per_km"] == 0.2
        assert payload["metadata"]["attenuation_exponent_per_km"] == 0.02
        assert "version" in payload["metadata"]
        point = payload["points"][0]
        for field in ("distance_km", "tau", "rate_ps", "rate_no_ps",
                      "stderr_ps", "stderr_no_ps", "n_samples", "seed", "convention"):
            assert field in point

    def test_unwritable_output_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--mode", "sweep", "--distances", "0", "--samples", "1000",
             "--out", str(tmp_path / "missing" / "x.csv")], capsys)
        assert code == 1
        assert "cannot write" in err


class TestValidateMode:
    def test_validate_passes_with_default_seed(self, capsys):
        code, out, _ = run_cli(["--mode", "validate"], capsys)
        assert code == 0
        assert "pipeline oracle: 1000/1000 passed" in out
        assert "spectrum oracle: 1000/1000 passed" in out
        assert "validation OK" in out

    def test_nan_mean_in_a_later_mode_fails_the_pipeline_check(self, monkeypatch):
        exact = cvconf.cli.eve_conditional_means

        def nan_in_mode_2(signs, p_mags, params):
            means = exact(signs, p_mags, params)
            means[2] = (means[2][0], float("nan"))
            return means

        monkeypatch.setattr(cvconf.cli, "eve_conditional_means", nan_in_mode_2)
        _, _, mean_dev, _ = _pipeline_check(np.random.default_rng(0))
        assert not mean_dev <= 1e-12  # criterion 5's per-draw assert fails
        assert _run_suite(np.random.default_rng(0), "pipeline oracle", 3) == (0, 3)

    def test_shifted_gram_spectrum_fails_the_spectrum_check(self, monkeypatch):
        exact = cvconf.cli.gram_spectrum
        monkeypatch.setattr(cvconf.cli, "gram_spectrum", lambda w, x: exact(w, x) + 1e-9)
        assert _run_suite(np.random.default_rng(0), "spectrum oracle", 3) == (0, 3)

    def test_shifted_gram_entropy_fails_the_spectrum_check(self, monkeypatch):
        exact = cvconf.cli.gram_oracle_entropy
        monkeypatch.setattr(cvconf.cli, "gram_oracle_entropy", lambda w, x: exact(w, x) + 1e-8)
        assert _run_suite(np.random.default_rng(0), "spectrum oracle", 3) == (0, 3)

    def test_spectrum_suite_alternates_conventions(self, monkeypatch):
        seen = []

        def record(rng, convention):
            seen.append(convention)
            return 0.0, 0.0

        monkeypatch.setattr(cvconf.cli, "_spectrum_check", record)
        assert _run_suite(np.random.default_rng(0), "spectrum oracle", 4) == (4, 4)
        assert seen == ["trace", "amplitude", "trace", "amplitude"]

import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from screened_transport import (CertificateReport, ConfigError, Params, TestFunctionFamily,
                                bump_profile, cli, make_grid, parse_config, run_nd, runner,
                                sample_radial, save_field)
from screened_transport.blowup import BlowupConfig, checks_to_json, structural_checks
from screened_transport.cli import main
from screened_transport.inequalities import _monotone_spline
from screened_transport.runner import EXIT_CODES, run

REPO = pathlib.Path(__file__).resolve().parents[1]


ND_MINIMAL = """
[experiment]
mode = nd_run
[params]
n = 2
a = 1.0
g = 1.0
"""

RADIAL_SHORT = """
[experiment]
mode = radial_run
output_dir = {out}
[params]
n = 2
a = 1.0
g = 1.0
[initial_data]
support_radius = 1.0
depth = 1.0
sharpness = 4.0
[markers]
count = 48
[stop]
t_max = 0.05
gradient_factor = 50
[output]
interval = 0.01
"""

LIMIT_SHORT = """
[experiment]
mode = limit_report
output_dir = {out}
[params]
n = 2
a = 1.0
g = 1.0
[grid]
points_per_dim = 32
half_width = 4.0
[sweep]
a_values = 0.0 0.5 1.0 5.0 60.0
"""


class TestParseConfig:
    def test_minimal_config_resolves_defaults(self):
        cfg = parse_config(ND_MINIMAL)
        assert cfg.mode == "nd_run"
        assert cfg["grid.points_per_dim"] == 256
        assert cfg["blowup.delta"] == 0.25
        assert cfg["initial_data.family"] == "bump"

    def test_missing_required_keys_enumerated(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[experiment]\nmode = nd_run\n")
        msgs = "\n".join(err.value.errors)
        assert "'n'" in msgs and "'a'" in msgs and "'g'" in msgs
        assert len(err.value.errors) == 3

    def test_delta_range_enforced(self):
        with pytest.raises(ConfigError) as err:
            parse_config(ND_MINIMAL + "[blowup]\ndelta = 1.5\n")
        assert any("(0, 1)" in e for e in err.value.errors)

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(ND_MINIMAL + "[blowup]\ndelta_ = 0.25\n")
        assert any("delta_" in e for e in err.value.errors)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(ND_MINIMAL + "[viscosity]\nnu = 1.0\n")
        assert any("[viscosity]" in e for e in err.value.errors)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nmode = warp_drive\n")

    def test_errors_are_collected_not_first_only(self):
        bad = ND_MINIMAL + "[blowup]\ndelta = 1.5\ndelta_ = 2\n[grid]\npoints_per_dim = 7\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.errors) >= 3


class TestRunner:
    def test_radial_run_writes_artifacts_and_manifest(self, tmp_path):
        cfg = parse_config(RADIAL_SHORT.format(out=tmp_path / "r1"))
        code = run(cfg)
        assert code == 0
        out = tmp_path / "r1"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "time_limit"
        names = {o["path"] for o in manifest["outputs"]}
        assert "series.csv" in names and "series.dat" in names
        # manifest completeness: every listed output exists and hashes match
        import hashlib
        for entry in manifest["outputs"]:
            p = out / entry["path"]
            assert p.exists()
            assert hashlib.sha256(p.read_bytes()).hexdigest() == entry["sha256"]

    def test_sequential_determinism(self, tmp_path):
        c1 = parse_config(RADIAL_SHORT.format(out=tmp_path / "a"))
        c2 = parse_config(RADIAL_SHORT.format(out=tmp_path / "b"))
        run(c1)
        run(c2)
        a = (tmp_path / "a" / "series.csv").read_bytes()
        b = (tmp_path / "b" / "series.csv").read_bytes()
        assert a == b

    def test_limit_report_mode(self, tmp_path):
        cfg = parse_config(LIMIT_SHORT.format(out=tmp_path / "lim"))
        assert run(cfg) == 0
        text = (tmp_path / "lim" / "limit_report.csv").read_text().splitlines()
        assert text[0] == "a,riesz_gap,zero_gap"
        rows = np.array([[float(x) for x in line.split(",")] for line in text[1:]])
        assert np.all(np.diff(rows[:, 1]) <= 1e-14)        # riesz gap decreasing
        assert np.all(np.diff(rows[:, 2]) >= -1e-14)       # zero gap increasing
        manifest = json.loads((tmp_path / "lim" / "manifest.json").read_text())
        assert manifest["riesz_gap_monotone_decreasing"] is True

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCREENED_TRANSPORT_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = parse_config(LIMIT_SHORT.format(out="sub"))
        run(cfg)
        assert (tmp_path / "root" / "sub" / "limit_report.csv").exists()


class TestCli:
    def test_validate_echoes_resolved_config(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(ND_MINIMAL)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "grid.points_per_dim = 256" in out

    def test_validate_reports_all_errors(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(ND_MINIMAL + "[blowup]\ndelta = 1.5\ndelta_ = 1\n")
        assert main(["validate", str(path)]) == EXIT_CODES["config_error"]
        err = capsys.readouterr().err
        assert "delta_" in err and "(0, 1)" in err

    def test_run_subcommand(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(RADIAL_SHORT.format(out=tmp_path / "out"))
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_missing_file_is_io_error(self, capsys):
        assert main(["run", "/nonexistent/config.ini"]) == 1

    def test_unknown_option_is_usage_error(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(ND_MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--threads", "4"])
        assert exc.value.code == EXIT_CODES["config_error"]

    def test_gradient_threshold_exit_code(self, tmp_path):
        # a collapse run that trips the gradient stop maps to exit code 10
        cfg_text = RADIAL_SHORT.format(out=tmp_path / "blow").replace(
            "t_max = 0.05", "t_max = 3.0").replace(
            "gradient_factor = 50", "gradient_factor = 2.0").replace(
            "count = 48", "count = 64")
        path = tmp_path / "c.ini"
        path.write_text(cfg_text)
        assert main(["run", str(path)]) == 10


SWEEP_TINY = """
[experiment]
mode = inequality_sweep
output_dir = {out}
[params]
n = 2
a = 1.0
g = 1.0
[sweep]
a_values = 1.0
delta_values = 0.25
spline_seeds = 0
radii_per_decade = 3
"""


@pytest.mark.parametrize("text, key", [
    (RADIAL_SHORT.replace("count = 48", "count = 0"), "[markers] count"),
    (RADIAL_SHORT.replace("count = 48", "count = 1"), "[markers] count"),
    (RADIAL_SHORT.replace("count = 48", "count = -5"), "[markers] count"),
    (SWEEP_TINY.replace("a_values = 1.0", "a_values = 0 1"), "[sweep] a_values"),
    (SWEEP_TINY.replace("a_values = 1.0", "a_values ="), "[sweep] a_values"),
    (SWEEP_TINY.replace("delta_values = 0.25", "delta_values = 1.5"), "[sweep] delta_values"),
    (SWEEP_TINY.replace("spline_seeds = 0", "spline_seeds = -1"), "[sweep] spline_seeds"),
    (LIMIT_SHORT.replace("a_values = 0.0", "a_values = -0.5"), "[sweep] a_values"),
    (LIMIT_SHORT.replace("a_values = 0.0 0.5", "a_values = 0.5 0.0"), "[sweep] a_values"),
], ids=["markers_0", "markers_1", "markers_-5", "sweep_a_0", "sweep_a_empty", "delta_1.5",
        "seed_-1", "limit_a_negative", "limit_a_descending"])
def test_validate_rejects_what_run_cannot_use(tmp_path, capsys, text, key):
    # each value used to pass `validate` and then fail inside `run`
    path = tmp_path / "c.ini"
    path.write_text(text.format(out=tmp_path / "out"))
    assert main(["validate", str(path)]) == EXIT_CODES["config_error"]
    assert f"{key}: must be" in capsys.readouterr().err


class TestSweepMode:
    def test_sweep_writes_certificates(self, tmp_path):
        cfg = parse_config(SWEEP_TINY.format(out=tmp_path / "sw"))
        assert run(cfg) == 0
        out = tmp_path / "sw"
        pw = json.loads((out / "certificate_pointwise.json").read_text())
        bl = json.loads((out / "certificate_bilinear.json").read_text())
        assert pw["pass"] is True and bl["pass"] is True
        assert bl["min_ratio"] >= 1.0
        # each certificate names the family of its worst cell
        assert bl["worst_case"] == {"n": 2, "a": 1.0, "delta": 0.25, "family": {
            "kind": "random_monotone_spline", "parameters": [1.0, 1.5, 9], "seed": 0}}
        assert pw["worst_case"]["family"].keys() == {"kind", "parameters", "seed"}
        assert pw["worst_case"].keys() == {"radius", "n", "a", "family"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pointwise_pass"] is True
        # the named family rebuilds the worst profile bit for bit: seed 0's
        # nodes and values as every earlier sweep sampled them
        worst = TestFunctionFamily(**bl["worst_case"]["family"]).sample()
        seed0 = _monotone_spline(0)
        assert worst.nodes.tobytes() == seed0.nodes.tobytes()
        assert worst.values.tobytes() == seed0.values.tobytes()

    def test_failed_certificate_has_its_own_exit_code(self, tmp_path, monkeypatch):
        def failing_bilinear(f, params, deltas):
            return [CertificateReport("bilinear_lower_bound", 1, -0.5, 0.5,
                                      {"n": params.n, "a": params.a, "delta": delta},
                                      tolerance=1e-6) for delta in deltas]

        monkeypatch.setattr(runner, "certify_bilinear", failing_bilinear)
        cfg = parse_config(SWEEP_TINY.format(out=tmp_path / "sw"))
        code = run(cfg)
        assert code == EXIT_CODES["certificate_failed"]
        assert code not in (0, EXIT_CODES["config_error"])
        manifest = json.loads((tmp_path / "sw" / "manifest.json").read_text())
        assert manifest["pointwise_pass"] is True and manifest["bilinear_pass"] is False


ND_SMALL = """
[experiment]
mode = nd_run
output_dir = {out}
[params]
n = 2
a = 1.0
g = 1.0
[grid]
points_per_dim = 64
half_width = 4.0
[initial_data]
support_radius = 2.0
depth = 1.0
sharpness = 4.0
[stop]
t_max = 0.3
gradient_factor = 50
[output]
interval = 0.05
snapshot_interval = 0.1
"""


class TestNdMode:
    def test_nd_run_writes_series_snapshots_manifest(self, tmp_path, recwarn):
        cfg = parse_config(ND_SMALL.format(out=tmp_path / "nd"))
        assert run(cfg) == 0
        out = tmp_path / "nd"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "time_limit"
        assert manifest["predicted_blowup_bound"] > 0
        names = {o["path"] for o in manifest["outputs"]}
        assert "series.csv" in names
        assert any(n.startswith("snapshot_") and n.endswith(".field") for n in names)
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header.split(",")[:4] == ["t", "dt", "sup_grad", "l2"]
        for col in ("i_delta", "bkm_partial", "origin_value", "support_mass_out"):
            assert col in header

    def test_manifest_says_why_the_structural_checks_are_missing(self, tmp_path, recwarn):
        # on N = 64 the datum's gradient peaks at 1.8x near t = 1.5 and then
        # decays as the grid loses the core, so no window [0, T3] exists
        cfg = parse_config(ND_SMALL.format(out=tmp_path / "nd").replace("t_max = 0.3", "t_max = 2.0"))
        assert run(cfg) == 0
        out = tmp_path / "nd"
        sup_grad = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, usecols=2)
        assert 1.5 < sup_grad.max() / sup_grad[0] < 3.0 and sup_grad[-1] < sup_grad.max()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "time_limit"
        assert manifest["structural_checks"] == "gradient never reached 3x"
        assert "riccati_check" not in manifest
        assert not (out / "structural_checks.json").exists()

    # a leaked file handle fails the test (its warning is raised while the
    # handle is collected, so it arrives as an unraisable exception); the
    # grid's resolution warning is expected
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.filterwarnings("ignore:initial data spectral tail")
    def test_streamed_snapshots_match_an_in_memory_run(self, tmp_path):
        # ND_SMALL on a finer, smaller box that grows the gradient 3x by
        # t = 1.53, so the run also writes structural_checks.json
        text = (ND_SMALL.replace("points_per_dim = 64", "points_per_dim = 160")
                .replace("half_width = 4.0", "half_width = 2.5")
                .replace("t_max = 0.3", "t_max = 1.6"))
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(parse_config(text.format(out=out))) == 0
        cfg = parse_config(text.format(out=tmp_path / "memory"))
        snaps = sorted(p.name for p in outs[0].glob("snapshot_*.field"))
        assert len(snaps) >= 10 and (outs[0] / "structural_checks.json").exists()
        # two runner runs write the same bytes
        for name in snaps + ["series.csv", "structural_checks.json"]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

        # the same run with its snapshots kept in memory, saved afterwards
        params = Params(cfg["params.n"], cfg["params.a"], cfg["params.g"])
        grid = make_grid(params.n, cfg["grid.half_width"], cfg["grid.points_per_dim"])
        profile = bump_profile(2.0, 1.0, 4.0)
        rho0 = sample_radial(profile, grid)
        result = run_nd(rho0, params, t_max=1.6, gradient_factor=50.0, delta=cfg["blowup.delta"],
                        support_radius=2.0, output_interval=0.05, snapshot_interval=0.1)
        assert len(result.snapshots) == len(snaps)
        ref = tmp_path / "memory"
        ref.mkdir()
        for name, (t, field) in zip(snaps, result.snapshots):
            save_field(ref / name, field, time=t)
            assert (ref / name).read_bytes() == (outs[0] / name).read_bytes(), name
        sg = result.series.column("sup_grad")
        t3 = result.series.t[np.argmax(sg >= 3.0 * sg[0])]
        bcfg = BlowupConfig(cfg["blowup.delta"], 2.0, params)
        checks_to_json(structural_checks(result.snapshots, rho0, bcfg, window_end=t3),
                       ref / "structural_checks.json")
        assert ((ref / "structural_checks.json").read_bytes()
                == (outs[0] / "structural_checks.json").read_bytes())

    def test_run_dying_midway_leaves_no_manifest(self, tmp_path, monkeypatch, recwarn):
        # a rerun into the same directory that fails after writing one
        # snapshot must not leave the earlier run's manifest behind
        out = tmp_path / "nd"
        run(parse_config(ND_SMALL.format(out=out)))
        written = []

        def failing(path, field, time=0.0):
            if written:
                raise OSError("disk full")
            written.append(path)
            save_field(path, field, time=time)

        monkeypatch.setattr(runner, "save_field", failing)
        with pytest.raises(OSError, match="disk full"):
            run(parse_config(ND_SMALL.format(out=out).replace("a = 1.0", "a = 2.0")))
        assert len(written) == 1 and (out / "snapshot_0000.field").exists()
        assert not (out / "manifest.json").exists()

    def test_manifest_records_process_peak_rss(self, tmp_path, recwarn):
        run(parse_config(ND_SMALL.format(out=tmp_path / "nd")))
        manifest = json.loads((tmp_path / "nd" / "manifest.json").read_text())
        # the process-wide high-water mark in MB: at least the numpy import
        assert 10.0 < manifest["process_peak_rss_mb"] < 1e5


def _readme_commands():
    readme = (REPO / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("screened-transport ")]


class TestReadmeCommandLine:
    def test_every_documented_command_parses(self, monkeypatch, capsys):
        # each command line loads and validates its config before `run`
        commands = _readme_commands()
        monkeypatch.chdir(REPO)
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: 0)
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            assert code == 0, argv
        shipped = {f"configs/{p.name}" for p in (REPO / "configs").glob("*.ini")}
        assert len(shipped) == 4
        assert shipped <= {argv[-1] for argv in commands}

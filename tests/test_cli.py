import json
from pathlib import Path

import numpy as np
import pytest

from navsto import cli
from navsto import dynamics as dyn
from navsto import nonlinearity as nl


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SIM_CFG = """
# comment line
resolution = 3
dt = 2e-4
horizon = 0.002
scheme = em
mode = full
alpha0 = 0.75
q0 = 10.0
seed = 7
snapshot_stride = 5
"""


class TestConfig:
    def test_parse_with_comments_and_types(self, tmp_path):
        cfg = cli.parse_config(write_cfg(tmp_path, SIM_CFG))
        assert cfg["resolution"] == 3 and cfg["dt"] == 2e-4 and cfg["scheme"] == "em"

    def test_unknown_key_lists_valid(self, tmp_path):
        p = write_cfg(tmp_path, "not_a_key = 3\n")
        with pytest.raises(cli.ConfigError, match="valid keys"):
            cli.parse_config(p)

    @pytest.mark.parametrize("line", ["precision = single\n", "paths = 10\n"])
    def test_unread_keys_are_rejected(self, tmp_path, line):
        # no handler read these keys; a config setting them must not run as if it had
        p = write_cfg(tmp_path, line)
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config(p)

    def test_bad_value(self, tmp_path):
        p = write_cfg(tmp_path, "resolution = soup\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(p)

    def test_missing_equals(self, tmp_path):
        p = write_cfg(tmp_path, "resolution 3\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(p)


class TestSimulate:
    def test_row_count_and_snapshots(self, tmp_path):
        cfgp = write_cfg(tmp_path, SIM_CFG)
        rc = cli.main(["simulate", "--config", cfgp, "--seeds", "0..1",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        run_dir = next((tmp_path / "out").glob("simulate-*"))
        rows = (run_dir / "path_0.csv").read_text().splitlines()
        assert len(rows) - 1 == int(0.002 / 2e-4 / 5) + 1
        assert (run_dir / "covariance.csv").exists()
        assert len(list(run_dir.glob("snap_0_*.bin"))) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the blown path's overflow
    def test_blown_path_is_counted_not_raised(self, tmp_path):
        # strong noise at low viscosity: seed 0's path blows up at step 8,
        # and the run still writes its CSV and a manifest that counts it
        cfgp = write_cfg(tmp_path, "resolution = 3\nscheme = expo-em\nq0 = 1e9\nnu = 0.01\n"
                                   "dt = 1e-3\nhorizon = 0.02\n")
        rc = cli.main(["simulate", "--config", cfgp, "--seeds", "0..0",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        run_dir = next((tmp_path / "out").glob("simulate-*"))
        man = json.loads((run_dir / "manifest.json").read_text())
        assert man["blowups"] == 1 and man["verdicts"] == {"simulate": "inconclusive"}
        assert (run_dir / "path_0.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfgp = write_cfg(tmp_path, SIM_CFG)
        cli.main(["simulate", "--config", cfgp, "--seeds", "0..0",
                  "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--config", cfgp, "--seeds", "0..0",
                  "--out", str(tmp_path / "b")])
        da = next((tmp_path / "a").glob("simulate-*"))
        db = next((tmp_path / "b").glob("simulate-*"))
        assert da.name == db.name  # same manifest hash
        for f in sorted(da.iterdir()):
            if f.name == "manifest.json":
                continue  # wall clock lives here by design
            assert f.read_bytes() == (db / f.name).read_bytes(), f.name

    def test_dt_override_changes_hash(self, tmp_path):
        cfgp = write_cfg(tmp_path, SIM_CFG)
        finer = write_cfg(tmp_path, SIM_CFG.replace("dt = 2e-4", "dt = 1e-4"), "finer.cfg")
        cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "c")])
        cli.main(["simulate", "--config", finer, "--out", str(tmp_path / "c")])
        assert len(list((tmp_path / "c").glob("simulate-*"))) == 2


class TestVerifyCli:
    MP2 = """
resolution = 3
dt = 1e-3
horizon = 0.008
scheme = expo-em
mode = full
alpha0 = 0.75
q0 = 30.0
seed = 78
checkpoints = 0.002,0.004,0.006,0.008
control_paths = 300
"""

    def test_verify_mp2_golden_passes(self, tmp_path):
        cfgp = write_cfg(tmp_path, self.MP2)
        rc = cli.main(["verify-mp2", "--config", cfgp, "--seeds", "0..599",
                       "--out", str(tmp_path / "v")])
        assert rc == 0
        run = next((tmp_path / "v").glob("verify-mp2-*"))
        rep = json.loads((run / "report.json").read_text())
        assert rep["verdict"] == "pass"
        assert rep["controls"][0]["valid"]
        assert rep["ensemble_size"] == 600 and "4 SE" in rep["threshold_rule"]
        assert "runtime_s" not in rep  # timestamps only in the manifest

    def test_verify_mp2_corrupted_main_fails(self, tmp_path):
        # corrupt the main ensemble by booking a different q0 in the test
        # functions than the dynamics used: variance ratio must fail
        cfgp = write_cfg(tmp_path, self.MP2.replace("q0 = 30.0", "q0 = 30.0") +
                         "control_amplitude = 1.0\n")
        rc = cli.main(["verify-mp2", "--config", cfgp, "--seeds", "0..599",
                       "--out", str(tmp_path / "w")])
        # an amplitude-1.0 "control" behaves like the truth, which invalidates
        # the suite: the negative control must fail, so the verdict is fail
        assert rc == 1

    def test_verify_energy_takes_any_moment(self, tmp_path):
        # E^n is formed from H^2 and V^2 when read: moment = 3 needs no other key
        seeds, text = TINY["verify-energy"]
        cfgp = write_cfg(tmp_path, text.replace("moment = 2", "moment = 3"))
        rc = cli.main(["verify-energy", "--config", cfgp, "--seeds", seeds,
                       "--out", str(tmp_path / "e")])
        run = next((tmp_path / "e").glob("verify-energy-*"))
        assert sorted(f.name for f in run.glob("report_E*.json")) == [
            "report_E1.json", "report_E2.json", "report_E3.json"]
        verdicts = json.loads((run / "manifest.json").read_text())["verdicts"]
        assert "energy-supermartingale-E3" in verdicts and rc == 0, verdicts

    def test_report_merge(self, tmp_path):
        cfgp = write_cfg(tmp_path, SIM_CFG)
        cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "r")])
        man = next((tmp_path / "r").glob("simulate-*")) / "manifest.json"
        rc = cli.main(["report", str(man), str(man),  # duplicate deduped
                       "--out", str(tmp_path / "rep")])
        assert rc == 0
        cons = json.loads((next((tmp_path / "rep").glob("report-*"))
                           / "consolidated.json").read_text())
        assert cons["overall"] == "pass"
        assert len(cons["verdicts"]) == 1

    def test_report_missing_is_inconclusive(self, tmp_path):
        rc = cli.main(["report", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "rep2")])
        assert rc == 2

    def test_report_empty_list(self, tmp_path):
        rc = cli.main(["report", "--out", str(tmp_path / "rep3")])
        assert rc == 0

    def test_fail_dominates(self, tmp_path):
        # synthesize manifests with mixed verdicts
        m1 = {"subcommand": "x", "verdicts": {"a": "pass"}, "hash": "h1"}
        m2 = {"subcommand": "y", "verdicts": {"b": "fail"}, "hash": "h2"}
        p1 = tmp_path / "m1.json"; p1.write_text(json.dumps(m1))
        p2 = tmp_path / "m2.json"; p2.write_text(json.dumps(m2))
        rc = cli.main(["report", str(p1), str(p2), "--out", str(tmp_path / "rep4")])
        assert rc == 1


class TestSelectDemoCli:
    def test_artifacts(self, tmp_path):
        cfgp = write_cfg(tmp_path, """
demo_horizon = 25.0
demo_dt = 0.002
s_span = 8.0
s_count = 40
criteria = x@1.0
""")
        rc = cli.main(["select-demo", "--config", cfgp, "--out", str(tmp_path / "s")])
        assert rc == 0
        run = next((tmp_path / "s").glob("select-demo-*"))
        assert (run / "funnel.csv").exists()
        assert (run / "j_table.csv").exists()
        rep = json.loads((run / "report.json").read_text())
        assert rep["selected"] == "+phi(s=0)"


def test_every_config_key_is_read():
    """Each key of _KEYS is read as cfg["key"] (or c["key"]) somewhere in cli.py,
    or through _field(cfg, which) as {which}_seed/_amplitude/_exponent."""
    import ast
    tree = ast.parse(Path(cli.__file__).read_text())
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)):
            read.add(node.slice.value)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_field" and isinstance(node.args[1], ast.Constant)):
            which = node.args[1].value
            read |= {f"{which}_seed", f"{which}_amplitude", f"{which}_exponent"}
    assert sorted(set(cli._KEYS) - read) == []


def test_every_export_is_read_outside_the_tests():
    """Each name navsto/__init__.py exports is read (as a name or an attribute)
    in another module of src/navsto, in perfbench/*.py or in the acceptance
    criteria, so no export exists for unit tests alone."""
    import ast
    import navsto
    pkg = Path(navsto.__file__).parent
    repo = pkg.parents[1]
    files = [f for f in pkg.glob("*.py") if f.name != "__init__.py"]
    files += [*(repo / "perfbench").glob("*.py"), repo / "tests" / "test_acceptance.py"]
    read = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = {a.asname or a.name for node in ast.parse((pkg / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(exported - read) == []


TINY = {  # subcommand: (seeds, config), each small enough to run in about a second
    "simulate": ("0..1", SIM_CFG),
    "verify-mp2": ("0..49", TestVerifyCli.MP2.replace("control_paths = 300", "control_paths = 20")
                   + "pilot_paths = 10\n"),
    "verify-energy": ("0..49", "resolution = 3\nscheme = expo-em\nq0 = 30.0\nhorizon = 0.008\n"
                      "moment = 2\n"),
    "verify-doob": ("0..49", "resolution = 3\nscheme = expo-em\nq0 = 30.0\nhorizon = 0.008\n"),
    "verify-weak-strong": ("0..3", "resolution = 3\nscheme = expo-em\nq0 = 60.0\n"
                           "horizon = 0.01\nweak_strong_r = 10.0\n"),
    "bel-probe": ("0..0", "resolution = 3\nscheme = expo-em\ndt = 5e-3\nhorizon = 0.01\n"
                  "bel_paths = 20\nfd_paths = 20\n"),
    "sweep-inequalities": ("0..0", "resolutions = 3,4\ntrials = 2\nfit_m2 = 0\n"),
    "control-steer": ("0..0", "resolution = 3\nscheme = em\ndt = 2e-4\ncontrol_t = 0.002\n"),
    "select-demo": ("0..0", "demo_horizon = 25.0\ndemo_dt = 0.01\ns_span = 2.0\ns_count = 5\n"),
}


def test_manifest_lists_every_artifact(tmp_path):
    runs = []
    for sub, (seeds, text) in TINY.items():
        cli.main([sub, "--config", write_cfg(tmp_path, text, f"{sub}.cfg"),
                  "--seeds", seeds, "--out", str(tmp_path / "o")])
        runs.append(next((tmp_path / "o").glob(f"{sub}-*")))
    cli.main(["report", *(str(r / "manifest.json") for r in runs), "--out", str(tmp_path / "o")])
    runs.append(next((tmp_path / "o").glob("report-*")))
    assert sorted(r.name.rsplit("-", 1)[0] for r in runs) == sorted(cli.SUBCOMMANDS)
    unlisted = {}
    for run in runs:
        listed = sorted(json.loads((run / "manifest.json").read_text())["artifacts"].values())
        written = sorted(f.name for f in run.iterdir() if f.name != "manifest.json")
        if listed != written:
            unlisted[run.name] = sorted(set(written) - set(listed))
    assert unlisted == {}


def test_workers_flag_sets_tile_threads_for_one_run(tmp_path, monkeypatch):
    """--workers sets nonlinearity.FFT_WORKERS inside the run only; artifacts
    do not depend on it."""
    seeds, text = TINY["verify-mp2"]
    cfgp = write_cfg(tmp_path, text)
    before, seen = nl.FFT_WORKERS, []
    run_ensemble = dyn.run_ensemble
    monkeypatch.setattr(dyn, "run_ensemble",
                        lambda *a, **kw: seen.append(nl.FFT_WORKERS) or run_ensemble(*a, **kw))
    runs = []
    for threads in ("1", "2"):
        cli.main(["verify-mp2", "--config", cfgp, "--seeds", seeds, "--workers", threads,
                  "--out", str(tmp_path / threads)])
        assert nl.FFT_WORKERS == before
        assert set(seen) == {int(threads)}
        seen.clear()
        runs.append(next((tmp_path / threads).glob("verify-mp2-*")))
    a, b = runs
    names = sorted(f.name for f in a.iterdir() if f.name != "manifest.json")
    assert names == sorted(f.name for f in b.iterdir() if f.name != "manifest.json")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("seeds", ["5..3", "a..b", "1.5", "0..2..4", ""])
def test_bad_seed_range_is_rejected_before_any_output(tmp_path, capsys, seeds):
    # an empty range would run nothing and still pass
    cfgp = write_cfg(tmp_path, SIM_CFG)
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--config", cfgp, "--seeds", seeds,
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rejected_sim_config_is_a_config_error(tmp_path, capsys):
    # the default config is em at N=4 with dt=1e-3, which SimConfig rejects
    # as unstable: one line on stderr, exit 1, and no empty output directory
    out = tmp_path / "out"
    assert cli.main(["simulate", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: em scheme unstable"), err
    assert not list(out.glob("simulate-*"))


@pytest.mark.parametrize("sub, line", [
    ("simulate", "alpha0 = 0.1"),
    ("simulate", "q0 = 0.0"),
    ("simulate", "nu = 0.0"),
    ("verify-weak-strong", "weak_strong_r = 0.5"),
    ("verify-energy", "moment = 0"),
    ("verify-doob", "moment = 0"),
    ("verify-doob", "lambda_count = 0"),
    ("verify-mp2", "checkpoints = 0.002,abc"),
    ("verify-mp2", "checkpoints = 0.0015"),
    ("verify-mp2", "checkpoints = 0.002,0.001"),
    ("verify-energy", "checkpoints = 0.0015"),
    ("verify-doob", "interval_a = 0.0015"),
    ("verify-doob", "interval_a = 0.002\ninterval_b = 0.001"),
    ("verify-doob", "phi_modes = 1 0"),
    ("select-demo", "criteria = x"),
    ("sweep-inequalities", "resolutions = 8,x"),
    ("bel-probe", "psi_kind = nope"),
])
def test_bad_value_is_a_config_error_before_any_work(tmp_path, capsys, sub, line):
    cfgp = write_cfg(tmp_path, f"scheme = expo-em\nhorizon = 0.002\n{line}\n")
    out = tmp_path / "out"
    assert cli.main([sub, "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    key = line.split(" =")[0]
    assert len(err) == 1 and err[0].startswith("config error:") and key in err[0], err
    assert not list(out.glob(f"{sub}-*"))


def test_horizon_off_the_step_grid_is_a_config_error(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, "scheme = expo-em\nhorizon = 0.0105\ndt = 1e-3\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: t_end must be"), err
    assert not list(out.glob("simulate-*"))


def test_commands_without_a_sim_config_run_on_the_defaults(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["report", "--out", out]) == 0
    assert cli.main(["select-demo", "--out", out]) == 0
    # the sweep reads no SimConfig; a small one keeps the test short
    sweep = write_cfg(tmp_path, "resolutions = 2\ntrials = 2\nfit_m2 = 0\n")
    assert cli.main(["sweep-inequalities", "--config", sweep, "--out", out]) == 0

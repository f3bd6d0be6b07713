"""CLI verbs end to end (small run sizes)."""

import json

import pytest

from spikepid import cli, harness
from spikepid.cli import STEP_FLAGS, main
from spikepid.controller import build_npid
from spikepid.harness import step_experiment
from spikepid.netlist import Netlist


def test_run(capsys, tmp_path):
    out = tmp_path / "run"
    rc = main(["run", "--setpoint", "1.0", "--neurons", "15",
               "--duration", "3", "--out", str(out)])
    assert rc == 0
    assert "settling time" in capsys.readouterr().out
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "run.svg").exists()


@pytest.mark.parametrize("n", [15, 151])
def test_run_out_shades_the_settle_band(capsys, tmp_path, monkeypatch, n):
    """run --out shades the band that RunMetrics.settled judges the run on."""
    drawn = {}
    monkeypatch.setattr(cli, "write_svg", lambda series, path, **kw: drawn.update(kw))
    assert main(["run", "--neurons", str(n), "--duration", "1",
                 "--out", str(tmp_path / "run")]) == 0
    cfg = step_experiment(n=n)
    assert drawn == {"setpoint": cfg.setpoint,
                     "band": harness.settle_band(cfg.npid.target_grid.build(), cfg.setpoint)}


def test_run_baseline(capsys):
    rc = main(["run", "--controller", "baseline", "--setpoint", "1.0",
               "--duration", "3"])
    assert rc == 0
    assert "baseline" in capsys.readouterr().out


def test_sweep(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--setpoints", "1.0,2.0", "--neuron-list", "15",
               "--duration", "2", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_sweep_distribution_flag_applies_to_every_size(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--setpoints", "1.0", "--neuron-list", "15,31",
               "--distribution", "quadratic", "--duration", "1", "--out", str(out)])
    assert rc == 0
    header, *rows = out.read_text().splitlines()
    col = header.split(",").index("distribution")
    assert [r.split(",")[col] for r in rows] == ["quadratic", "quadratic"]


def test_compare(capsys):
    rc = main(["compare", "--setpoint", "1.5", "--neurons", "15",
               "--duration", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "npid" in out and "baseline" in out


def test_verify_adder_ok(capsys):
    rc = main(["verify-adder", "--neurons", "15", "--distribution",
               "quadratic"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 2  # float and quantized reports


def test_verify_adder_mismatch_exits_nonzero(capsys):
    # Quadratic center bins at N=63 are narrower than the even-integer
    # weight step, so the quantized check genuinely exceeds one bin.
    rc = main(["verify-adder", "--neurons", "63", "--distribution",
               "quadratic"])
    assert rc == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_bench(capsys):
    rc = main(["bench", "--neurons", "15", "--ticks", "20000"])
    assert rc == 0
    assert "ticks/s" in capsys.readouterr().out


def test_export_netlist(tmp_path, capsys):
    out = tmp_path / "net.npz"
    rc = main(["export-netlist", "--neurons", "15", "--quantized", "true",
               "--out", str(out)])
    assert rc == 0
    nl = Netlist.load(out)
    unit_neurons = [layer for layer in nl.neurons.layer if layer != "input"]
    assert len(unit_neurons) == 93
    assert all(w % 2 == 0 for w in nl.synapses.weight)


def test_config_file_drives_run(tmp_path, capsys):
    cfg = {"experiment": {"setpoint": 1.0, "duration": 2.0},
           "grids": {"n": 15}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.fixture
def n15_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"grids": {"n": 15}}))
    return str(p)


# Flags a verb does not read, each with a value argparse would accept.
UNREAD = [
    *(("verify-adder", flag, value) for flag, value in (
        ("--setpoint", "1.0"), ("--rate", "70"), ("--duration", "1"),
        ("--decay", "0.9"), ("--quantized", "true"), ("--config", "F"),
        ("--out", "x"))),
    *(("sweep", flag, value) for flag, value in (
        ("--setpoint", "1.0"), ("--neurons", "15"), ("--config", "F"))),
    *(("bench", flag, value) for flag, value in (
        ("--setpoint", "1.0"), ("--duration", "1"), ("--out", "x"))),
    *(("export-netlist", flag, value) for flag, value in (
        ("--setpoint", "1.0"), ("--duration", "1"))),
]


@pytest.mark.parametrize("verb,flag,value", UNREAD)
def test_unread_flag_rejected_by_name(capsys, verb, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([verb, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_config_with_step_flag_rejected_by_name(capsys, n15_config, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", n15_config, "--neurons", "15"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--neurons" in err and "--config" in err


def test_config_combines_with_controller(capsys, n15_config):
    rc = main(["run", "--config", n15_config, "--controller", "baseline"])
    assert rc == 0
    assert "baseline step" in capsys.readouterr().out


def test_bench_reads_config(capsys, n15_config):
    rc = main(["bench", "--config", n15_config, "--ticks", "1000"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("n=15:")


def test_export_netlist_reads_config(tmp_path, capsys, n15_config):
    out = tmp_path / "net.npz"
    rc = main(["export-netlist", "--config", n15_config, "--out", str(out)])
    assert rc == 0
    assert "93 unit neurons" in capsys.readouterr().out
    layers = Netlist.load(out).neurons.layer
    assert sum(layer != "input" for layer in layers) == 93


def test_export_netlist_is_the_controller_run_flies(tmp_path, capsys):
    out = tmp_path / "net.npz"
    assert main(["export-netlist", "--neurons", "15", "--out", str(out)]) == 0
    flown = build_npid(step_experiment(n=15).npid).export_netlist()
    assert Netlist.load(out) == flown


@pytest.fixture
def placeholders(tmp_path):
    """Paths the bad-value cases name: two bad config files, a directory
    that does not exist and one that does."""
    nan_drag = tmp_path / "nan_drag.json"
    nan_drag.write_text('{"plant": {"drag": NaN}}')  # Python's json reads NaN
    no_zero = tmp_path / "no_zero.json"
    no_zero.write_text('{"grids": {"error": {"range": [0.5, 2.0]}}}')
    return {"NAN_DRAG": str(nan_drag), "NO_ZERO": str(no_zero),
            "NO_DIR": str(tmp_path / "missing"), "TMP_DIR": str(tmp_path)}


@pytest.mark.parametrize("argv,name", [
    (["run", "--neurons", "1"], "target_grid.n"),
    (["verify-adder", "--neurons", "1"], "target_grid.n"),
    (["bench", "--decay", "1.5"], "decay"),
    (["sweep", "--setpoints", "1.0,x"], "--setpoints"),
    (["sweep", "--neuron-list", "15,1", "--duration", "1"], "target_grid.n"),
    (["run", "--config", "/nonexistent.json"], "/nonexistent.json"),
    (["run", "--config", "NAN_DRAG"], "plant.drag"),
    (["run", "--rate", "0"], "rate"),
    (["run", "--rate", "-5"], "rate"),
    (["sweep", "--rate", "0"], "rate"),
    (["run", "--duration", "0.001"], "duration"),
    (["bench", "--ticks", "0"], "ticks"),
    (["verify-adder", "--neurons", "1500"], "n must be <= 1001"),
    # A grid without 0 fails when the network is built, not when the
    # config is.
    (["run", "--neurons", "16"], "error_grid"),
    (["compare", "--neurons", "16"], "error_grid"),
    (["export-netlist", "--neurons", "16", "--out", "TMP_DIR/net.npz"], "error_grid"),
    (["sweep", "--neuron-list", "16"], "error_grid"),
    (["run", "--config", "NO_ZERO"], "error_grid"),
    (["run", "--neurons", "15", "--duration", "1", "--out", "NO_DIR/run"], "NO_DIR"),
    (["compare", "--neurons", "15", "--duration", "1", "--out", "NO_DIR/c.csv"],
     "NO_DIR"),
    (["export-netlist", "--neurons", "15", "--out", "NO_DIR/net.npz"], "NO_DIR"),
    (["run", "--rate", "1e308"], "duration"),
    (["sweep", "--rate", "1e308"], "duration"),
    (["run", "--quantized", "maybe"], "--quantized"),
])
def test_bad_value_exits_2_naming_it(capsys, placeholders, argv, name):
    for key, value in placeholders.items():
        argv = [a.replace(key, value) for a in argv]
        name = name.replace(key, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: spikepid {argv[0]} ")
    assert name in err.splitlines()[-1]


@pytest.mark.parametrize("text,value", [
    ("true", True), ("TRUE", True), ("1", True), ("Yes", True),
    ("false", False), ("False", False), ("0", False), ("NO", False),
])
def test_quantized_flag_reads_each_spelling(text, value):
    assert STEP_FLAGS["--quantized"][1]["type"](text) is value


@pytest.mark.parametrize("argv", [
    ["run", "--neurons", "15", "--out", "NO_DIR/run"],
    ["compare", "--out", "NO_DIR/c.csv"],
    ["sweep", "--out", "NO_DIR/s.csv"],
    ["export-netlist", "--out", "NO_DIR/net.npz"],
])
def test_missing_out_directory_exits_2_before_any_run(capsys, monkeypatch,
                                                      placeholders, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    for name in ("run_step_response", "compare", "build_npid"):
        monkeypatch.setattr(f"spikepid.cli.{name}", must_not_run)
    argv = [a.replace("NO_DIR", placeholders["NO_DIR"]) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert placeholders["NO_DIR"] in capsys.readouterr().err.splitlines()[-1]


def test_grid_without_zero_is_fine_where_no_network_is_built(capsys):
    assert main(["verify-adder", "--neurons", "16"]) == 0
    assert main(["run", "--controller", "baseline", "--neurons", "16",
                 "--duration", "1"]) == 0

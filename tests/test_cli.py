"""CLI verbs end to end (small run sizes)."""

import json

import pytest

from spikepid.cli import main


def test_run(capsys, tmp_path):
    out = tmp_path / "run"
    rc = main(["run", "--setpoint", "1.0", "--neurons", "15",
               "--duration", "3", "--out", str(out)])
    assert rc == 0
    assert "settling time" in capsys.readouterr().out
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "run.svg").exists()


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
    out = tmp_path / "net.json"
    rc = main(["export-netlist", "--neurons", "15", "--quantized", "true",
               "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    unit_neurons = [layer for layer in d["neurons"]["layer"] if layer != "input"]
    assert len(unit_neurons) == 93
    assert all(w % 2 == 0 for w in d["synapses"]["weight"])


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

"""Command-line interface tests: exit codes, JSON/CSV output, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from channel_order.channels import channel_to_csv, erasure_channel, symmetric_channel
from channel_order.cli import main
from channel_order.groups import cyclic_group


def write_channel(path, channel):
    path.write_text(channel_to_csv(channel))
    return str(path)


@pytest.fixture
def w02(tmp_path):
    return write_channel(tmp_path / "w02.csv", symmetric_channel(3, 0.2))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check-degraded -----------------------------------------------------------


def test_check_degraded_dominates(capsys, tmp_path, w02):
    v = write_channel(tmp_path / "v.csv", symmetric_channel(3, 0.9))
    code, out, _ = run(capsys, ["check-degraded", "--w", w02, "--v", v])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "dominates"
    kernel = np.array(payload["certificate"]["matrix"])
    assert np.abs(symmetric_channel(3, 0.2).matrix @ kernel - symmetric_channel(3, 0.9).matrix).max() <= 1e-6


def test_check_degraded_fails(capsys, tmp_path, w02):
    v = write_channel(tmp_path / "v.csv", symmetric_channel(3, 0.95))
    code, out, _ = run(capsys, ["check-degraded", "--w", w02, "--v", v])
    assert code == 1
    assert json.loads(out)["status"] == "fails"


def test_check_degraded_truncated_csv(capsys, tmp_path, w02):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.8,0.1,0.1\n0.1,0.8\n")
    code, _, err = run(capsys, ["check-degraded", "--w", w02, "--v", str(bad)])
    assert code == 2
    assert "error" in json.loads(err)


def test_check_degraded_additive(capsys, tmp_path):
    wf = tmp_path / "w.csv"
    wf.write_text("0.8,0.1,0.1\n")
    vf = tmp_path / "v.csv"
    vf.write_text("0.5,0.3,0.2\n")
    code, out, _ = run(capsys, ["check-degraded", "--additive", "--w", str(wf), "--v", str(vf)])
    assert code == 0
    weights = np.array(json.loads(out)["certificate"]["weights"])
    assert weights.sum() == pytest.approx(1.0, abs=1e-6)


def test_check_degraded_additive_with_group_file(capsys, tmp_path):
    group_file = tmp_path / "group.json"
    group_file.write_text(cyclic_group(3).to_json())
    wf = tmp_path / "w.csv"
    wf.write_text("0.8,0.1,0.1\n")
    vf = tmp_path / "v.csv"
    vf.write_text("0.8,0.1,0.1\n")
    code, out, _ = run(
        capsys,
        ["check-degraded", "--additive", "--group", str(group_file), "--w", str(wf), "--v", str(vf)],
    )
    assert code == 0


# --- check-less-noisy ----------------------------------------------------------


def test_check_less_noisy_exact_dominates(capsys, tmp_path, w02):
    v = write_channel(tmp_path / "v.csv", symmetric_channel(3, 16 / 17))
    code, out, _ = run(capsys, ["check-less-noisy", "--w", w02, "--v", v])
    assert code == 0
    assert json.loads(out)["certificate"]["kind"] == "vertex_psd"


def test_check_less_noisy_erasure_witness(capsys, tmp_path, w02):
    v = write_channel(tmp_path / "v.csv", erasure_channel(3, 0.5))
    code, out, _ = run(capsys, ["check-less-noisy", "--w", w02, "--v", v])
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["kind"] == "divergence_pair"
    assert witness["dominated_side"] == "inf"
    assert witness["dominating_side"] != "inf"


def test_check_less_noisy_sampled_undetermined(capsys, tmp_path):
    # genuinely singular V (circulant with a vanishing character) that is in
    # fact dominated: the exact test certifies it, since only W is inverted
    from channel_order.groups import circulant

    m = circulant(cyclic_group(4), np.array([0.35, 0.15, 0.35, 0.15]))
    assert abs(np.linalg.det(m)) < 1e-12
    sing = tmp_path / "sing.csv"
    sing.write_text("\n".join(",".join(map(str, row)) for row in m) + "\n")
    w = write_channel(tmp_path / "w.csv", symmetric_channel(4, 0.05))
    code, out, _ = run(
        capsys, ["check-less-noisy", "--w", w, "--v", str(sing), "--samples", "40"]
    )
    assert code == 0
    assert json.loads(out)["certificate"]["kind"] == "vertex_psd"
    # a singular W leaves only the sampled search, which cannot certify
    code, out, _ = run(
        capsys, ["check-less-noisy", "--w", str(sing), "--v", str(sing), "--samples", "40"]
    )
    assert code == 3
    assert json.loads(out)["status"] == "undetermined"


# --- delta-star ------------------------------------------------------------------


def test_delta_star_cli(capsys, tmp_path, w02):
    code, out, _ = run(capsys, ["delta-star", "--v", w02, "--tol", "1e-4"])
    assert code == 0
    payload = json.loads(out)
    assert 0.1999 <= payload["lower"] <= 0.2001
    assert 0.1999 <= payload["upper"] <= 0.2001


def test_delta_star_constant_channel(capsys, tmp_path):
    v = write_channel(tmp_path / "v.csv", symmetric_channel(4, 0.75))
    code, out, _ = run(capsys, ["delta-star", "--v", v])
    payload = json.loads(out)
    assert payload["lower"] == payload["upper"] == 0.75


def test_delta_star_identity(capsys, tmp_path):
    from channel_order.channels import Channel

    v = write_channel(tmp_path / "v.csv", Channel(np.eye(3)))
    code, out, _ = run(capsys, ["delta-star", "--v", v, "--tol", "1e-4"])
    payload = json.loads(out)
    assert payload["lower"] == 0.0
    assert payload["upper"] <= 1e-4


# --- region ----------------------------------------------------------------------


def test_region_small_grid(capsys, tmp_path):
    out_file = tmp_path / "region.csv"
    code, out, _ = run(
        capsys,
        ["region", "--delta", "0.2", "--grid", "2", "--out", str(out_file), "--workers", "1"],
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["points"] == 6
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 7
    assert lines[0] == "v0,v1,v2,label,method"


def test_region_rejects_bad_params(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["region", "--delta", "0.9", "--grid", "4", "--out", str(tmp_path / "r.csv")],
    )
    assert code == 2


def test_region_parallel_matches_serial(capsys, tmp_path):
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    run(capsys, ["region", "--delta", "0.2", "--grid", "6", "--out", str(serial), "--workers", "1"])
    run(capsys, ["region", "--delta", "0.2", "--grid", "6", "--out", str(parallel), "--workers", "2"])
    assert serial.read_text() == parallel.read_text()


def test_region_env_var_worker_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CHANNEL_ORDER_THREADS", "1")
    out_file = tmp_path / "region.csv"
    code, _, _ = run(capsys, ["region", "--delta", "0.1", "--grid", "3", "--out", str(out_file)])
    assert code == 0


# --- constants ---------------------------------------------------------------------


def test_constants_values(capsys):
    code, out, _ = run(capsys, ["constants", "--q", "3", "--delta", "0.2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lsi"] == pytest.approx(0.144269504, abs=1e-9)
    assert payload["discrete_lsi"] == pytest.approx(0.245258157, abs=1e-9)
    assert payload["rho_max"] == pytest.approx(0.7)
    assert payload["eta_kl_lower"] == pytest.approx(0.49)
    assert payload["eta_kl_upper"] == pytest.approx(0.7)
    assert payload["eigenvalue"] == pytest.approx(0.7)
    assert payload["tau_inverse"] == pytest.approx(-0.285714286, abs=1e-9)
    assert payload["tau_extremal"] == pytest.approx(0.9)
    assert payload["gamma_ln"] == pytest.approx(0.941176471, abs=1e-9)


def test_constants_edge_cases(capsys):
    code, out, _ = run(capsys, ["constants", "--q", "2", "--delta", "0.5"])
    payload = json.loads(out)
    assert payload["rho_max"] == 0.0
    assert payload["lsi"] == 0.5

    code, out, _ = run(capsys, ["constants", "--q", "5", "--delta", "1"])
    payload = json.loads(out)
    assert payload["eigenvalue"] == pytest.approx(-0.25)
    assert payload["gamma_ln"] is None

    code, _, _ = run(capsys, ["constants", "--q", "3", "--delta", "0"])
    assert code == 2


# --- dirichlet-check ----------------------------------------------------------------


def test_dirichlet_check_standard(capsys, tmp_path, w02):
    v = write_channel(tmp_path / "v.csv", symmetric_channel(3, 0.5))
    code, _, _ = run(capsys, ["dirichlet-check", "--w", w02, "--v", v, "--kind", "standard"])
    assert code == 0
    code, _, _ = run(capsys, ["dirichlet-check", "--w", v, "--v", w02, "--kind", "standard"])
    assert code == 1


def test_dirichlet_check_rejects_non_doubly_stochastic(capsys, tmp_path, w02):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.9,0.1\n0.8,0.2\n")
    code, _, _ = run(capsys, ["dirichlet-check", "--w", w02, "--v", str(bad), "--kind", "discrete"])
    assert code == 2


# --- group-validate -----------------------------------------------------------------


def test_group_validate(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(cyclic_group(4).to_json())
    code, out, _ = run(capsys, ["group-validate", str(good)])
    assert code == 0
    assert json.loads(out)["valid"]

    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 2, "table": [[0, 1], [1, 1]]}')
    code, out, _ = run(capsys, ["group-validate", str(bad)])
    assert code == 1
    assert json.loads(out)["code"] == "not_latin_square"

    code, _, _ = run(capsys, ["group-validate", str(tmp_path / "missing.json")])
    assert code == 2


# --- determinism and wiring -----------------------------------------------------------


def test_identical_runs_produce_identical_output(capsys, tmp_path, w02):
    v = write_channel(tmp_path / "v.csv", erasure_channel(3, 0.3))
    argv = ["check-less-noisy", "--w", w02, "--v", v, "--samples", "50", "--seed", "7"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_module_entrypoint_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "channel_order.cli", "constants", "--q", "3", "--delta", "0.2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["rho_max"] == 0.7

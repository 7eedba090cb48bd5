"""Command-line interface tests: exit codes, JSON/CSV output, determinism."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from channel_order.channels import (
    Channel,
    additive_channel,
    channel_to_csv,
    erasure_channel,
    symmetric_channel,
)
from channel_order.cli import main
from channel_order.groups import cyclic_group
from channel_order.symdom import region_sample


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


def test_check_degraded_rejects_nan_entry(capsys, tmp_path, w02):
    # a NaN in V once passed validation and gave "dominates" with a NaN kernel
    bad = tmp_path / "nan.csv"
    bad.write_text("nan,0.5,0.5\n0.1,0.8,0.1\n0.1,0.1,0.8\n")
    code, out, err = run(capsys, ["check-degraded", "--w", w02, "--v", str(bad)])
    assert code == 2 and out == ""
    assert "must be a pmf" in json.loads(err)["error"]


# --- check-less-noisy ----------------------------------------------------------


def test_check_less_noisy_exact_dominates(capsys, tmp_path, w02):
    v = write_channel(tmp_path / "v.csv", symmetric_channel(3, 16 / 17))
    code, out, _ = run(capsys, ["check-less-noisy", "--w", w02, "--v", v])
    assert code == 0
    # V = W_{16/17} is r I + c J and commutes with every permutation, so
    # letter 0 decides alone although its row 0 has ties
    certificate = json.loads(out)["certificate"]
    assert certificate["kind"] == "vertex_psd_orbit" and certificate["letter"] == 0


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


def test_check_less_noisy_orbit_certificate_is_strict_json(capsys, tmp_path):
    # an additive V with distinct noise entries: letter 0 decides alone, and
    # the certificate names it and its margin, with no NaN anywhere
    noise = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
    v = write_channel(tmp_path / "v.csv", additive_channel(cyclic_group(5), noise))
    w = write_channel(tmp_path / "w.csv", symmetric_channel(5, 0.1))
    code, out, _ = run(capsys, ["check-less-noisy", "--w", w, "--v", v])
    assert code == 0

    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    certificate = json.loads(out, parse_constant=reject)["certificate"]
    assert certificate["kind"] == "vertex_psd_orbit"
    assert certificate["letter"] == 0
    assert certificate["min_eigenvalue"] > 0


@pytest.mark.parametrize(
    "w, v, margins",
    [
        ([[0.9, 0.1], [0.2, 0.8]], [[1.0], [1.0]], ["inf", "inf"]),
        ([[1.0]], [[1.0]], ["inf"]),
        ([[1.0]], [[0.5, 0.5]], [0.5]),
    ],
)
def test_check_less_noisy_one_output_v_and_one_letter_alphabet(capsys, tmp_path, w, v, margins):
    # both are dominated; they once exited 1 with an IndexError traceback
    w_path = write_channel(tmp_path / "w.csv", Channel(w))
    v_path = write_channel(tmp_path / "v.csv", Channel(v))
    code, out, _ = run(capsys, ["check-less-noisy", "--w", w_path, "--v", v_path])
    assert code == 0
    certificate = json.loads(out)["certificate"]
    assert certificate["kind"] == "vertex_psd" and certificate["min_eigenvalues"] == margins


def test_check_less_noisy_rejects_a_negative_sample_budget(capsys, tmp_path):
    # a singular W sends the call to the sampled search, which used to accept -3
    w = Channel(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    wf = write_channel(tmp_path / "w.csv", w)
    vf = write_channel(tmp_path / "v.csv", Channel(w.matrix @ symmetric_channel(3, 0.2).matrix))
    code, out, err = run(capsys, ["check-less-noisy", "--w", wf, "--v", vf, "--samples", "-3"])
    assert code == 2 and out == ""
    assert "samples" in json.loads(err)["error"]


def test_check_less_noisy_rejects_a_negative_budget_before_the_exact_test(capsys, tmp_path, w02):
    # an invertible W is decided exactly, which once ignored the budget and exited 0
    v = write_channel(tmp_path / "v.csv", symmetric_channel(3, 0.5))
    code, out, err = run(capsys, ["check-less-noisy", "--w", w02, "--v", v, "--samples", "-3"])
    assert code == 2 and out == ""
    assert "samples" in json.loads(err)["error"]
    code, _, _ = run(capsys, ["check-less-noisy", "--w", w02, "--v", v, "--samples", "0"])
    assert code == 0


# --- delta-star ------------------------------------------------------------------


def test_delta_star_cli(capsys, tmp_path, w02):
    code, out, _ = run(capsys, ["delta-star", "--v", w02, "--tol", "1e-4"])
    assert code == 0
    payload = json.loads(out)
    assert 0.1999 <= payload["lower"] <= 0.2001
    assert 0.1999 <= payload["upper"] <= 0.2001
    assert payload["method"] == "exact"


def test_delta_star_constant_channel(capsys, tmp_path):
    v = write_channel(tmp_path / "v.csv", symmetric_channel(4, 0.75))
    code, out, _ = run(capsys, ["delta-star", "--v", v])
    payload = json.loads(out)
    assert payload["lower"] == payload["upper"] == 0.75
    assert payload["method"] == "exact"


def test_delta_star_identity(capsys, tmp_path):
    from channel_order.channels import Channel

    v = write_channel(tmp_path / "v.csv", Channel(np.eye(3)))
    code, out, _ = run(capsys, ["delta-star", "--v", v, "--tol", "1e-4"])
    payload = json.loads(out)
    assert payload["lower"] == 0.0
    assert payload["upper"] <= 1e-4


def test_delta_star_rejects_nan_tolerance(capsys, tmp_path, w02):
    # NaN once passed the check: exit 0 with "iterations": 0 and the starting bracket
    code, out, err = run(capsys, ["delta-star", "--v", w02, "--tol", "nan"])
    assert code == 2 and out == ""
    assert "tolerance must be positive" in json.loads(err)["error"]


# --- region ----------------------------------------------------------------------


def test_region_small_grid(capsys, tmp_path):
    out_file = tmp_path / "region.csv"
    code, out, _ = run(
        capsys,
        ["region", "--delta", "0.2", "--grid", "2", "--out", str(out_file)],
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


@pytest.mark.parametrize("bad", [["--q", "4", "--delta", "0.2"], ["--delta", "0.9"]])
def test_region_rejected_arguments_leave_out_file_alone(capsys, tmp_path, bad):
    out = tmp_path / "r.csv"
    out.write_text("previous contents\n")
    code, _, _ = run(capsys, ["region", *bad, "--grid", "4", "--out", str(out)])
    assert code == 2
    assert out.read_text() == "previous contents\n"


def test_region_runs_are_byte_identical(capsys, tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    for path in (first, second):
        code, _, _ = run(capsys, ["region", "--delta", "0.2", "--grid", "6", "--out", str(path)])
        assert code == 0
    buffer = io.StringIO()
    region_sample(3, 0.2, 6, out=buffer)
    assert first.read_text() == second.read_text() == buffer.getvalue()


def test_region_rejects_workers_option(capsys, tmp_path):
    argv = ["region", "--delta", "0.1", "--grid", "3", "--out", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "r.csv").exists()


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


def test_constants_tau_inverse_is_null_inside_the_singular_gate(capsys):
    # eigenvalue 8.5e-11: W_delta counts as singular (min(1, |r|) <= 1e-10),
    # as for delta* probes and the region; a 1e-12 test once printed -7.8e9
    code, out, _ = run(capsys, ["constants", "--q", "3", "--delta", "0.66666666661"])
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["eigenvalue"] < 1e-10
    assert payload["tau_inverse"] is None


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

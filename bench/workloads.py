"""The three workloads: seeded inputs, the operations timed, and their checks.

Every workload exposes the same surface to ``run.py``:

* ``ops``: the fixed, seeded list of operations one pass makes, each a
  zero-argument callable returning the program's output;
* ``warm_up()``: a few operations run before timing starts;
* ``prepare_reference()``: the independent reference, computed once and
  outside the set-up time;
* ``check(index, output)``: True when output ``index`` agrees with the
  reference or with the properties that pin it down;
* ``check_pass(outputs)``: properties across one whole pass;
* ``known_fault``: indices of operations that fail on every run because of a
  fault in the program (only the near-singular ``pairs`` family);
* ``labels``: a short name per operation, for failure reports.

Inputs depend on ``seed`` only; the program receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

# ---------------------------------------------------------------------------
# shared checks on verdicts
# ---------------------------------------------------------------------------

# delta_star brackets are asked for to this width.  An endpoint certified by
# the faulty psd_check tolerance can overshoot delta* by ~1e-7 to 1e-6 on
# additive V with sigma_min ~1e-4 (seeds 11 and 106); counting that would make
# the failure count depend on the seed.  The near-singular pairs still fail.
DELTA_STAR_TOL = 1e-4


def check_degraded(w, v, status: str, kernel=None) -> bool:
    margin, band = ref.degraded_margin(w, v)
    if not ref.accepts(ref.classify(margin, band), status):
        return False
    return status != ref.DOMINATES or ref.verify_kernel(w, v, kernel)


def check_less_noisy(w, v, status: str, witness: Optional[dict]) -> bool:
    """Status against the vertex test; a refutation must also re-verify.

    ``witness`` is the CLI's JSON form: kind "loewner" with eigenvalue,
    direction and vertex or pmf, or kind "divergence_pair" with p, q and the
    divergence name.  UNDETERMINED (sampled search) is always accepted.
    """
    if status == "undetermined":
        return True
    margin, band = ref.less_noisy_margin(w, v)
    if not ref.accepts(ref.classify(margin, band), status):
        return False
    if status == ref.DOMINATES:
        return True
    if witness["kind"] == "loewner":
        form = ref.loewner_form(
            w, v, witness["direction"], vertex=witness.get("vertex"), pmf=witness.get("pmf")
        )
        return form < 0.0
    return ref.divergence_pair_refutes(w, v, witness["divergence"], witness["p"], witness["q"])


def check_delta_star(
    v, lower: float, upper: float, star: float, additive_noise=None, slack: float = 1e-12
) -> bool:
    """The bracket holds the reference delta* and respects the paper's bounds.

    The bracket may miss delta* by less than DELTA_STAR_TOL, the precision
    it was asked for; ``slack`` covers the rounding of printed endpoints
    against the paper's closed-form bounds.
    """
    q = v.shape[0]
    if not lower <= upper <= (q - 1) / q + slack:
        return False
    if not lower - DELTA_STAR_TOL < star < upper + DELTA_STAR_TOL:
        return False
    if lower < ref.min_entry_threshold(v) - slack:
        return False
    if additive_noise is not None and upper < (q - 1) * float(np.min(additive_noise)) - slack:
        return False
    return True


def _status(verdict) -> str:
    return verdict.status.value


def witness_json(preorders, witness) -> Optional[dict]:
    """A library witness in the dict form the CLI prints (see check_less_noisy)."""
    if isinstance(witness, preorders.LoewnerWitness):
        return {
            "kind": "loewner",
            "direction": witness.direction,
            "vertex": witness.vertex,
            "pmf": witness.pmf,
        }
    if isinstance(witness, preorders.DivergencePairWitness):
        return {"kind": "divergence_pair", "divergence": witness.divergence, "p": witness.p, "q": witness.q}
    return None


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

PAIR_QS = (3, 4, 8, 16, 32, 64)
PAIR_KINDS = ("random", "additive_cyclic", "additive_product", "min_entry_tight", "nonsquare", "erasure")
DEGRADED_MAX_Q = 32  # is_degraded takes 0.4 s at q = 32 and 10 s at q = 64
# delta_star on a singular V solves one degradation LP per probe and stops at
# the first probe the sampled search cannot settle, so its cost swings with
# the input: 0.2-0.4 s at q = 16, 2-2.6 s at q = 32, 38 s at q = 64
SINGULAR_DELTA_STAR_MAX_Q = 16
PAIRS_PER_CELL = 2
SAMPLED_BUDGET = 100
NEAR_SINGULAR_EPS = (1e-6, 1e-5, 1e-4)


@dataclass
class Pair:
    name: str
    w: object  # Channel W_delta
    v: object  # Channel V
    additive_noise: Optional[np.ndarray] = None
    known_fault: bool = False

    @property
    def runs_degraded(self) -> bool:
        return self.w.rows <= DEGRADED_MAX_Q

    @property
    def runs_delta_star(self) -> bool:
        """Square V; a singular V only up to SINGULAR_DELTA_STAR_MAX_Q."""
        v = self.v.matrix
        if v.shape[0] != v.shape[1]:
            return False
        small = v.shape[0] <= SINGULAR_DELTA_STAR_MAX_Q
        return small or np.linalg.svd(v, compute_uv=False)[-1] > 1e-8


def random_channel(rng, q: int) -> np.ndarray:
    """A permutation mixed with Dirichlet rows (weight 0.2 to 0.6 on the rows).

    This keeps sigma_min(V) above ~0.07.  Plain Dirichlet rows reach 1e-5 at
    q = 64, where the psd_check fault shows on some seeds only (CHANGES.md).
    """
    t = rng.uniform(0.2, 0.6)
    return (1.0 - t) * np.eye(q)[rng.permutation(q)] + t * rng.dirichlet(np.ones(q), size=q)


def _product_factors(q: int) -> tuple[int, int]:
    for a in range(2, int(math.isqrt(q)) + 1):
        if q % a == 0:
            return a, q // a
    return q, 1


class Pairs:
    """One operation decides one pair (W_delta, V): degradation, less noisy, delta*."""

    def __init__(self, co, seed: int):
        self.co = co
        rng = np.random.default_rng(seed)
        self.pairs = [
            self._make(rng, q, kind, stratum)
            for q in PAIR_QS
            for kind in PAIR_KINDS
            for stratum in range(PAIRS_PER_CELL)
        ]
        w = co.symmetric_channel(3, 0.3)
        r0, r1 = np.array([0.98, 0.01, 0.01]), np.array([0.01, 0.98, 0.01])
        for eps in NEAR_SINGULAR_EPS:
            v = np.vstack([r0, r1, 0.5 * (r0 + r1) + eps * np.array([-1.0, -1.0, 2.0])])
            self.pairs.append(Pair(f"near_singular_{eps:g}", w, co.Channel(v), known_fault=True))
        order = rng.permutation(len(self.pairs))
        self.pairs = [self.pairs[i] for i in order]
        self.ops = [self._op(pair) for pair in self.pairs]
        self.labels = [pair.name for pair in self.pairs]
        self.known_fault = {i for i, pair in enumerate(self.pairs) if pair.known_fault}

    def _make(self, rng, q: int, kind: str, stratum: int) -> Pair:
        """One pair; the cell's pairs draw delta from consecutive strata of
        (0.05, 0.85)·(q-1)/q, so every seed mixes small and large delta and
        the verdicts, whose costs differ, stay in proportion."""
        co = self.co
        width = 0.8 / PAIRS_PER_CELL
        delta = (q - 1) / q * rng.uniform(0.05 + stratum * width, 0.05 + (stratum + 1) * width)
        w = co.symmetric_channel(q, delta)
        noise = None
        if kind == "random":
            v = co.Channel(random_channel(rng, q))
        elif kind in ("additive_cyclic", "additive_product"):
            t = rng.uniform(0.2, 0.4)
            noise = (1.0 - t) * rng.dirichlet(np.ones(q)) + t / q
            if kind == "additive_cyclic":
                group = co.cyclic_group(q)
            else:
                a, b = _product_factors(q)
                group = co.direct_product(co.cyclic_group(a), co.cyclic_group(b))
            v = co.additive_channel(group, noise)
        elif kind == "min_entry_tight":
            v = co.min_entry_tight_channel(q, rng.uniform(0.2, 0.8) / q)
        elif kind == "nonsquare":
            # degraded from W_delta with full support, so the sampled search
            # never refutes and spends its whole budget
            v = co.Channel(w.matrix @ rng.dirichlet(np.ones(q + 1), size=q))
        else:
            v = co.erasure_channel(q, rng.uniform(0.05, 0.5))
        return Pair(f"{kind}_q{q}", w, v, additive_noise=noise)

    def _op(self, pair: Pair) -> Callable:
        co = self.co
        preorders, symdom = co.preorders, co.symdom
        runs_degraded, runs_delta_star = pair.runs_degraded, pair.runs_delta_star

        def decide():
            deg = preorders.is_degraded(pair.w, pair.v) if runs_degraded else None
            try:
                ln = preorders.less_noisy_exact(pair.w, pair.v)
            except preorders.SingularChannelError:
                ln = preorders.less_noisy_sampled(pair.w, pair.v, samples=SAMPLED_BUDGET)
            star = symdom.delta_star(pair.v, tol=DELTA_STAR_TOL) if runs_delta_star else None
            return deg, ln, star

        return decide

    def warm_up(self) -> None:
        for op, pair in zip(self.ops, self.pairs):
            if pair.w.rows <= 8:
                op()

    def prepare_reference(self) -> None:
        self.stars = [
            ref.delta_star(np.array(p.v.matrix)) if p.runs_delta_star else None
            for p in self.pairs
        ]

    def check(self, index: int, output) -> bool:
        pair = self.pairs[index]
        w, v = np.array(pair.w.matrix), np.array(pair.v.matrix)
        deg, ln, star = output
        if deg is not None:
            kernel = deg.certificate["matrix"] if deg.dominates else None
            if not check_degraded(w, v, _status(deg), kernel):
                return False
        if not check_less_noisy(w, v, _status(ln), witness_json(self.co.preorders, ln.witness)):
            return False
        if star is not None:
            return check_delta_star(v, star.lower, star.upper, self.stars[index], pair.additive_noise)
        return True

    def check_pass(self, outputs) -> bool:
        return True


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

# Together the deltas reach all five strata.  Each sits midway between
# multiples of 0.025, where grid lines cross the majorization boundary, so
# the seeded jitter moves no grid line across it.  Their grids cost ~0.9,
# ~1.55 and ~2.3 s, far enough apart that the median operation is always a
# middle-delta grid.
REGION_DELTAS = (0.0625, 0.1625, 0.6375)
REGION_JITTER = 0.005
REGION_GRID = 40
WARM_UP_GRID = 8


def parse_region_csv(text: str) -> tuple[np.ndarray, list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != "v0,v1,v2,label,method":
        raise ValueError("unexpected region CSV header")
    rows = [line.split(",") for line in lines[1:]]
    points = np.array([[float(x) for x in row[:3]] for row in rows])
    return points, [row[3] for row in rows]


def grid_points(n: int) -> np.ndarray:
    return np.array([(i, j, n - i - j) for i in range(n + 1) for j in range(n - i + 1)]) / n


def check_region_labels(delta: float, n: int, points: np.ndarray, labels: list[str], allowed) -> bool:
    """Labels against the reference strata plus the properties of one grid."""
    grid = grid_points(n)
    if len(labels) != len(grid) or np.abs(points - grid).max() > 1e-8:
        return False
    if any(label not in ok for label, ok in zip(labels, allowed)):
        return False
    dominated = np.array([label in ref.DOMINATED for label in labels])
    inside = ref.circle_margin(3, delta, grid) >= -1e-9
    return bool(np.all(inside[dominated]))


class Region:
    """One operation classifies one full ternary grid at one delta, CSV to memory."""

    def __init__(self, co, seed: int):
        self.co = co
        rng = np.random.default_rng(seed)
        deltas = [d + rng.uniform(-REGION_JITTER, REGION_JITTER) for d in REGION_DELTAS]
        self.deltas = [deltas[i] for i in rng.permutation(len(deltas))]
        self.ops = [self._op(delta, REGION_GRID) for delta in self.deltas]
        self.labels = [f"region delta={delta:.4f}" for delta in self.deltas]
        self.known_fault = set()

    def _op(self, delta: float, grid: int) -> Callable:
        symdom = self.co.symdom

        def classify():
            out = io.StringIO()
            symdom.region_sample(3, delta, grid, out=out)
            return out.getvalue()

        return classify

    def warm_up(self) -> None:
        for delta in self.deltas:
            self._op(delta, WARM_UP_GRID)()

    def prepare_reference(self) -> None:
        points = grid_points(REGION_GRID)
        self.allowed = [ref.region_labels(3, delta, points) for delta in self.deltas]

    def check(self, index: int, output) -> bool:
        points, labels = parse_region_csv(output)
        return check_region_labels(
            self.deltas[index], REGION_GRID, points, labels, self.allowed[index]
        )

    def check_pass(self, outputs) -> bool:
        """A point dominated at a larger delta is dominated at every smaller one."""
        dominated = {}
        for delta, text in zip(self.deltas, outputs):
            _, labels = parse_region_csv(text)
            dominated[delta] = np.array([label in ref.DOMINATED for label in labels])
        ordered = [dominated[d] for d in sorted(dominated)]
        return all(np.all(~big | small) for small, big in zip(ordered, ordered[1:]))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_REGION_GRID = 12
CLI_SLACK = 1e-8  # the CLI prints floats to 9 significant digits
EXIT_FOR = {"dominates": 0, "fails": 1, "undetermined": 3}


def _csv(matrix) -> str:
    return "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in np.atleast_2d(matrix))


@dataclass
class CliCall:
    argv: list
    check: Callable  # (exit code, stdout, region CSV or None) -> bool
    out_file: Optional[Path] = None
    prepare: Optional[Callable] = None  # computes the call's reference


class Cli:
    """One operation is one ``python -m channel_order.cli`` call in a fresh interpreter."""

    def __init__(self, co, seed: int, workdir: Path, env: dict, root: Path):
        self.co, self.env, self.root, self.workdir = co, env, root, workdir
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        calls = [
            self._check_degraded(rng),
            self._less_noisy_exact(rng),
            self._less_noisy_erasure(rng),
            self._delta_star(rng),
            self._region(rng),
            self._constants(rng),
            self._dirichlet(rng),
            self._group(rng),
        ]
        self.calls = [calls[i] for i in rng.permutation(len(calls))]
        self.ops = [self._op(call) for call in self.calls]
        self.labels = [call.argv[0] for call in self.calls]
        self.known_fault = set()

    # -- inputs ---------------------------------------------------------------

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def _channel_file(self, name: str, matrix) -> tuple[str, np.ndarray]:
        return self._write(name, _csv(matrix)), np.asarray(matrix, dtype=float)

    def _check_degraded(self, rng) -> CliCall:
        q = int(rng.integers(4, 9))
        w = ref.symmetric(q, (q - 1) / q * rng.uniform(0.05, 0.6))
        v = rng.dirichlet(np.ones(q), size=q)
        if rng.random() < 0.5:
            v = w @ v  # degraded by construction
        wf, w = self._channel_file("deg_w.csv", w)
        vf, v = self._channel_file("deg_v.csv", v)

        def check(code, out, _):
            payload = json.loads(out)
            status = payload["status"]
            kernel = payload.get("certificate", {}).get("matrix")
            return code == EXIT_FOR[status] and check_degraded(w, v, status, kernel)

        return CliCall(["check-degraded", "--w", wf, "--v", vf], check)

    def _less_noisy_exact(self, rng) -> CliCall:
        q = int(rng.integers(3, 9))
        noise = 0.5 * rng.dirichlet(np.ones(q)) + 0.5 / q
        wf, w = self._channel_file("lne_w.csv", ref.symmetric(q, (q - 1) / q * rng.uniform(0.05, 0.9)))
        vf, v = self._channel_file("lne_v.csv", ref.circulant(noise))
        return CliCall(["check-less-noisy", "--w", wf, "--v", vf], _less_noisy_check(w, v))

    def _less_noisy_erasure(self, rng) -> CliCall:
        q = int(rng.integers(3, 9))
        eps = rng.uniform(0.05, 0.5)
        wf, w = self._channel_file("era_w.csv", ref.symmetric(q, (q - 1) / q * rng.uniform(0.05, 0.9)))
        vf, v = self._channel_file("era_v.csv", np.hstack([(1.0 - eps) * np.eye(q), np.full((q, 1), eps)]))
        return CliCall(["check-less-noisy", "--w", wf, "--v", vf], _less_noisy_check(w, v))

    def _delta_star(self, rng) -> CliCall:
        q = int(rng.integers(3, 9))
        vf, v = self._channel_file("ds_v.csv", random_channel(rng, q))
        star = {}

        def check(code, out, _):
            p = json.loads(out)
            return code == 0 and check_delta_star(v, p["lower"], p["upper"], star["value"], slack=CLI_SLACK)

        return CliCall(
            ["delta-star", "--v", vf, "--tol", repr(DELTA_STAR_TOL)],
            check,
            prepare=lambda: star.update(value=ref.delta_star(v)),
        )

    def _region(self, rng) -> CliCall:
        delta = rng.uniform(0.1, 0.6)
        out = self.workdir / "region.csv"
        n_points = len(grid_points(CLI_REGION_GRID))
        allowed = []

        def check(code, stdout, text):
            payload = json.loads(stdout)
            points, labels = parse_region_csv(text)
            return (
                code == 0
                and payload["points"] == n_points
                and sum(payload["counts"].values()) == n_points
                and check_region_labels(delta, CLI_REGION_GRID, points, labels, allowed)
            )

        def prepare():
            allowed[:] = ref.region_labels(3, delta, grid_points(CLI_REGION_GRID))

        # no --workers: the default starts a process pool on every call
        argv = ["region", "--delta", repr(delta), "--grid", str(CLI_REGION_GRID), "--out", str(out)]
        return CliCall(argv, check, out_file=out, prepare=prepare)

    def _constants(self, rng) -> CliCall:
        q = int(rng.integers(3, 9))
        delta = float(np.round((q - 1) / q * rng.uniform(0.05, 0.95), 6))

        def check(code, out, _):
            return code == 0 and check_constants(q, delta, json.loads(out))

        return CliCall(["constants", "--q", str(q), "--delta", repr(delta)], check)

    def _dirichlet(self, rng) -> CliCall:
        q = int(rng.integers(3, 9))
        noise = 0.5 * rng.dirichlet(np.ones(q)) + 0.5 / q
        wf, w = self._channel_file("dir_w.csv", ref.symmetric(q, (q - 1) / q * rng.uniform(0.05, 0.9)))
        vf, v = self._channel_file("dir_v.csv", ref.circulant(noise))

        def check(code, out, _):
            holds = json.loads(out)["holds"]
            # the discrete forms compare W W^T with V V^T
            kind = ref.classify(*ref.psd_margin(w @ w.T - v @ v.T))
            return code == (0 if holds else 1) and ref.accepts(kind, "dominates" if holds else "fails")

        return CliCall(["dirichlet-check", "--w", wf, "--v", vf, "--kind", "discrete"], check)

    def _group(self, rng) -> CliCall:
        a, b = (2, 4) if rng.random() < 0.5 else (2, 3)
        ia, ib = np.arange(a), np.arange(b)
        # Z_a x Z_b with (x, y) encoded as x * b + y
        table = (((ia[:, None, None, None] + ia[None, None, :, None]) % a) * b
                 + (ib[None, :, None, None] + ib[None, None, None, :]) % b).reshape(a * b, a * b)
        if rng.random() < 0.5:  # break it: swap two entries of one row
            row = int(rng.integers(1, a * b))
            table[row, [1, 2]] = table[row, [2, 1]]
        failing = ref.group_axioms_failing(table)
        path = self._write("group.json", json.dumps({"order": a * b, "table": table.tolist()}))

        def check(code, out, _):
            payload = json.loads(out)
            if not failing:
                return code == 0 and payload == {"valid": True, "order": a * b}
            return code == 1 and payload["valid"] is False and payload["code"] in failing

        return CliCall(["group-validate", path], check)

    # -- running --------------------------------------------------------------

    def _op(self, call: CliCall) -> Callable:
        command = [sys.executable, "-m", "channel_order.cli", *call.argv]

        def run():
            proc = subprocess.run(
                command, env=self.env, cwd=self.root, capture_output=True, text=True, timeout=120
            )
            return proc.returncode, proc.stdout, _read_output(call, proc.returncode)

        return run

    def in_process_ops(self) -> list:
        """The same calls through ``cli.main`` in this process (traced run)."""
        cli = self.co.cli

        def op(call: CliCall) -> Callable:
            def run():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(call.argv))
                return code, out.getvalue(), _read_output(call, code)

            return run

        return [op(call) for call in self.calls]

    def warm_up(self) -> None:
        self.ops[next(i for i, c in enumerate(self.calls) if c.argv[0] == "constants")]()

    def prepare_reference(self) -> None:
        for call in self.calls:
            if call.prepare is not None:
                call.prepare()

    def check(self, index: int, output) -> bool:
        return self.calls[index].check(*output)

    def check_pass(self, outputs) -> bool:
        return True


def _read_output(call: CliCall, code: int) -> Optional[str]:
    return call.out_file.read_text() if call.out_file is not None and code == 0 else None


def _less_noisy_check(w, v) -> Callable:
    def check(code, out, _):
        payload = json.loads(out)
        status = payload["status"]
        return code == EXIT_FOR[status] and check_less_noisy(w, v, status, payload.get("witness"))

    return check


def check_constants(q: int, delta: float, c: dict) -> bool:
    """The closed-form constants against matrix identities of W_delta.

    Printed values carry 9 significant digits, so margins at the closed-form
    endpoints are compared with that rounding allowed for.
    """
    w = ref.symmetric(q, delta)

    def close(x, y):
        return abs(x - y) <= 1e-7 * max(1.0, abs(y))

    eigs = np.linalg.eigvalsh(w)  # 1 once, the symmetric eigenvalue q - 1 times
    lam = eigs[0] if abs(eigs[0] - 1.0) > 1e-9 else eigs[-1]
    dobrushin = 0.5 * np.abs(w[0] - w[1]).sum()
    ok = (
        close(c["eigenvalue"], lam)
        and close(c["rho_max"], abs(lam))
        and close(c["eta_kl_upper"], dobrushin)
        and close(c["eta_kl_lower"], lam**2)
    )
    if c["tau_inverse"] is not None:
        ok = ok and np.abs(w @ ref.symmetric(q, c["tau_inverse"]) - np.eye(q)).max() <= 1e-6
    # W_delta degrades to W_tau up to tau_extremal and no further
    tau = c["tau_extremal"]
    ok = ok and ref.degraded_margin(w, ref.symmetric(q, tau))[0] >= -1e-6
    ok = ok and ref.degraded_margin(w, ref.symmetric(q, tau + 1e-4))[0] < 0.0
    if c["gamma_ln"] is not None:
        ok = ok and ref.less_noisy_margin(w, ref.symmetric(q, c["gamma_ln"]))[0] >= -1e-6
    # W_delta W_delta^T is symmetric at delta'; the discrete constant is the
    # ordinary one at delta', which is linear in delta
    delta_prime = 1.0 - (w @ w.T)[0, 0]
    return ok and close(c["discrete_lsi"], c["lsi"] * delta_prime / delta)

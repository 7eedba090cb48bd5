"""Checks of the benchmark's reference against the paper's closed forms.

    python3 bench/selfcheck.py

Exits 0 when every check holds and 1 otherwise, printing one line per check.
The reference (bench/reference.py) is what the benchmark trusts to judge the
program, so it is itself held to results known in closed form:

* W_delta degrades to W_tau exactly for tau in [delta, 1 - delta/(q-1)];
* the minimum-entry threshold is attained on ``min_entry_tight_channel``;
* W_delta is less noisy than W_gamma exactly up to gamma = ``ln_gamma_bound(q, delta)``;
* delta* is at least the minimum-entry threshold, and at least
  (q-1) min(v) for additive noise v;
* on random pairs, every refutation by ``less_noisy_sampled`` is also a
  reference refutation, and its witness re-verifies.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import channel_order as co  # noqa: E402

import reference as ref  # noqa: E402
from workloads import check_less_noisy, witness_json  # noqa: E402

QS = (2, 3, 4, 8, 16)
STEP = 1e-4  # distance beyond a closed-form endpoint that must fail


def degradation_interval() -> bool:
    for q in QS:
        for delta in np.linspace(0.05, (q - 1) / q - 0.05, 5):
            w = ref.symmetric(q, delta)
            end = 1.0 - delta / (q - 1)
            for tau in np.linspace(delta, end, 7):
                if ref.classify(*ref.degraded_margin(w, ref.symmetric(q, tau))) == ref.FAILS:
                    return False
            for tau in (delta - STEP, end + STEP):
                if ref.classify(*ref.degraded_margin(w, ref.symmetric(q, tau))) != ref.FAILS:
                    return False
    return True


def min_entry_threshold_attained() -> bool:
    for q in QS[1:]:
        for nu in np.linspace(0.1, 0.9, 5) / q:
            v = np.array(co.min_entry_tight_channel(q, nu).matrix)
            threshold = ref.min_entry_threshold(v)
            at = ref.classify(*ref.degraded_margin(ref.symmetric(q, threshold), v))
            below = ref.classify(*ref.degraded_margin(ref.symmetric(q, 0.9 * threshold), v))
            above = ref.classify(*ref.degraded_margin(ref.symmetric(q, threshold + STEP), v))
            if at == ref.FAILS or below != ref.DOMINATES or above != ref.FAILS:
                return False
    return True


def gamma_bound_less_noisy() -> bool:
    """Less noisy at gamma and between delta and gamma; not beyond gamma."""
    for q in QS:
        for delta in np.linspace(0.05, (q - 1) / q - 0.05, 5):
            w = ref.symmetric(q, delta)
            gamma = co.ln_gamma_bound(q, delta)

            def kind(tau):
                return ref.classify(*ref.less_noisy_margin(w, ref.symmetric(q, tau)))

            if kind(gamma) == ref.FAILS or kind(0.5 * (delta + gamma)) != ref.DOMINATES:
                return False
            if gamma + STEP <= 1.0 and kind(gamma + STEP) != ref.FAILS:
                return False
    return True


def delta_star_bounds(rng) -> bool:
    for q in (3, 4, 6, 8):
        for _ in range(5):
            v = 0.5 * np.eye(q)[rng.permutation(q)] + 0.5 * rng.dirichlet(np.ones(q), size=q)
            if ref.delta_star(v) < ref.min_entry_threshold(v) - 1e-9:
                return False
            noise = 0.5 * rng.dirichlet(np.ones(q)) + 0.5 / q
            if ref.delta_star(ref.circulant(noise)) < (q - 1) * noise.min() - 1e-9:
                return False
    return True


def sampled_refutations_agree(rng) -> bool:
    refuted = 0
    for _ in range(60):
        q = int(rng.integers(3, 6))
        s = q + int(rng.integers(0, 3))
        w = co.symmetric_channel(q, (q - 1) / q * rng.uniform(0.05, 0.9))
        v = co.Channel(rng.dirichlet(np.ones(s), size=q))
        verdict = co.less_noisy_sampled(w, v, samples=200, seed=int(rng.integers(1 << 30)))
        if verdict.status is not co.Status.FAILS:
            continue
        refuted += 1
        witness = witness_json(co.preorders, verdict.witness)
        if not check_less_noisy(np.array(w.matrix), np.array(v.matrix), "fails", witness):
            return False
    return refuted > 0


def main() -> int:
    rng = np.random.default_rng(20160922)
    checks = {
        "W_delta degrades to W_tau iff tau in [delta, 1 - delta/(q-1)]": degradation_interval(),
        "minimum-entry threshold attained on min_entry_tight_channel": min_entry_threshold_attained(),
        "W_delta less noisy than W_gamma iff gamma <= ln_gamma_bound": gamma_bound_less_noisy(),
        "delta* above the minimum-entry and additive thresholds": delta_star_bounds(rng),
        "sampled refutations are reference refutations": sampled_refutations_agree(rng),
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

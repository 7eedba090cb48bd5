"""Benchmark for channel-order: three workloads, verdicts checked, per-layer trace.

    python3 bench/run.py --workload {cli,region,pairs} --seed N --seconds S --trace {0,1}

Run from the repository root or anywhere else; the program is imported from
``src/`` next to this directory.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A per-layer self-time table goes to standard error.  See
bench/README.md for what each workload measures and why.
"""

import os

# BLAS pinned to one thread before numpy loads, here and in every child: the
# machine has two cores and the CLI's region pool already uses both.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SUBCOMMANDS = (
    "check-degraded",
    "check-less-noisy",
    "delta-star",
    "region",
    "constants",
    "dirichlet-check",
    "group-validate",
)
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_import_s(env: dict) -> float:
    """Wall time of ``import channel_order`` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import channel_order"], env=env, cwd=ROOT, check=True, timeout=120
    )
    return time.perf_counter() - start


def cpu_s() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def make_workload(name: str, seed: int, workdir: Path, env: dict, co):
    import workloads

    if name == "pairs":
        return workloads.Pairs(co, seed)
    if name == "region":
        return workloads.Region(co, seed)
    return workloads.Cli(co, seed, workdir, env, ROOT)


def set_up(args, workdir: Path, env: dict, co):
    """Set up SETUP_REPEATS times; return (median set-up seconds, import times, workload).

    One set-up is a cold import of the package in a fresh interpreter, input
    generation and the warm-up operations.
    """
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        imports.append(cold_import_s(env))
        workload = make_workload(args.workload, args.seed, workdir, env, co)
        workload.warm_up()
        totals.append(time.perf_counter() - start)
    print("set-up s: " + " ".join(f"{t:.3f} (import {i:.3f})" for t, i in zip(totals, imports)),
          file=sys.stderr)
    return statistics.median(totals), imports, workload


class Tally:
    """Operations attempted and failed; a failure outside the workload's
    known-fault family makes the run incorrect."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.correct = True

    def run(self, index: int, op) -> tuple[object, float, float]:
        """Run and time one operation, then check its output untimed.

        Returns (output, wall seconds, cpu seconds).  Outputs are not kept
        past their pass, so the benchmark's own memory stays flat.
        """
        cpu0, start = cpu_s(), time.perf_counter()
        try:
            output = op()
        except Exception as err:  # an operation that raises counts as failed
            output = err
        wall, cpu = time.perf_counter() - start, cpu_s() - cpu0
        self.attempted += 1
        try:
            ok = not isinstance(output, Exception) and self.workload.check(index, output)
        except Exception as err:  # malformed output: the check could not read it
            ok, output = False, err
        if not ok:
            self.failed += 1
            if index not in self.workload.known_fault:
                self.correct = False
                label = self.workload.labels[index]
                print(f"unexpected failure: {label}: {output!r:.300}", file=sys.stderr)
        return output, wall, cpu

    def end_pass(self, outputs: list) -> None:
        if any(isinstance(o, Exception) for o in outputs):
            return
        if not self.workload.check_pass(outputs):
            self.correct = False
            print("a property across the pass does not hold", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, tally: Tally, setup_s: float) -> dict:
    """Whole passes over the operations until they have run ``--seconds``."""
    walls, cpus, passes = [], [], 0
    while sum(walls) < args.seconds:
        outputs = []
        for index, op in enumerate(workload.ops):
            output, wall, cpu = tally.run(index, op)
            outputs.append(output)
            walls.append(wall)
            cpus.append(cpu)
        tally.end_pass(outputs)
        passes += 1
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    n, busy = len(walls), sum(walls)
    print(f"{args.workload}: {passes} passes, {n} ops in {busy:.2f} s, set-up {setup_s:.3f} s",
          file=sys.stderr)
    values = {
        "ops_per_s": n / busy,
        "op_p50_ms": 1e3 * statistics.median(walls),
        "cpu_ms_per_op": 1e3 * sum(cpus) / n,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {k: metric(v, END_TO_END[k]) for k, v in values.items()}


def traced_passes(ops, seconds: float, tally: Tally, tracer, totals):
    """Each operation untraced and traced back to back, the order alternating
    by pass, until both copies together have run ``seconds``.

    Returns (untraced wall seconds, traced wall seconds) per operation.
    """
    plain, traced, passes = [], [], 0
    while sum(plain) + sum(traced) < seconds:
        outputs = []
        for index, op in enumerate(ops):
            for traced_turn in (passes % 2 == 1, passes % 2 == 0):
                if traced_turn:
                    tracer.install()
                try:
                    output, wall, _ = tally.run(index, op)
                finally:
                    if traced_turn:
                        tracer.uninstall()
                        tracer.drain(totals)
                (traced if traced_turn else plain).append(wall)
            outputs.append(output)
        tally.end_pass(outputs)
        passes += 1
    return plain, traced


def per_layer(args, workload, tally: Tally, imports, co) -> dict:
    from tracing import LayerTotals, Tracer

    ops = workload.in_process_ops() if args.workload == "cli" else workload.ops
    tracer, totals = Tracer(co), LayerTotals()
    plain, traced = traced_passes(ops, args.seconds, tally, tracer, totals)
    n = len(traced)
    for line in totals.table(sum(traced)):
        print(line, file=sys.stderr)

    def per_op_ms(layer):
        return 1e3 * totals.self_s(layer) / n

    def ratio(a, b):
        return a / b if b else 0.0

    values = {"cli.import_ms": (1e3 * statistics.median(imports), "ms")}
    for sub in SUBCOMMANDS:
        layer = f"cli.main.{sub}"
        values[f"cli.main_ms.{sub}"] = (1e3 * ratio(totals.inclusive_s(layer), totals.calls(layer)), "ms")
    values.update(
        {
            "preorders.linprog_calls": (totals.calls("preorders.linprog") / n, "calls/op"),
            "preorders.linprog_ms": (per_op_ms("preorders.linprog"), "ms/op"),
            "symdom.linprog_per_point": (
                ratio(totals.calls("preorders.linprog"), totals.calls("symdom.classify")),
                "calls/point",
            ),
            "preorders.is_degraded_ms": (per_op_ms("preorders.is_degraded"), "ms/op"),
            "preorders.less_noisy_exact_ms": (per_op_ms("preorders.less_noisy_exact"), "ms/op"),
            "preorders.psd_check_calls": (totals.calls("preorders.psd_check") / n, "calls/op"),
            "preorders.psd_check_ms": (per_op_ms("preorders.psd_check"), "ms/op"),
            "preorders.less_noisy_sampled_ms": (per_op_ms("preorders.less_noisy_sampled"), "ms/op"),
            "preorders.sampled_samples_per_call": (
                ratio(totals.samples_used, totals.calls("preorders.less_noisy_sampled")),
                "samples/call",
            ),
            "divergences.calls": (totals.calls("divergences") / n, "calls/op"),
            "divergences.ms": (per_op_ms("divergences"), "ms/op"),
            "channels.construct_calls": (totals.calls("channels.construct") / n, "calls/op"),
            "channels.construct_ms": (per_op_ms("channels.construct"), "ms/op"),
            "groups.ms": (per_op_ms("groups"), "ms/op"),
            "dirichlet.ms": (per_op_ms("dirichlet"), "ms/op"),
            "preorders.majorizes_ms": (per_op_ms("preorders.majorizes"), "ms/op"),
            "symdom.lower_hull_ms": (per_op_ms("symdom.lower_hull"), "ms/op"),
            "symdom.classify_ms": (per_op_ms("symdom.classify"), "ms/op"),
            "symdom.region_emit_ms": (per_op_ms("symdom.region_sample"), "ms/op"),
            "symdom.delta_star_ms": (per_op_ms("symdom.delta_star"), "ms/op"),
            "symdom.delta_star_probes": (
                ratio(totals.probes, totals.calls("symdom.delta_star")),
                "probes/call",
            ),
            "trace.overhead_pct": (100.0 * (sum(traced) / sum(plain) - 1.0), "%"),
        }
    )
    return {k: metric(v, unit) for k, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cli", "region", "pairs"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "channel_order" / "__init__.py").is_file():
        print(f"channel_order sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    env = child_env()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        co = None
        if args.workload != "cli" or args.trace:
            import channel_order as co
            from channel_order import cli  # noqa: F401  (traced through co.cli)
        setup_s, imports, workload = set_up(args, workdir, env, co)
        ref_start = time.perf_counter()
        workload.prepare_reference()
        print(f"reference: {time.perf_counter() - ref_start:.2f} s", file=sys.stderr)
        tally = Tally(workload)
        if args.trace:
            metrics = per_layer(args, workload, tally, imports, co)
        else:
            metrics = end_to_end(args, workload, tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

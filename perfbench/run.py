#!/usr/bin/env python3
"""pidcert benchmark: closed-loop workloads with one caller, end-to-end metrics
with tracing off, and a separate traced run for per-layer metrics.

Run from the root of a source checkout (pidcert is imported from ``src/``):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and sample count. Generated configs, CLI
outputs, result records and trace spans go to ``.bench_out/`` in the
checkout. Exit code 2 means the benchmark could not run at all.
"""

import os
import sys
import time

T_START = time.perf_counter()

# one caller, one core: BLAS/OpenMP pools pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("certify", "sweep", "oneshot")
SETUP_PROBES = 5
SETUP_SPEED_SAMPLES = 9


def fail(msg: str) -> "SystemExit":
    print(f"perfbench: {msg}", file=sys.stderr)
    return SystemExit(2)


def import_benchmark():
    """Import pidcert from this checkout's sources, then the workload modules."""
    if not (ROOT / "src" / "pidcert" / "__init__.py").is_file():
        raise fail(f"no pidcert sources under {ROOT / 'src'}; run from a source checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pidcert

    if Path(pidcert.__file__).resolve().parent != ROOT / "src" / "pidcert":
        raise fail(f"imported pidcert from {pidcert.__file__}, not from this checkout")
    import workloads

    return workloads


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


class Loop:
    """Closed loop with one caller: runs ops back to back and keeps the verdicts.

    ``latencies`` are calibrated to nominal machine speed (see ``speed.py``);
    ``wall`` are the same latencies as measured.
    """

    def __init__(self, speedometer, tracer=None):
        self.speed = speedometer
        self.tracer = tracer
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.labels: list[str] = []
        self.items = 0
        self.failed = 0
        self.certs: list = []

    def run(self, op) -> None:
        if self.tracer is not None:
            self.tracer.op_id = len(self.latencies)
            self.tracer.active = True
        result, error, wall, calibrated = self.speed.timed(op.call)
        if self.tracer is not None:
            self.tracer.active = False
        self.latencies.append(calibrated)
        self.wall.append(wall)
        self.labels.append(op.label)
        outcome = None if error else op.check(result)
        if outcome is not None:
            self.certs += outcome.certs
        if outcome is None or not outcome.ok:
            self.failed += 1
            why = f"{type(error).__name__}: {error}" if error else outcome.why
            print(f"FAILED {op.label}: {why}", file=sys.stderr)
        else:
            self.items += outcome.items

    def run_blocks(self, workload, seconds: float) -> None:
        """Whole blocks until ``seconds`` have passed."""
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            for op in workload.block():
                self.run(op)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def setup(wl_module, name: str, seed: int, work_dir: Path):
    """Build the workload, draw its first inputs and run one untimed warm-up op."""
    workload = wl_module.WORKLOADS[name](seed, work_dir)
    warm = workload.warmup()
    outcome = warm.check(warm.call())
    if not outcome.ok:
        raise fail(f"warm-up op {warm.label} failed: {outcome.why}")
    return workload


def setup_probe_seconds(name: str, seed: int) -> list[float]:
    """Calibrated set-up time of fresh processes doing the same set-up as this one."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(loop: Loop, setup_times: list[float]) -> dict[str, tuple[float, str, int]]:
    lat = loop.latencies
    fracs = [alpha / ref for _, _, alpha, ref in loop.certs]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "items_per_s": (loop.items / loop.busy, "1/s", loop.items),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", len(lat)),
        "op_p90_ms": (p90(lat) * 1e3, "ms", len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "alpha_frac": (statistics.fmean(fracs) if fracs else 0.0, "frac", len(fracs)),
    }


def report(name: str, args, metrics: dict, loops: list, extra: dict) -> int:
    attempted = sum(len(lp.latencies) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name:8s} {metric:58s} {value:14.6g} {unit:12s} n={samples}")
    print(f"{name:8s} {'failed_frac':58s} {failed / attempted:14.6g} {'frac':12s} n={attempted}")
    env = environment()
    for key, value in {**extra, "env": json.dumps(env)}.items():
        print(f"{name:8s} {key:58s} {value}")
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed, "env": env, **extra,
        "metrics": {m: {"value": v, "unit": u, "samples": s} for m, (v, u, s) in metrics.items()},
        # every op of the run: label, wall seconds, calibrated seconds
        "ops": [list(op) for lp in loops for op in zip(lp.labels, lp.wall, lp.latencies)],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }))
    return 0


def run_workload(args) -> int:
    wl = import_benchmark()
    import speed

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = setup(wl, args.workload, args.seed, work_dir)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            # speed samples straight after the set-up, in the same hot process
            meter = speed.Speedometer()
            for _ in range(SETUP_SPEED_SAMPLES):
                meter.sample()
            print(repr(setup_s * meter.factor(0)))
            return 0
        if not args.trace:
            setup_times = setup_probe_seconds(args.workload, args.seed)
            meter = speed.Speedometer()
            loop = Loop(meter)
            loop.run_blocks(workload, args.seconds)
            gaps = [1.0 - alpha / ref for _, _, alpha, ref in loop.certs]
            extra = {
                "cert_gap_mean": statistics.fmean(gaps) if gaps else None,
                "wall_op_p50_ms": statistics.median(loop.wall) * 1e3,
                "wall_op_p90_ms": p90(loop.wall) * 1e3,
                "reference_median_us": statistics.median(meter.ref) * 1e6,
                "reference_samples": len(meter.ref),
            }
            return report(args.workload, args, end_to_end(loop, setup_times), [loop], extra)

        import tracing

        # the same ops untraced and traced, block by block, alternating which
        # side goes first; the difference in busy time is the tracing overhead
        tracer = tracing.Tracer()
        replay = wl.WORKLOADS[args.workload](args.seed, work_dir)
        replay.warmup()  # drawn, not run: keeps the replay's draws in step
        meter = speed.Speedometer()
        plain, traced = Loop(meter), Loop(meter, tracer)
        blocks = 0
        tracing.install(tracer)
        try:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < args.seconds:
                sides = [(plain, workload.block()), (traced, replay.block())]
                for loop, ops in sides[:: 1 if blocks % 2 == 0 else -1]:
                    for op in ops:
                        loop.run(op)
                blocks += 1
        finally:
            tracer.unpatch()
        overhead = traced.busy / plain.busy - 1.0
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        layers = tracing.per_layer(tracer, len(traced.latencies), traced.certs, overhead)
        units = dict(tracing.per_layer_names())
        metrics = {m: (v, units[m], s) for m, (v, s) in layers.items()}
        return report(args.workload, args, metrics, [plain, traced], {"traced_blocks": blocks})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=600,
        )
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""imgdna benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; imgdna is imported from its
`src` directory. The run sets the workload up three times (the median
counts), then runs whole rounds of operations until --seconds have
passed, checking every output. With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 the run records layer spans and
the last line holds the per-layer metrics. A full report and, when
traced, the spans go to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import calibrate
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("sweep", "archive", "containment")
SETUP_REPEATS = 3
PROBE_WINDOW = 5  # probes on each side of an operation that set its scale


def make_workload(name: str, seed: int, workdir: str):
    from workloads import Archive, Containment, Sweep  # needs imgdna on sys.path

    if name == "sweep":
        return Sweep(seed)
    if name == "archive":
        return Archive(seed, workdir)
    return Containment(seed)


def fresh_import_s() -> float:
    """Seconds `import imgdna` takes in a new interpreter."""
    code = "import time; t = time.perf_counter(); import imgdna; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def latency_figures(durations: dict[str, list[float]]) -> dict:
    """Median per operation kind, plus p90 where 100 samples put ten beyond it."""
    out = {}
    for kind, values in durations.items():
        out[f"{kind}_ms_p50"] = {"value": 1000 * statistics.median(values), "unit": "ms"}
        if len(values) >= 100:
            p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
            out[f"{kind}_ms_p90"] = {"value": 1000 * p90, "unit": "ms"}
        out[f"{kind}_count"] = {"value": len(values), "unit": "count"}
    return out


def run(args, workdir: str) -> dict:
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        # set-up = a fresh interpreter's import plus the workload's set-up,
        # each repetition scaled by the median of five probes just before it
        setups = []
        for k in range(SETUP_REPEATS):
            probe = statistics.median(calibrate.probe() for _ in range(5))
            import_s = fresh_import_s()
            if tracer:
                tracer.op = f"setup-{k}"
            t0 = time.perf_counter()
            workload.setup()
            setups.append((import_s, time.perf_counter() - t0, probe))
        if tracer:
            tracer.op = None
            tracer.counts.clear()

        attempted = failed = rounds = 0
        probes, ops_done, results, problems = [], [], [], []
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            ops = workload.round(rounds)
            round_trials = sum(op.trials for op in ops)
            for slot, op in enumerate(ops):
                probes.append(calibrate.probe())
                if tracer:
                    tracer.op = attempted
                t0 = time.perf_counter()
                try:
                    result = op.call()
                    bad = None
                except Exception as exc:  # noqa: BLE001 - a failed operation
                    result, bad = None, [f"{op.kind} raised {type(exc).__name__}: {exc}"]
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.op = None
                if bad is None:
                    try:
                        bad = op.check(result)
                    except Exception as exc:  # noqa: BLE001 - a malformed output
                        bad = [f"{op.kind} check raised {type(exc).__name__}: {exc}"]
                attempted += 1
                ops_done.append((slot, op.kind, elapsed))
                results.append((op, result))
                if bad:
                    failed += 1
                    problems.extend(bad[:2])
            rounds += 1
        probes.append(calibrate.probe())
        wall = time.perf_counter() - start
        figures = workload.figures(results)
    finally:
        if tracer:
            tracer.close()

    # Operation i ran between probes i and i+1. Its time is scaled by the
    # median of the probes within PROBE_WINDOW of it: the machine's speed
    # moves within seconds, and one 15 ms probe is noisy.
    scale = [
        calibrate.REFERENCE_S
        / statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 2])
        for i in range(len(ops_done))
    ]
    durations: dict[str, list[float]] = defaultdict(list)
    slots: dict[int, list[float]] = defaultdict(list)  # by position in the round
    for (slot, kind, elapsed), s in zip(ops_done, scale):
        durations[kind].append(elapsed * s)
        slots[slot].append(elapsed * s)
    # a round's trials over the sum of each operation's median time across
    # rounds, so a slow spell in one round does not count
    round_s = sum(statistics.median(v) for v in slots.values())
    setup_s = statistics.median((i + s) * calibrate.REFERENCE_S / p for i, s, p in setups)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "trials_per_s": {"value": round_trials / round_s, "unit": "trials/s"},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "end_to_end": end_to_end,
        "figures": {**latency_figures(durations), **figures},
        "measured": {  # unscaled
            "slowdown": statistics.median(probes) / calibrate.REFERENCE_S,
            "wall_s": wall,
            "setups": setups,  # (import s, set-up s, probe s)
            "round_trials": round_trials,
            "ops": [(slot, elapsed) for slot, _, elapsed in ops_done],
            "probes": probes,
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "scipy": __import__("scipy").__version__,
        },
    }
    if tracer:
        setup_scale = calibrate.REFERENCE_S / statistics.median(p for *_, p in setups)
        report["per_layer"] = tracer.layer_metrics(rounds, SETUP_REPEATS, scale, setup_scale)
        report["absent"] = tracer.absent
        report["spans"] = len(tracer.spans)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "imgdna" / "__init__.py").is_file():
        print(f"no imgdna sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import imgdna

    if not Path(imgdna.__file__).resolve().is_relative_to(SRC):
        print(f"imgdna imported from {imgdna.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    if args.trace:
        print("end-to-end of this traced run (tracing overhead included):")
    for name, m in {**report["end_to_end"], **report["figures"]}.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'machine slowdown':34s} {report['measured']['slowdown']:.4f}")
    if args.trace:
        print("per layer:")
        for name, m in report["per_layer"].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        if report["absent"]:
            print(f"  absent, not traced: {', '.join(report['absent'])}")
    print(f"  attempted {report['attempted']}  failed {report['failed']}  rounds {report['rounds']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""quadrep benchmark: one closed-loop workload per run, one client.

    python3 perfbench/run.py --workload construct|certify|numeric \
        --seed N --seconds S --trace 0|1

Set-up (imports and document preparation) runs in fresh processes, at
least SETUPS times and until SETUP_SECONDS have passed; ``setup_s`` is the
median of their wall times, each scaled by a reference process timed
around it.  Then measured passes run one after another,
each in a fresh process, until the next pass would end more than
``--seconds`` after the first set-up began; every pass runs the workload's
whole job list and checks every op.  With ``--trace 0`` the last stdout
line reports the end-to-end metrics (medians over passes); with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of the traced passes.  Earlier stdout lines give every metric by name with its unit, the
per-op medians and the machine record; the same record, with every sample,
is written to ``.perfbench/result-<workload>-seed<N>-trace<T>.json`` and the
spans of the last traced pass to ``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 5
SETUP_SECONDS = 4.0
CHILD_TIMEOUT_S = 60

# The host's speed drifts, so each set-up's wall time is divided by the mean
# wall time of the reference processes run just before and just after it,
# then multiplied by REFERENCE_S, the reference process's time on the
# reference machine.  The reference process never changes: a fresh
# interpreter that imports numpy and runs a fixed loop, like a set-up does.
REFERENCE_CODE = """
import numpy
acc = {}
for i in range(100_000):
    key = i % 97
    acc[key] = acc.get(key, 0) + (i * 7919) ** 3 % 1_000_003
"""
REFERENCE_S = 0.25

sys.path.insert(0, HERE)
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# "ref" times are op times divided by a reference loop timed around each
# op (see worker.References); "_s" times are plain seconds.
END_TO_END = [
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("group1_ref", "ref"),
    ("group2_ref", "ref"),
    ("group3_ref", "ref"),
]


class BenchError(Exception):
    pass


def timed_process(argv: list[str], what: str) -> float:
    """Run a process to completion; return its wall time.

    The wait blocks, and a timer thread keeps the time limit: subprocess's
    own timeout polls every 50 ms, which would round the time to that step.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if elapsed >= CHILD_TIMEOUT_S:
        raise BenchError(f"{what} took more than {CHILD_TIMEOUT_S} s")
    if code != 0:
        raise BenchError(f"{what} exited with code {code}")
    return elapsed


def reference_seconds() -> float:
    return timed_process([sys.executable, "-c", REFERENCE_CODE], "reference process")


def run_child(command: str, workload: str, seed: int, work: str, spans: str | None = None) -> tuple[dict, float]:
    """Run one worker process to completion; return its result and wall time."""
    out = os.path.join(work, f"{command}-result.json")
    argv = [sys.executable, WORKER, command, "--workload", workload, "--seed", str(seed), "--work", work, "--out", out]
    if spans:
        argv += ["--spans", spans]
    elapsed = timed_process(argv, f"worker {command}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result, elapsed


def group_totals(result: dict, key: str) -> dict[int, float]:
    """Per-group sums of one pass's op times; key is "seconds" or "ref"."""
    totals: dict[int, float] = {}
    for op in result["ops"]:
        totals[op["group"]] = totals.get(op["group"], 0.0) + op[key]
    return totals


def measure(args, work: str) -> dict:
    start = time.perf_counter()
    setup_times, setup_ops = [], []
    references = [reference_seconds()]
    while len(setup_times) < SETUPS or time.perf_counter() - start < SETUP_SECONDS:
        result, elapsed = run_child("setup", args.workload, args.seed, work)
        references.append(reference_seconds())
        setup_times.append(elapsed)
        setup_ops += result["ops"]

    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    plain, traced = [], []
    passes_start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(plain) > len(traced)
        result, _ = run_child("pass", args.workload, args.seed, work, spans_path if use_trace else None)
        (traced if use_trace else plain).append(result)
        now = time.perf_counter()
        runs = len(plain) + len(traced)
        if args.trace and not (plain and traced):
            continue
        if now - start + (now - passes_start) / runs > args.seconds:
            break
    return {
        "setup_times": setup_times,
        "references": references,
        "setup_ops": setup_ops,
        "plain": plain,
        "traced": traced,
    }


def summarize(args, data: dict) -> dict:
    passes = data["plain"] + data["traced"]
    ops = data["setup_ops"] + [op for p in passes for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops)
    plain = data["plain"]
    refs = data["references"]
    samples = {
        "setup_s": [2 * REFERENCE_S * t / (a + b) for t, a, b in zip(data["setup_times"], refs, refs[1:])],
        "setup_wall_s": data["setup_times"],
        "reference_process_s": refs,
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    for key, suffix in (("ref", "_ref"), ("seconds", "_s")):
        groups = [group_totals(p, key) for p in plain]
        samples["wall" + suffix] = [sum(gs.values()) for gs in groups]
        for g in (1, 2, 3):
            samples[f"group{g}{suffix}"] = [gs.get(g, 0.0) for gs in groups]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    walls = samples["wall_s"]

    per_op: dict[str, list[float]] = {}
    for p in plain:
        for op in p["ops"]:
            per_op.setdefault(f"g{op['group']} {op['name']}", []).append(op["seconds"])

    layers = {}
    if data["traced"]:
        # Each traced pass ran right after the untraced pass it is paired
        # with; the ratio of their ref times is free of the host's drift.
        slowdowns = [
            sum(group_totals(t, "ref").values()) / sum(group_totals(p, "ref").values())
            for p, t in zip(plain, data["traced"])
        ]
        for name, _unit in LAYER_METRICS:
            if name == "trace.overhead_s":
                layers[name] = (statistics.median(slowdowns) - 1) * statistics.median(walls)
            else:
                layers[name] = statistics.median([p["layers"][name] for p in data["traced"]])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": passes[0]["machine"],
        "attempted": len(ops),
        "failed": failed,
        "ops_failed_frac": failed / len(ops),
        "passes": {"plain": len(plain), "traced": len(data["traced"]), "setups": len(data["setup_times"])},
        "end_to_end": metrics,
        "per_layer": layers,
        "per_op_median_s": {name: statistics.median(v) for name, v in per_op.items()},
        "samples": {**samples, "ops": per_op},
        "errors": sorted({op["error"] for op in ops if op["error"]}),
    }


def report(summary: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    print(f"workload {summary['workload']} seed {summary['seed']} passes {summary['passes']}")
    print("machine " + json.dumps(summary["machine"], sort_keys=True))
    print(f"ops attempted {summary['attempted']} failed {summary['failed']} "
          f"ops_failed_frac {summary['ops_failed_frac']:.6g}")
    for error in summary["errors"]:
        print(f"error {error}")
    for name, seconds in summary["per_op_median_s"].items():
        print(f"op {name}: {seconds:.6f} s (median of {len(summary['samples']['ops'][name])})")
    if summary["trace"]:
        units = dict(LAYER_METRICS)
        chosen = {name: {"value": summary["per_layer"][name], "unit": units[name]} for name, _ in LAYER_METRICS}
    else:
        units = dict(END_TO_END)
        chosen = {name: {"value": summary["end_to_end"][name], "unit": units[name]} for name, _ in END_TO_END}
    for name, metric in chosen.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    if not summary["trace"]:
        for name in ("setup_wall_s", "wall_s", "group1_s", "group2_s", "group3_s"):
            print(f"{name}: {summary['end_to_end'][name]:.6g} s (plain seconds, not gated)")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": chosen,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quadrep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quadrep", "cli.py")):
        print("perfbench: no quadrep sources under src/; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        data = measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = summarize(args, data)
    result_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps(report(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

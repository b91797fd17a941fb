"""The latcop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats passes over the workload's
request list for about S seconds.  Each pass is one fresh single-threaded
worker process (``worker.py``), so latcop's caches start cold; it is a
closed loop with one client: the next request starts only when the previous
one has returned.  The seed permutes the request order and sets
PYTHONHASHSEED, so a seed fixes every input.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
medians over the passes.  With ``--trace 1`` each untraced pass is paired
with a traced one (``tracer.py``); the last line holds the per-layer
metrics, and the run checks that traced and untraced passes give the same
answers and, over several traced passes, the same counts.  The line before
the last is a record of the run: the seed, the environment, every request's
outcome and the raw per-pass figures.

Times are reported at reference speed.  On a shared host this process runs
up to twice as slow from one second to the next, and wall times of the same
pass spread by a fifth.  Untraced workers therefore time a fixed reference
loop (``worker.probe_work``) every few hundredths of a CPU second, and each
set-up, pass and request time is divided by the slowdown its own probes
measured against REF_PROBE_S.  Raw times stay in the record.

Every answer is checked against the value pinned in ``workloads.py``.  A
request is correct, wrong, unknown (a latcop size cap was hit), an error or
a timeout; wrong, error and timeout count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import KNOWN_UNBUDGETED, PREDICTIONS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
REQUEST_LIMIT_S = 60.0  # per request, enforced inside the worker
RUN_BUDGET_S = 165.0  # then every worker is killed, so a run exits within 180 s
MIN_SETUP_SAMPLES = 10
# Mean time of worker.probe_work inside the least contended passes seen on
# the host the benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11.7),
# so a time at reference speed reads about as that host's best raw time.
REF_PROBE_S = 0.0017
# A request with fewer probes than this is scaled by its pass's slowdown.
MIN_REQUEST_PROBES = 10
SRC_MODULES = (
    "__init__", "__main__", "algebra", "algfile", "catalog", "classify",
    "cli", "distlat", "duality", "errors", "piggyback",
)
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def worker_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def slowdown(msg: dict) -> float:
    """Mean probe time in a worker message against REF_PROBE_S; 1 without probes."""
    return msg["probe_s"] / msg["probes"] / REF_PROBE_S if msg["probes"] else 1.0


def run_worker(workload: str, order: list[int], trace: bool, env: dict, deadline: float,
               setup_only: bool = False) -> dict:
    """One worker process: its set-up time, request lines and summary.

    The worker is killed at ``deadline`` (a perf_counter value); requests it
    did not report are then missing from ``results`` and ``done`` is None.
    """
    cmd = [
        sys.executable, str(WORKER), str(ROOT), workload, ",".join(map(str, order)),
        "1" if trace else "0", repr(REQUEST_LIMIT_S),
    ]
    if setup_only:
        cmd.append("--setup-only")
    lines: queue.Queue = queue.Queue()
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, text=True)

    def pump() -> None:
        for line in proc.stdout:
            lines.put((time.perf_counter(), line))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    out = {"traced": trace, "ready": None, "results": [], "done": None, "killed": False}
    try:
        while True:
            try:
                stamp, line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                out["killed"] = True
                break
            if line is None:
                break
            msg = json.loads(line)
            if "ready" in msg:
                out["ready"] = msg
                out["raw_setup_s"] = stamp - spawned - msg["probe_s"]
            elif "req" in msg:
                out["results"].append(msg)
            elif "done" in msg:
                out["done"] = msg
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    if out["ready"] is None:
        raise BenchError(f"worker for {workload!r} never got ready (exit code {proc.returncode})")
    out["setup_s"] = out["raw_setup_s"] / slowdown(out["ready"])
    if out["done"] is not None:
        out["raw_wall_s"] = out["done"]["wall_s"]
        out["slowdown"] = slowdown(out["done"])
    else:  # killed: the pass counts until the kill, unscaled
        out["raw_wall_s"] = time.perf_counter() - spawned - out["raw_setup_s"]
        out["slowdown"] = 1.0
    out["wall_s"] = out["raw_wall_s"] / out["slowdown"]
    out["request_s"] = [
        r["s"] / (slowdown(r) if r["probes"] >= MIN_REQUEST_PROBES else out["slowdown"])
        for r in out["results"]
    ]
    return out


def grade(req, result: dict | None) -> str:
    """correct, wrong, unknown, error or timeout."""
    if result is None or result["outcome"] == "timeout":
        return "timeout"
    if result["outcome"] == "answered":
        return "correct" if result["answer"] == req.expected else "wrong"
    return result["outcome"]


def pass_record(p: dict, requests, grades: list[str]) -> dict:
    by_id = {r["req"]: r for r in p["results"]}
    return {
        "traced": p["traced"],
        "setup_s": p["setup_s"],
        "raw_setup_s": p["raw_setup_s"],
        "wall_s": p["wall_s"],
        "raw_wall_s": p["raw_wall_s"],
        "slowdown": p["slowdown"],
        "killed": p["killed"],
        "peak_rss_kb": p["done"]["peak_rss_kb"] if p["done"] else None,
        "requests": [
            {"id": req.rid, "outcome": g, "raw_s": by_id[req.rid]["s"] if req.rid in by_id else None}
            for req, g in zip(requests, grades)
        ],
    }


def src_lines() -> dict[str, int]:
    out = {}
    for mod in SRC_MODULES:
        path = ROOT / "src" / "latcop" / f"{mod}.py"
        out[mod.strip("_")] = len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else 0
    return out


def environment(numpy_version: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_lines": src_lines(),
    }


def repeat(unit, seconds: float, t_start: float) -> list:
    """Call ``unit`` until the next call would end after ``seconds``; at least once."""
    done = []
    while True:
        t = time.perf_counter()
        done.append(unit())
        took = time.perf_counter() - t
        elapsed = time.perf_counter() - t_start
        if elapsed + took > seconds or elapsed + took > RUN_BUDGET_S / 2:
            return done


def is_time(metric: str) -> bool:
    return metric.endswith((".s", "_s"))


def end_to_end(plain: list[dict], setups: list[float], grades: list[list[str]]) -> dict:
    flat = [g for gs in grades for g in gs]
    finished = [p for p in plain if p["done"] is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "max_request_s": statistics.median(max(p["request_s"], default=p["wall_s"]) for p in plain),
        "decided_share": sum(g in ("correct", "wrong") for g in flat) / len(flat),
        "correct_share": sum(g == "correct" for g in flat) / len(flat),
        "peak_rss_mb": statistics.median(p["done"]["peak_rss_kb"] / 1024 for p in finished) if finished else 0.0,
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    layer_runs = [t["done"]["layers"] for t in traced if t["done"] is not None]
    if not layer_runs:
        raise BenchError("no traced pass finished")
    # counts repeat exactly (checked in main); times are medians over passes
    metrics = {
        key: statistics.median(lr[key] for lr in layer_runs) if is_time(key) else value
        for key, value in layer_runs[0].items()
    }
    finished = [p for p in plain if p["done"] is not None]
    raw_wall = statistics.median(p["raw_wall_s"] for p in plain)
    metrics["run.cpu_s"] = statistics.median(p["done"]["cpu_s"] for p in finished) if finished else 0.0
    metrics["run.raw_wall_s"] = raw_wall
    metrics["run.host_slowdown"] = statistics.median(p["slowdown"] for p in plain)
    # traced workers run without probes, so both sides are raw
    metrics["run.tracing_overhead"] = statistics.median(t["raw_wall_s"] for t in traced) / raw_wall
    lines = src_lines()
    for mod, n in lines.items():
        metrics[f"{mod}.src_lines"] = n
    metrics["src.total_lines"] = sum(lines.values())
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not (ROOT / "src" / "latcop" / "__init__.py").is_file():
        print(f"no latcop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    order = list(range(len(WORKLOADS[args.workload])))
    random.Random(args.seed).shuffle(order)
    requests = [WORKLOADS[args.workload][i] for i in order]
    env = worker_env(args.seed)
    deadline = t_start + RUN_BUDGET_S

    def one(trace: bool, setup_only: bool = False) -> dict:
        return run_worker(args.workload, order, trace, env, deadline, setup_only)

    if args.trace:
        pairs = repeat(lambda: (one(False), one(True)), args.seconds, t_start)
        plain, traced = [u for u, _ in pairs], [t for _, t in pairs]
    else:
        plain, traced = repeat(lambda: one(False), args.seconds, t_start), []
    setups = [p["setup_s"] for p in plain]
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES and time.perf_counter() < deadline:
        setups.append(one(False, setup_only=True)["setup_s"])

    passes = plain + traced
    grades = []
    for p in passes:
        by_id = {r["req"]: r for r in p["results"]}
        grades.append([grade(req, by_id.get(req.rid)) for req in requests])
    attempted = sum(len(gs) for gs in grades)
    failed = sum(g in ("wrong", "error", "timeout") for gs in grades for g in gs)
    checks = {"no_wrong_error_or_timeout": failed == 0}
    if traced:
        def answers(p):
            return {r["req"]: (r["outcome"], r["answer"]) for r in p["results"]}

        counts = [
            {k: v for k, v in t["done"]["layers"].items() if not is_time(k)}
            for t in traced if t["done"] is not None
        ]
        checks["traced_answers_equal_untraced"] = all(answers(p) == answers(plain[0]) for p in passes)
        checks["layer_counts_repeat"] = len(counts) == len(traced) and all(c == counts[0] for c in counts)
        metrics, wanted = per_layer(plain, traced), spec["per_layer"]
    else:
        metrics, wanted = end_to_end(plain, setups, grades), spec["end_to_end"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(plain[0]["ready"]["numpy"]),
        "order": [r.rid for r in requests],
        "checks": checks,
        "setup_samples_s": setups,
        "passes": [pass_record(p, requests, gs) for p, gs in zip(passes, grades)],
        "predictions": PREDICTIONS[args.workload],
        "known_unbudgeted": KNOWN_UNBUDGETED,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)

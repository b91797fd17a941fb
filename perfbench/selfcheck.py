"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; takes about a minute.  Exits 1 if a check
fails.  It checks that

- a deliberately wrong expected value lowers ``correct_share`` and counts
  as failed;
- two traced runs with the same seed give identical per-layer counts, and a
  traced run's answers equal its untraced run's;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOAD = "construct"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", WORKLOAD, *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def counts_of(stdout: str) -> dict:
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "lines")}


def check_wrong_expected() -> bool:
    real = run.WORKLOADS[WORKLOAD]
    bad = dataclasses.replace(real[0], expected={"size": real[0].expected["size"] + 1})
    run.WORKLOADS[WORKLOAD] = (bad,) + real[1:]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", WORKLOAD, "--seed", "1", "--seconds", "1"])
    finally:
        run.WORKLOADS[WORKLOAD] = real
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    share = res["metrics"]["correct_share"]["value"]
    print(f"wrong expected value: correct={res['correct']} failed={res['failed']} correct_share={share}")
    return not res["correct"] and res["failed"] >= 1 and share < 1.0


def check_counts_repeat() -> bool:
    first, second = bench("--seed", "7", "--seconds", "1", "--trace", "1"), bench(
        "--seed", "7", "--seconds", "1", "--trace", "1"
    )
    same = counts_of(first.stdout) == counts_of(second.stdout)
    checks = [json.loads(p.stdout.strip().splitlines()[-2])["record"]["checks"] for p in (first, second)]
    print(f"same seed, traced twice: counts identical={same}; in-run checks {checks}")
    return same and all(all(c.values()) for c in checks)


def check_bare_directory() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        res = bench("--seed", "1", "--seconds", "1", cwd=bare)
    printed = any(line.startswith("{") for line in res.stdout.splitlines())
    print(f"bare directory: exit code {res.returncode}, result printed={printed}")
    return res.returncode != 0 and not printed


def main() -> int:
    results = [check_wrong_expected(), check_counts_repeat(), check_bare_directory()]
    print("all self-checks pass" if all(results) else "SELF-CHECK FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

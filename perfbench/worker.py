"""One benchmark pass in a fresh process: build the inputs, answer the requests.

Started by ``run.py``; the interpreter is new, so latcop's ``lru_cache``s
start cold, as they do for a command-line user.  The worker writes one JSON
line when its inputs are ready, one per finished request, and one when it is
done, so a pass that is killed from outside still reports what it finished.

    python3 perfbench/worker.py ROOT WORKLOAD ORDER TRACE LIMIT [--setup-only]

ORDER is a comma-separated list of request indices, TRACE is 0 or 1, and
LIMIT is the per-request time limit in seconds.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from math import prod
from pathlib import Path


class RequestTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no library handler
    that catches Exception can swallow it."""


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _on_alarm(signum, frame):
    raise RequestTimeout()


# A 2 MB table that probe_work reads at scattered positions, so a probe,
# like latcop's table lookups, slows down when other processes evict caches.
_PROBE_MASK = (1 << 18) - 1
_PROBE_TABLE = [(i * 2654435761) % 251 for i in range(_PROBE_MASK + 1)]


def probe_work() -> dict:
    """The fixed reference loop a speed probe times: about 1 ms of
    interpreter work, never changed by latcop."""
    d: dict = {}
    for i in range(4000):
        k = _PROBE_TABLE[(i * 40503) & _PROBE_MASK], i & 7
        d[k] = d.get(k, 0) + 1
    return d


class SpeedProbe:
    """Times ``probe_work`` every ``every`` seconds of CPU time.

    On a shared host the speed of this process changes from one second to
    the next.  The probes sample it uniformly over the set-up or a pass, and
    their time is kept out of every time reported.
    """

    def __init__(self, every: float) -> None:
        self.every = every
        self.count = 0
        self.total = 0.0

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work()
        self.total += time.perf_counter() - start
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._fire)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.every, self.every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def _build(latcop, req):
    """Make the inputs of one request; returns a call giving (outcome, answer)."""
    catalog = latcop.catalog

    def entry(cid: str):
        if cid.startswith("F1:"):
            base = catalog.make_id(cid[3:])
            return latcop.algebra.free_algebra([base.algebra], 1), base.spec
        e = catalog.make_id(cid)
        return e.algebra, e.spec

    if req.kind == "classify":
        alg, spec = entry(req.family[0])

        def call():
            report = latcop.classify.flowchart_classify([alg], spec)
            if report.unknown is not None:
                return "unknown", {"unknown": report.unknown}
            return "answered", {"E": report.verdict_E, "S": report.verdict_S}

        return call
    if req.kind == "coproduct":
        gens = [entry(g) for g in req.generators]
        family = [entry(b)[0] for b in req.family]
        specs = {s for _, s in gens}
        if len(specs) != 1:
            raise ValueError(f"{req.rid}: generators do not share one reduct spec")
        spec = specs.pop()

        def call():
            res = latcop.duality.coproduct([g for g, _ in gens], spec, None, family)
            return "answered", {"size": res.algebra.size}

        return call
    if req.kind == "free":
        gens = [entry(g)[0] for g in req.generators]
        # the ambient product M^(M^n): the cap that lets the request run
        cap = prod(m.size ** (m.size**req.rank) for m in gens)

        def call():
            f = latcop.algebra.free_algebra(gens, req.rank, cap=cap)
            return "answered", {"size": f.size}

        return call
    raise ValueError(f"unknown request kind {req.kind!r}")


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve()
    workload, order, trace, limit = argv[1], argv[2], argv[3] == "1", float(argv[4])
    setup_only = "--setup-only" in argv[5:]
    # traced workers run without probes, so no probe lands inside a span
    setup_probe, probe = SpeedProbe(every=0.02), SpeedProbe(every=0.05)
    if not trace:
        setup_probe.start()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "perfbench"))
    import latcop
    import numpy

    if not Path(latcop.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"latcop was imported from {latcop.__file__}, not from {root / 'src'}")
    from workloads import WORKLOADS

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    requests = [WORKLOADS[workload][int(i)] for i in order.split(",")]
    calls = [_build(latcop, req) for req in requests]
    setup_probe.stop()
    _emit({
        "ready": True, "numpy": numpy.__version__,
        "probes": setup_probe.count, "probe_s": setup_probe.total,
    })
    if setup_only:
        return 0

    cap_exceeded = latcop.errors.CapExceeded
    signal.signal(signal.SIGALRM, _on_alarm)
    if not trace:
        probe.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for req, call in zip(requests, calls):
        start = time.perf_counter()
        probed, nprobed = probe.total, probe.count
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                outcome, answer = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestTimeout:
            outcome, answer = "timeout", None
        except cap_exceeded as exc:
            outcome, answer = "unknown", {"unknown": str(exc)}
        except Exception as exc:  # reported as an error outcome, never fatal to the pass
            outcome, answer = "error", {"error": f"{type(exc).__name__}: {exc}"}
        took = time.perf_counter() - start - (probe.total - probed)
        _emit({
            "req": req.rid, "outcome": outcome, "answer": answer, "s": took,
            "probes": probe.count - nprobed, "probe_s": probe.total - probed,
        })
    probe.stop()
    wall = time.perf_counter() - t0 - probe.total
    cpu = time.process_time() - cpu0 - probe.total
    _emit(
        {
            "done": True,
            "wall_s": wall,
            "cpu_s": cpu,
            "probes": probe.count,
            "probe_s": probe.total,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layers": tracer.summary() if tracer is not None else None,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark for mecforge: one workload and one seed, in one process.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  mecforge is imported from that
checkout's src/ and from nowhere else.  The loop is closed and runs on
one thread: each op starts when the previous one has finished.  Whole
rounds run until the run ends nearest to --seconds of op time (see
workloads.py for what a round holds).  Every op's output is checked
outside the timed region; a failed check or an exception counts the op as
failed and the run goes on.

Times are scaled to a reference machine speed.  The speed of a shared
machine drifts by 2x and more over seconds as other tenants come and go,
so about every PROBE_EVERY_S of op time the run times a fixed piece of
the benchmark's own pure-Python work (reference.speed_probe), and each op
time is multiplied by PROBE_REF_S over the mean of the probes taken just
before and just after it.  The raw wall-clock figures are printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every round
twice, first as is and then with each mecforge layer wrapped from
tracing.py, and reports the per-layer metrics of the wrapped pass and
the ratio of the two passes' times.  Human-readable lines come first; the
last line of stdout is one JSON object with the result.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "mecforge"
MODULES = ("field", "mec", "ordering", "generator", "analysis", "gf256", "cli", "data")
SETUP_SAMPLES = 11
TAIL_SAMPLES = 10
MAX_REPORTED_ERRORS = 5
# The probe's time on the 2-vCPU Xeon the benchmark was made on, at its
# quickest; scaled times read as times on that machine when unloaded.
PROBE_REF_S = 0.006
PROBE_EVERY_S = 0.1


def import_mecforge() -> SimpleNamespace:
    """Import mecforge afresh from SRC; exit if it resolves anywhere else."""
    for name in [n for n in sys.modules if n == "mecforge" or n.startswith("mecforge.")]:
        del sys.modules[name]
    package = importlib.import_module("mecforge")
    where = Path(package.__file__).resolve()
    if where.parent != PACKAGE.resolve():
        sys.exit(f"mecforge resolved to {where}, not to {PACKAGE}; refusing to run")
    mf = SimpleNamespace(**{n: importlib.import_module(f"mecforge.{n}") for n in MODULES})
    mf.where = where
    mf.all_modules = [m for n, m in sys.modules.items()
                      if n == "mecforge" or n.startswith("mecforge.")]
    return mf


def set_up(workload_cls, seed: int):
    """Import, build round 0's inputs and warm up; returns (seconds, mf, workload, ops)."""
    start = time.perf_counter()
    mf = import_mecforge()
    workload = workload_cls(mf, seed)
    ops = workload.round(0)
    for op in workload.warm_up():
        op.check(op.run())
    return time.perf_counter() - start, mf, workload, ops


def freeze_heap() -> None:
    """Put every object alive now, the round's inputs among them, out of the
    cyclic collector's reach, so that the collections the program triggers
    do not scan the benchmark's own objects."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def probe() -> float:
    start = time.perf_counter()
    reference.speed_probe()
    return time.perf_counter() - start


class ScaledClock:
    """Scales wall times to the reference speed, by the probes around them."""

    def __init__(self):
        self.probes = [probe()]
        self.pending = []
        self.since = 0.0

    def add(self, elapsed: float, record) -> None:
        """Hand elapsed * scale to `record` once the probe after it is taken."""
        self.pending.append((elapsed, record))
        self.since += elapsed
        if self.since >= PROBE_EVERY_S:
            self.settle()

    def settle(self) -> None:
        self.probes.append(probe())
        scale = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        for elapsed, record in self.pending:
            record(elapsed * scale)
        self.pending = []
        self.since = 0.0


class Tally:
    """Op times, items, failures and the output digest of one kind of pass."""

    def __init__(self, clock: ScaledClock):
        self.clock = clock
        self.times = []
        self.wall = []
        self.busy = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.anchors = {}
        self.errors = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def run_round(self, ops, call, check: bool, digest: bool, after_each=None) -> None:
        """Run every op once, each on its own freshly built inputs.  With
        `check`, each output is checked and, with `digest` too, added to the
        digest; without, only an exception fails an op."""
        for op in ops:
            problems = []
            start = time.perf_counter()
            try:
                out = call(op.run)
            except Exception:  # noqa: BLE001 - a failing op is counted, the run goes on
                elapsed = time.perf_counter() - start
                problems = [traceback.format_exc(limit=3).strip()]
            else:
                elapsed = time.perf_counter() - start
                if check:
                    try:
                        problems = op.check(out)
                        if digest:
                            self.digest.update(op.canonical(out))
                            self.digest_ops += 1
                    except Exception:  # noqa: BLE001
                        problems = [traceback.format_exc(limit=3).strip()]
            self.clock.add(elapsed, self.times.append)
            self.wall.append(elapsed)
            self.busy += elapsed
            self.attempted += 1
            if problems:
                self.failed += 1
                self.errors += [f"{op.label}: {p}" for p in problems]
            if op.anchor:
                self.anchors[op.anchor] = self.anchors.get(op.anchor, True) and not any(
                    p.startswith("anchor:") or "Traceback" in p for p in problems)
            if after_each:
                after_each()
        self.clock.settle()
        self.items += sum(op.items for op in ops)


def op_metrics(times: list[float], items: int, tail_share: float) -> tuple[dict, str]:
    """The op-time metrics; the tail has at least TAIL_SAMPLES ops and at
    least `tail_share` of the ops beyond it."""
    times = sorted(times)
    n = len(times)
    tail_index = max(n - 1 - max(TAIL_SAMPLES, int(n * tail_share)), 0)
    note = (f"op_tail_ms is the p{100.0 * (tail_index + 1) / n:.2f} op time: "
            f"{n - 1 - tail_index} of {n} ops took longer")
    return {
        "items_per_s": {"value": items / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": times[tail_index] * 1e3, "unit": "ms"},
    }, note


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": git_commit(), "src_sha256": source_digest()}


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "none (not a git checkout)"
    return "unknown"


def source_digest() -> str:
    """sha256 over src/mecforge's files, which names the code under test
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no mecforge package at {PACKAGE}; run from a mecforge checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload_cls = workloads.WORKLOADS[args.workload]

    clock = ScaledClock()
    setup_times, setup_wall = [], []

    def timed_setup():
        clock.settle()
        result = set_up(workload_cls, args.seed)
        clock.add(result[0], setup_times.append)
        clock.settle()
        setup_wall.append(result[0])
        return result

    _, mf, workload, ops = timed_setup()
    freeze_heap()
    setup_step = args.seconds / (SETUP_SAMPLES - 1)

    facts = machine_facts()
    print(f"mecforge resolved at {mf.where}")
    print("machine " + " ".join(f"{k}={v!r}" for k, v in facts.items()))
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: closed loop, 1 client, 1 thread")

    plain, traced = Tally(clock), Tally(clock)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    def direct(fn):
        return fn()

    # Set-up is timed again, off the clock, at even steps through the run, so
    # that its median samples the machine over the same span as the ops do.
    def sample_setup():
        if plain.busy >= setup_step * len(setup_times):
            timed_setup()

    rounds = 0
    while True:
        plain.run_round(ops, direct, check=True, digest=rounds == 0,
                        after_each=None if tracer else sample_setup)
        if tracer:
            # The plain pass has checked these ops' outputs; the traced pass
            # runs only op.run under the tracer, so that no check is traced.
            tracer.install(mf)
            try:
                traced.run_round(ops, tracer.timed("bench.op", direct), check=False, digest=False)
            finally:
                tracer.uninstall()
        rounds += 1
        spent = plain.busy + traced.busy
        # Whole rounds only; stop where the run ends nearest to --seconds.
        if spent + spent / rounds / 2 >= args.seconds:
            break
        ops = workload.round(rounds)
        freeze_heap()

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    anchors = plain.anchors
    for err in (plain.errors + traced.errors)[:MAX_REPORTED_ERRORS]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"rounds {rounds} of {len(plain.times)} ops in all; "
          f"{attempted} executions, {failed} failed; fail_ratio {failed / attempted} ratio")
    print("anchors " + " ".join(f"{a}={'pass' if ok else 'FAIL'}" for a, ok in sorted(anchors.items())))
    print(f"digest sha256={plain.digest.hexdigest()} over the {plain.digest_ops} ops of round 0")
    probe_ms = statistics.median(clock.probes) * 1e3
    print(f"speed probe median {probe_ms:.3f} ms over {len(clock.probes)} probes "
          f"(reference {PROBE_REF_S * 1e3:g} ms)")

    if tracer:
        overhead = sum(traced.times) / sum(plain.times)
        scale = PROBE_REF_S * 1e3 / probe_ms
        metrics = tracer.per_layer_metrics(len(traced.times), overhead, scale)
        shares = {layer: tracer.layer_self_s(layer) / traced.busy for layer in
                  ("field", "mec", "ordering", "generator", "analysis", "gf256", "cli", "bench")}
        print("layer shares of traced op time: " +
              ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        metrics, note = op_metrics(plain.times, plain.items, workload.tail_share)
        wall, _ = op_metrics(plain.wall, plain.items, workload.tail_share)
        print(note)
        print("unscaled wall clock: " + ", ".join(
            f"{k} {v['value']:.6g} {v['unit']}" for k, v in wall.items()) +
            f", setup_s {statistics.median(setup_wall):.6g} s")
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    correct = failed == 0 and bool(anchors) and all(anchors.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark gaugetherm on one workload and print one JSON line of results.

    python3 bench/run.py --workload clausius_corpus --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. Each invocation is one fresh process
that runs one workload in whole rounds (at least two, then more while the
next would end within --seconds), checks every round's outputs, and prints
as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end (wall_s, cpu_s, setup_s,
peak_rss_mb). The three times are scaled to a reference host speed, which
hostspeed.py samples during the timed work itself, so that the shared host's
drift does not reach them; the raw times and speeds go to standard error.
With --trace 1 the metrics are the per-layer figures of layers.py, in raw
seconds, from rounds that alternate untraced and traced, then one memory
round.
Work files go to .bench_work/ in the checkout.
"""
import os
import time

_T0 = time.perf_counter()


def _since_process_start() -> float:
    """Seconds from process start (as the kernel records it) to now."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


_STARTUP = _since_process_start()

import atexit  # noqa: E402

import hostspeed  # noqa: E402  (standard library only)

# sampled during imports and set-up, then during the untraced rounds' timed
# segments; disarmed on every way out, or its timer's signal would end the
# process once the interpreter has dropped the handler
_PROBE = hostspeed.SpeedProbe()
_PROBE.start()
atexit.register(_PROBE.stop)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS, Checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5


class Pass:
    """Wall and CPU time of the timed segments of one round.

    With a probe, the host's speed is sampled during the timed segments and
    the probe's own time is taken out of them; finish() then sets `speed`
    to the round's mean host speed.
    """

    def __init__(self, tracer=None, probe=None):
        self.wall = 0.0
        self.cpu = 0.0
        self.tracer = tracer
        self.probe = probe
        self.first_sample = len(probe.speeds) if probe else 0
        self.speed = 1.0

    @contextlib.contextmanager
    def timed(self):
        span = self.tracer.segment() if self.tracer else contextlib.nullcontext()
        probe = self.probe
        spent_w, spent_c = (probe.wall, probe.cpu) if probe else (0.0, 0.0)
        w0, c0 = time.perf_counter(), time.process_time()
        if probe:
            probe.start()
        with span:
            try:
                yield
            finally:
                if probe:
                    probe.stop()
                    spent_w, spent_c = probe.wall - spent_w, probe.cpu - spent_c
                self.wall += time.perf_counter() - w0 - spent_w
                self.cpu += time.process_time() - c0 - spent_c

    def finish(self) -> None:
        if self.probe:
            self.speed = self.probe.speed(self.first_sample)


def import_program():
    """Import gaugetherm from the checkout's src/; exit 2 if it is not there."""
    if not (SRC / "gaugetherm" / "__init__.py").is_file():
        print(f"bench: no gaugetherm sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gaugetherm
    import gaugetherm.cli  # noqa: F401  (the experiments workload calls cli.main)

    if Path(gaugetherm.__file__).resolve().parent != SRC / "gaugetherm":
        print(f"bench: gaugetherm imported from {gaugetherm.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return gaugetherm


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def run_rounds(seconds, one_round, at_least):
    """Whole rounds, at least `at_least`, then until the next would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_round())
        elapsed = time.perf_counter() - start
        if len(passes) >= at_least and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    gt = import_program()
    import_s = _STARTUP + time.perf_counter() - _T0
    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    import_s -= _PROBE.wall
    setups = []
    for _ in range(SETUPS):
        t, spent = time.perf_counter(), _PROBE.wall
        workload = WORKLOADS[args.workload](gt, args.seed, workdir)
        setups.append(time.perf_counter() - t - (_PROBE.wall - spent))
    _PROBE.stop()
    setup_speed = _PROBE.speed()
    print(f"bench: set-up {import_s:.3f} s imports + {statistics.median(setups):.3f} s inputs,"
          f" host speed {setup_speed:.3f}", file=sys.stderr)

    counts = {"attempted": 0, "failed": 0, "unexpected": 0}
    probe = None if args.trace else _PROBE

    def one_round(tracer=None):
        p = Pass(tracer, probe)
        checks = Checks()
        t = time.perf_counter()
        workload.round(p.timed, checks)
        p.finish()
        speed = f", host speed {p.speed:.3f}" if probe else ""
        print(f"bench: round of {p.wall:.3f} s timed{speed}, {time.perf_counter() - t:.3f} s in all",
              file=sys.stderr)
        for name, ok, detail in checks.results:
            counts["attempted"] += 1
            if not ok:
                counts["failed"] += 1
                if name not in KNOWN_FAULTS:
                    counts["unexpected"] += 1
                    print(f"bench: check {name} failed: {detail}", file=sys.stderr)
        return p

    if args.trace:
        metrics = trace_rounds(gt, workload, args, one_round)
    else:
        passes = run_rounds(args.seconds, one_round, 2)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(p.wall * p.speed for p in passes), "s"),
            "cpu_s": (statistics.median(p.cpu * p.speed for p in passes), "s"),
            "setup_s": ((import_s + statistics.median(setups)) * setup_speed, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    result = {
        "correct": counts["unexpected"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def trace_rounds(gt, workload, args, one_round) -> dict:
    """Per-layer metrics: untraced and traced rounds in turn, then a memory round."""
    untraced, traced, tracers = [], [], []

    def pair():
        untraced.append(one_round())
        tracer = layers.SpanTracer(gt)
        tracer.install()
        try:
            traced.append(one_round(tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        return traced[-1]

    run_rounds(args.seconds, pair, 1)
    per_round = [t.layer_metrics(workload.fine_nodes) for t in tracers]
    # means, not medians, so the self times still add up to trace.wall_s
    metrics = {k: statistics.fmean(r[k] for r in per_round) for k in per_round[0]}
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in untraced))
    probe = layers.MemoryProbe(gt)
    probe.install()
    try:
        one_round()
    finally:
        probe.uninstall()
    metrics.update(probe.peaks)
    spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps([t.spans for t in tracers]))
    return {name: (metrics[name], unit) for name, unit in layers.metric_names()}


if __name__ == "__main__":
    sys.exit(main())

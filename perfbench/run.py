"""reeskit benchmark runner.

    python3 perfbench/run.py --workload versal|invariants|factor \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; reeskit is imported from ``src/``.
One process, one thread.  A run imports reeskit, generates the workload's
ops from the seed, makes one warm-up pass (all of this is ``setup_s``) and
checks every output of that pass.  With ``--trace 0`` it then makes
passes until ``--seconds`` of passes have been measured and reports the
end-to-end metrics.  With ``--trace 1`` it makes one untraced and two
traced passes and reports the per-layer metrics of ``perfbench/tracer.py``.
Every measured pass must reproduce the warm-up outputs exactly.  Every
time is scaled to the reference host's speed by ``perfbench/hostspeed.py``;
the wall-clock pass time is printed beside it.

The report lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
metric names are read from ``BENCHMARK.json``.  Exit code 2, with no JSON
line, means the benchmark could not run (for example, no ``src/reeskit``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent


class SetupError(Exception):
    pass


def _import_reeskit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import reeskit
    except ImportError as exc:
        raise SetupError(f"cannot import reeskit from {src}: {exc}") from exc
    if src.resolve() not in Path(reeskit.__file__).resolve().parents:
        raise SetupError(f"reeskit was imported from {reeskit.__file__}, "
                         f"not from {src}")


def _metric_names():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1])."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _traced(fn, tracer):
    def call():
        tracer.active = True
        try:
            return fn()
        finally:
            tracer.active = False
    return call


def run_pass(ops, meter, tracer=None):
    """Run every op once; returns (scaled durations, wall seconds of the
    pass, outcomes).  Only the op itself is timed and traced; an outcome is
    (value, exception).  Each pass starts from a collected heap, so garbage
    left by the previous pass is not collected inside this one's timings."""
    gc.collect()
    durations, outcomes, wall = [], [], 0.0
    for op in ops:
        fn = op.run if tracer is None else _traced(op.run, tracer)
        scaled, raw, value, exc = meter.call(fn)
        durations.append(scaled)
        wall += raw
        outcomes.append((value, exc))
    return durations, wall, outcomes


def judge(op, value, exc):
    """(status, components, unverified, note).

    ok: the check passed or the error is a documented outcome.
    failed: a known defect (listed error, or a result the program flagged
        unverified that fails its check).
    wrong: an unflagged result that fails its check, or any other error.
    """
    if exc is not None:
        if isinstance(exc, op.ok_errors):
            return "ok", 0, 0, type(exc).__name__
        msg = f"{type(exc).__name__}: {exc}"
        if str(exc).startswith(op.known_errors):
            return "failed", 0, 0, msg
        return "wrong", 0, 0, msg
    try:
        v = op.check(value)
    except Exception as e:  # a check that cannot run rejects the output
        return "wrong", 0, 0, f"check raised {type(e).__name__}: {e}"
    if v.ok:
        return "ok", v.components, v.unverified, ""
    return ("failed" if v.unverified else "wrong"), v.components, \
        v.unverified, v.note


class Ledger:
    """Outcome bookkeeping: the warm-up pass is checked, and every later
    pass must render exactly the same outputs."""

    def __init__(self, ops, warm, render):
        self.ops, self.render = ops, render
        self.verdicts = [judge(op, v, e) for op, (v, e) in zip(ops, warm)]
        self.reference = self._rendered(warm)
        self.attempted = self.failed = self.mismatches = 0
        for op, (status, _, _, note) in zip(ops, self.verdicts):
            if status != "ok":
                print(f"# {status}: {op.family} {op.label}: {note}")

    def _rendered(self, outcomes):
        return [self.render(v) if e is None else f"!{type(e).__name__}: {e}"
                for v, e in outcomes]

    def account(self, outcomes):
        for i, text in enumerate(self._rendered(outcomes)):
            changed = text != self.reference[i]
            if changed:
                self.mismatches += 1
                print(f"# nondeterministic: {self.ops[i].family} "
                      f"{self.ops[i].label}")
            self.failed += changed or self.verdicts[i][0] != "ok"
        self.attempted += len(self.ops)

    @property
    def correct(self):
        return self.mismatches == 0 and all(
            s != "wrong" for s, *_ in self.verdicts)


def measure_untraced(ops, seconds, ledger, meter, raw_walls):
    """Passes until ``seconds`` of them have run (at least one)."""
    walls, op_times = [], []
    start = hostspeed.CLOCK()
    while not walls or hostspeed.CLOCK() - start < seconds:
        durations, raw, outcomes = run_pass(ops, meter)
        walls.append(sum(durations))
        raw_walls.append(raw)
        op_times.extend(durations)
        ledger.account(outcomes)
        del outcomes    # so that peak RSS does not grow with the pass count
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "op_p50_ms": (percentile(op_times, 0.5) * 1e3, "ms", len(op_times)),
        "op_p90_ms": (percentile(op_times, 0.9) * 1e3, "ms", len(op_times)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def measure_traced(ops, ledger, meter, raw_walls, tracing):
    """One untraced pass, then two traced passes whose exact counts must
    agree; returns (report, counts agree)."""
    durations, raw, outcomes = run_pass(ops, meter)
    untraced = sum(durations)
    raw_walls.append(raw)
    ledger.account(outcomes)
    tr = tracing.Tracer()
    tr.install()
    traced, counts = [], []
    try:
        for _ in range(2):
            tr.reset()
            durations, raw, outcomes = run_pass(ops, meter, tr)
            traced.append(sum(durations))
            raw_walls.append(raw)
            counts.append(tr.metrics())
            ledger.account(outcomes)
    finally:
        tr.uninstall()
    exact = [{k: v for k, v in c.items() if not k.endswith(".self_s")}
             for c in counts]
    if exact[0] != exact[1]:
        diff = sorted(k for k in exact[0] if exact[0][k] != exact[1].get(k))
        print(f"# traced counts differ between passes: {diff}")
    layer = layer_metrics(counts, traced, untraced)
    # self times are wall clock, so compare them with the unscaled passes
    share = layer["gb.core.self_s"] / statistics.median(raw_walls[-2:])
    print(f"# isolation: gb.core self time is {share:.3f} of traced time; "
          f"gb.core.calls = {layer['gb.core.calls']}")
    return {k: (v, unit_of(k), len(traced)) for k, v in layer.items()}, \
        exact[0] == exact[1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the timer only runs untraced: its probes would land in traced spans
    meter = hostspeed.HostMeter(hostspeed.INTERVAL_S if args.trace == 0
                                else None)
    with meter:
        return _run(args, meter)


def _load(workload):
    e2e_names, layer_names = _metric_names()
    _import_reeskit()
    import tracer as tracing
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; choose "
                         f"from {sorted(workloads.WORKLOADS)}")
    return e2e_names, layer_names, tracing, workloads


def _run(args, meter):
    import_s, _, loaded, exc = meter.call(lambda: _load(args.workload))
    try:
        if exc is not None:
            raise exc
        e2e_names, layer_names, tracing, workloads = loaded
        # generation is repeated to time it as a median and to check that
        # the seed alone fixes the inputs
        gen_times, labels = [], []
        for _ in range(3):
            gen_s, _, ops, exc = meter.call(
                lambda: workloads.build(args.workload, args.seed, ROOT))
            if exc is not None:
                raise exc
            gen_times.append(gen_s)
            labels.append([op.label for op in ops])
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    warm_durations, warm_raw, warm = run_pass(ops, meter)
    setup_s = import_s + statistics.median(gen_times) + sum(warm_durations)
    ledger = Ledger(ops, warm, workloads.render)
    del warm
    correct = labels[0] == labels[1] == labels[2]

    raw_walls = []
    if args.trace == 0:
        report = measure_untraced(ops, args.seconds, ledger, meter, raw_walls)
        report["setup_s"] = (setup_s, "s", 1)
        wanted = e2e_names
    else:
        report, counts_agree = measure_traced(ops, ledger, meter, raw_walls,
                                              tracing)
        correct = correct and counts_agree
        wanted = layer_names
    correct = correct and ledger.correct

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops per pass")
    for name, (value, unit, n) in sorted(report.items()):
        print(f"metric {name} = {value:.6g} {unit} (samples {n})")
    print(f"diagnostic fail_frac = {ledger.failed / ledger.attempted:.6g} "
          f"ratio ({ledger.failed} of {ledger.attempted} ops)")
    comps = sum(c for _, c, _, _ in ledger.verdicts)
    unver = sum(u for _, _, u, _ in ledger.verdicts)
    print(f"diagnostic unverified_frac = "
          f"{(unver / comps) if comps else 0:.6g} ratio "
          f"({unver} of {comps} components per pass)")
    print(f"diagnostic raw_wall_s = {statistics.median(raw_walls):.4g} s "
          f"(median of {len(raw_walls)} passes, wall clock, unscaled)")
    print(f"diagnostic host_probe_ms = {meter.median_probe_ms():.4g} ms "
          f"(median of {len(meter.secs)}; "
          f"{hostspeed.REFERENCE_S * 1e3:.4g} ms at reference speed)")
    by_family = {}
    for op, d in zip(ops, warm_durations):
        by_family[op.family] = by_family.get(op.family, 0.0) + d
    for fam, s in sorted(by_family.items()):
        print(f"diagnostic warmup_family_s[{fam}] = {s:.4g} s")

    missing = [n for n in wanted if n not in report]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": bool(correct),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": report[n][0], "unit": report[n][1]}
                    for n in wanted},
    }))
    return 0


RATIOS = {
    # name: (numerator counter, denominator counter)
    "coeff.line_cert.hit_ratio": ("coeff.line_cert.hits",
                                  "coeff.line_cert.calls"),
    "coeff.bound_error_frac": ("coeff.factor_multivariate.bound_errors",
                               "coeff.factor_multivariate.calls"),
    "decompose.minimal_primes.certified_ratio": (
        "decompose.minimal_primes.certified",
        "decompose.minimal_primes.components"),
    "intersection.distinguished.certified_ratio": (
        "intersection.distinguished.certified",
        "intersection.distinguished.components"),
    "intersection.intersect_in_p.certified_ratio": (
        "intersection.intersect_in_p.certified",
        "intersection.intersect_in_p.components"),
    "rees.minimal_reduction.tries_per_call": ("rees.minimal_reduction.tries",
                                              "rees.minimal_reduction.calls"),
}


def layer_metrics(counts, traced, untraced):
    """Counts from the first traced pass, self times as the median of the
    traced passes, ratios from counts (0 when nothing was attempted)."""
    out = {}
    for k, v in counts[0].items():
        if k.endswith(".self_s"):
            out[k] = statistics.median(c[k] for c in counts)
        else:
            out[k] = v
    for name, (num, den) in RATIOS.items():
        d = out.get(den, 0)
        out[name] = out.get(num, 0) / d if d else 0.0
    out["trace.overhead_frac"] = statistics.median(traced) / untraced - 1
    return out


def unit_of(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("tries_per_call"):
        return "count/call"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

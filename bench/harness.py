"""Timed loop, traced replay, output checks and golden data of the benchmark.

Imported by ``run.py`` after it has put this checkout's ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from cadlagconvex import cli
from hostclock import REF_S, HostClock
from layertrace import (LAYER_METRICS, SETUP_METRICS, Tracer, install_layers,
                        read_metrics)
from workloads import (DEFAULT_SEED, GOLDEN_DIR, WORKLOADS, digest, sha256_file,
                       strip_timestamp)

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
WORK = os.path.join(BENCH, "_work")
SETUP_REPEATS = 3
IMPORT_PROBES = 5
RUN_CAP_S = 150  # stop mid-pass rather than overrun the per-run time limit

IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import cadlagconvex.cli; "
                "t = time.perf_counter() - t; import hostclock; "
                "print(t, sorted(hostclock.calibrate() for _ in range(3))[1])")


def time_import():
    """Package import time in a fresh interpreter, as measured and scaled.

    Each fresh interpreter calibrates itself right after the import, as it
    may run on another core than this process.  Import time follows the
    calibration less closely than computation does, so the medians of
    ``IMPORT_PROBES`` interpreters are returned.
    """
    raw, scaled = [], []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, BENCH], check=True,
                             capture_output=True, text=True, timeout=60)
        seconds, cal = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REF_S / cal)
    return statistics.median(raw), statistics.median(scaled)


def inputs_digest(work_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(work_dir)):
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(work_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_op(op):
    """(seconds, exit code or "raise Type: message", stdout, output digest)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # a raising op is an outcome to check, not a crash
            code = f"raise {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), sha256_file(op.output) if op.output else None


class Ledger:
    """Outcomes of every op run, checked against the first run of that op."""

    def __init__(self, workload, ops):
        self.workload, self.ops = workload, ops
        self.first = {}
        self.attempted = self.failed = self.raised = 0
        self.reasons = []

    def record(self, idx, code, text, out_digest):
        op = self.ops[idx]
        self.attempted += 1
        self.raised += isinstance(code, str)
        key = (code, out_digest or strip_timestamp(text))
        if idx not in self.first:
            reason = self.workload.check(op, code, text, out_digest)
            self.first[idx] = (key, reason)
        elif self.first[idx][0] != key:
            reason = "outcome differs from its first run"
        else:
            reason = self.first[idx][1]
        if reason:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{op.label}: {reason}")

    def first_pass_digest(self):
        return digest(f"{key[0]}\n{key[1]}" for _, (key, _) in sorted(self.first.items()))


def loop(ops, ledger, seconds, started):
    """Whole passes over ``ops``, stopping at the pass end nearest ``seconds``.

    Each outcome is checked as soon as its op returns, so no report is held
    beyond the first run of its op.  Returns the op latencies at the
    reference host speed, the raw latencies and the host clock.
    """
    lat, raw = [], []
    clock = HostClock()
    t_start = pass_start = time.perf_counter()
    while True:
        idx = len(lat) % len(ops)
        dt, *result = run_op(ops[idx])
        raw.append(dt)
        lat.append(clock.scale(dt))
        ledger.record(idx, *result)
        now = time.perf_counter()
        if now - started > RUN_CAP_S:
            break
        if idx == len(ops) - 1:
            if now - t_start >= seconds - (now - pass_start) / 2:
                break
            pass_start = now
    return lat, raw, clock


def load_golden(name):
    path = os.path.join(GOLDEN_DIR, "random.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def ms(x):
    return x * 1000.0


def end_to_end(args, workload, started):
    work = os.path.join(WORK, workload.name)
    setups, raw_setups, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        imported, imported_scaled = time_import()
        clock = HostClock()
        laps = [imported_scaled]
        t0 = time.perf_counter()
        ops = workload.setup(args.seed, fresh_dir(work), lambda: laps.append(clock.lap()))
        golden = load_golden(workload.name)
        laps.append(clock.lap())
        setups.append(sum(laps))
        raw_setups.append(imported + time.perf_counter() - t0)
        digests.add(inputs_digest(work))
    problems = []
    if len(digests) != 1:
        problems.append("set-up wrote different inputs on repeats of one seed")

    warm = Ledger(workload, ops)
    for idx in range(min(workload.warmup_ops, len(ops))):
        warm.record(idx, *run_op(ops[idx])[1:])
    problems += [f"warm-up {reason}" for reason in warm.reasons]

    ledger = Ledger(workload, ops)
    lat, raw, clock = loop(ops, ledger, args.seconds, started)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if golden and args.seed == golden["seed"]:
        if digests != {golden["inputs_sha256"]}:
            problems.append("inputs differ from golden inputs_sha256")
        if ledger.first_pass_digest() != golden["reports_sha256"]:
            problems.append("reports differ from golden reports_sha256")

    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[-1]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms.p50": (ms(statistics.median(lat)), "ms"),
        "op_ms.p90": (ms(p90), "ms"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    print(f"workload {workload.name}  seed {args.seed}  python {platform.python_version()}"
          f"  machine {platform.machine()}  closed loop, 1 caller")
    print(f"inputs_sha256 {digests.pop() if len(digests) == 1 else 'unstable'}"
          f"  reports_sha256 {ledger.first_pass_digest()}")
    print("at the reference host speed (hostclock.py):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit}")
    print(f"  {'failed_share':<14} {ledger.failed / n:12.4f} ratio ({ledger.failed}/{n} ops failed;"
          f" {sum(x > p90 for x in lat)} ops above p90; median of {SETUP_REPEATS} set-ups)")
    print(f"  {'raised_share':<14} {ledger.raised / n:12.4f} ratio ({ledger.raised}/{n} ops"
          " raised, as their golden outcome records)")
    print(f"as measured: setup_s {statistics.median(raw_setups):.4f} s,"
          f" op_ms.p50 {ms(statistics.median(raw)):.4f} ms,"
          f" op_ms.p90 {ms(statistics.quantiles(raw, n=10)[-1]):.4f} ms,"
          f" ops_per_s {n / sum(raw):.4f} 1/s; host speed factor median"
          f" {statistics.median(clock.factors):.3f}, range {min(clock.factors):.3f}"
          f"-{max(clock.factors):.3f}")
    per_op = {}
    for i, dt in enumerate(lat):
        per_op.setdefault(i % len(ops), []).append(dt)
    slowest = sorted(((statistics.median(v), idx) for idx, v in per_op.items()), reverse=True)
    print("slowest ops (median ms):")
    for dt, idx in slowest[:5]:
        print(f"  {ms(dt):10.2f}  {ops[idx].label}")
    return ledger, problems, metrics


def traced(args, workload, started):
    work = fresh_dir(os.path.join(WORK, workload.name))
    tracer = Tracer()
    install_layers(tracer)
    tracer.begin_op(-1)
    ops = workload.setup(args.seed, work)
    tracer.end_op()
    tracer.uninstall()
    setup_metrics = read_metrics(tracer.stats, SETUP_METRICS)

    ledger = Ledger(workload, ops)
    for idx in range(min(workload.warmup_ops, len(ops))):
        ledger.record(idx, *run_op(ops[idx])[1:])
    subset = range(min(workload.trace_ops, len(ops)))
    rounds = []
    t_start = time.perf_counter()
    while not rounds or (time.perf_counter() - t_start < args.seconds
                         and time.perf_counter() - started < RUN_CAP_S / 2):
        # Alternate which half goes first, so host drift within a round
        # does not bias trace.overhead_share one way.
        walls = {}
        for with_trace in (False, True) if len(rounds) % 2 == 0 else (True, False):
            if with_trace:
                tracer.reset()
                install_layers(tracer)
            t0 = time.perf_counter()
            for idx in subset:
                tracer.begin_op(idx)
                ledger.record(idx, *run_op(ops[idx])[1:])
                tracer.end_op()
            walls[with_trace] = time.perf_counter() - t0
            tracer.uninstall()
        # Op time on the tracer's clock, without the untimed lattice probe:
        # the self times of a round add up to it.
        op_s = sum(end - start for *_, name, start, end in tracer.spans if name == "cli.main")
        rounds.append((walls[False], walls[True], op_s,
                       read_metrics(tracer.stats, LAYER_METRICS)))

    # The spans of the last traced round, for looking into single ops by hand.
    spans_path = os.path.join(work, "spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span_id, parent, op_id, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                 "name": name, "start": start, "end": end}) + "\n")

    metrics = {}
    for metric, _, key, unit in LAYER_METRICS:
        values = [r[3][metric] for r in rounds]
        metrics[metric] = (statistics.median(values) if unit == "s"
                           else statistics.median_low(values), unit)
        if unit == "count" and len(set(values)) != 1:
            print(f"warning: {metric} differs between traced rounds: {values}")
    for metric, _, _, unit in SETUP_METRICS:
        metrics[metric] = (setup_metrics[metric], unit)
    lattice = metrics["duality.conj_bruteforce.lattice_points"][0]
    evals = metrics["plconvex.PLConvex.eval.calls"][0]
    metrics["plconvex.eval_per_lattice_point"] = (evals / lattice if lattice else 0.0, "ratio")
    op_s = statistics.median(r[2] for r in rounds)
    metrics["trace.ops"] = (len(subset), "count")
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.overhead_share"] = (
        statistics.median(r[1] / r[0] for r in rounds) - 1.0, "ratio")

    print(f"workload {workload.name}  seed {args.seed}  python {platform.python_version()}"
          f"  machine {platform.machine()}  traced replay of the first {len(subset)} ops,"
          f" {len(rounds)} round(s); spans in {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:14.6f} {unit}")
    print("self time as a share of traced op time (trace.op_s):")
    shares = sorted(((v / op_s, m) for m, (v, u) in metrics.items()
                     if u == "s" and m.endswith(".self_s") and not m.startswith("generators.")),
                    reverse=True)
    for share, metric in shares[:8]:
        print(f"  {share:7.1%}  {metric}")
    refine = sum(metrics[m][0] for m in ("duality.Instance.refine.self_s", "timegrid.refine.self_s",
                                          "scenario.refine.self_s", "setmaps.SetMap.refine.self_s"))
    oracle = (metrics["duality.conj_bruteforce.self_s"][0]
              + metrics["plconvex.PLConvex.eval.self_s"][0])
    print(f"  {refine / op_s:7.1%}  all *.refine together")
    print(f"  {oracle / op_s:7.1%}  conj_bruteforce + PLConvex.eval")
    return ledger, [], metrics


def write_golden():
    """Record today's outcomes as the golden data under bench/golden/."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    random_golden = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        work = fresh_dir(os.path.join(WORK, name))
        ops = workload.setup(DEFAULT_SEED, work)
        results = [run_op(op)[1:] for op in ops]
        if name == "preset-cli":
            golden = {op.label: workload.outcome(op, code, text, out_digest)
                      for op, (code, text, out_digest) in zip(ops, results)}
            with open(os.path.join(GOLDEN_DIR, "preset-cli.json"), "w", encoding="utf-8") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
            continue
        ledger = Ledger(workload, ops)
        for idx, result in enumerate(results):
            ledger.record(idx, *result)
        if ledger.failed:
            sys.exit(f"bench: {name} fails its own checks: {ledger.reasons}")
        random_golden[name] = {"seed": DEFAULT_SEED, "inputs_sha256": inputs_digest(work),
                               "reports_sha256": ledger.first_pass_digest()}
    with open(os.path.join(GOLDEN_DIR, "random.json"), "w", encoding="utf-8") as fh:
        json.dump(random_golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(args, started) -> None:
    workload = WORKLOADS[args.workload]()
    measure = traced if args.trace else end_to_end
    ledger, problems, metrics = measure(args, workload, started)
    for line in problems + ledger.reasons:
        print(f"check: {line}")
    print(json.dumps({"correct": not problems and ledger.failed == 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))

"""qhead benchmark: one workload, one process, one JSON result on the last line.

    python3 bench/run.py --workload paper-noisy-step --seed 1 --seconds 24 --trace 0

Run from the repository root. The benchmark imports qhead from ``src/`` next
to this directory and fails (exit code 1, no result) when it is missing.

``--trace 0`` measures the end-to-end metrics with tracing off: several
set-ups, then a timed phase of a fixed number of units sized from
``--seconds``, then output checks. Its times are wall times scaled by the
host's speed, measured with a reference kernel as the run goes
(hostspeed.py). ``--trace 1`` runs one unit untraced and
two traced, checks that all three produce the same bits and the two traced
ones the same deterministic counters, reports the per-layer metrics, and
runs the simcore kernel phase. Both print every metric by name and unit,
record the machine facts, and write the full record (spans included, when
traced) under ``.bench_out/``. README.md maps each metric to its layer.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread (nproc is 2 on the reference machine); numpy reads
# these when it loads, so they are set before anything imports it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def import_qhead():
    """Import qhead from this checkout's ``src/``, never from anywhere else."""
    if not (SRC / "qhead" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qhead sources at {SRC / 'qhead'}; nothing to measure")
    sys.path.insert(0, str(SRC))
    import qhead

    if Path(qhead.__file__).resolve().parent != SRC / "qhead":
        raise SystemExit(f"bench: imported qhead from {qhead.__file__}, not from {SRC}")
    return qhead


def import_qhead_fresh() -> None:
    """Start a fresh interpreter that only imports qhead."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import qhead"
    subprocess.run([sys.executable, "-c", code], check=True)


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts() -> dict:
    import numpy as np

    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = _read(index / "size")
    blas = getattr(np, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "qhead").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload, seed: int, seconds: float, work: Path):
    from hostspeed import HostSpeed
    from layers import Probe
    from workloads import PAPER_BATCHES_PER_EPOCH, PAPER_EPOCHS, Op

    def timed(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        return result, (start, time.perf_counter())

    units = max(workload.min_units, round(seconds / workload.nominal_unit_s))
    host = HostSpeed(workload.reference)
    imports, setups = [], []
    for k in range(SETUP_REPEATS):
        host.sample()
        imports.append(timed(import_qhead_fresh)[1])
        ctx, at = timed(workload.setup, seed, units, work / f"setup-{k}")
        setups.append(at)
    host.sample()

    probe = Probe(host)
    results, unit_at, unit_s = [], [], []
    with contextlib.ExitStack() as stack:
        workload.attach(stack, ctx, probe)
        for i in range(units):
            reference_before = host.reference_total_s
            start = time.perf_counter()
            try:
                results.append(workload.unit(ctx, i))
            except Exception as exc:  # a failed call is a failed operation
                traceback.print_exc()
                results.append(exc)
            unit_at.append((start, time.perf_counter()))
            unit_s.append(unit_at[-1][1] - start - (host.reference_total_s - reference_before))
        host.after_work(0.0)  # at least one sample, even if no step ran
        # the checks may take steps of their own; they are not timed work
        probe.host = None
        steps = list(zip(probe.step_s, probe.step_at))
        ops = workload.check(ctx, results)
    ops.append(Op("finite losses, gradients and logits",
                  [f"non-finite {what}" for what in probe.nonfinite]))

    # seconds on the reference machine: each wall time times the host's speed
    # around it
    def scaled(seconds, at):
        return seconds * host.speed(*at)

    def walls(spans):
        return [b - a for a, b in spans]

    # set-up passes are short and have one sample each, so set-up is scaled
    # by the speed over the whole set-up phase
    setup_wall = statistics.median(walls(imports)) + statistics.median(walls(setups))
    setup_s = scaled(setup_wall, (imports[0][0], setups[-1][1]))
    run_wall = sum(unit_s)
    run_s = sum(map(scaled, unit_s, unit_at))
    step_wall = statistics.median(d for d, _ in steps) if steps else float("nan")
    step_s_p50 = statistics.median(scaled(d, at) for d, at in steps) if steps else float("nan")
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "samples_per_s": (units * workload.samples_per_unit / run_s, "1/s"),
        "step_s_p50": (step_s_p50, "s"),
        "paper_protocol_h": (step_s_p50 * PAPER_BATCHES_PER_EPOCH * PAPER_EPOCHS / 3600, "h"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh imports + median of {SETUP_REPEATS} "
                   f"set-ups; wall {setup_wall:.4g} s",
        "run_s": f"{units} units, closed loop, one client; wall {run_wall:.4g} s",
        "step_s_p50": f"median of {len(steps)} batch steps; wall {step_wall:.4g} s",
        "paper_protocol_h": "step_s_p50 x 27.25 batches x 800 epochs",
    }
    extra = {"import_at": imports, "setup_at": setups, "unit_at": unit_at, "unit_s": unit_s,
             "step_s": [d for d, _ in steps], "step_at": [at for _, at in steps],
             "reference": {"kernel": dataclasses.asdict(workload.reference),
                           "samples_s": host.samples, "at": host.at}}
    return metrics, notes, ops, extra


def traced_run(workload, seed: int, work: Path, machine: dict):
    from kernels import kernel_phase
    from layers import DETERMINISTIC_COUNTERS, Probe, layer_metrics, step_profile
    from tracing import Tracer
    from workloads import Op, result_problems

    ctx = workload.setup(seed, 1, work / "setup")
    runs = []
    for tracer in (None, Tracer(request=1), Tracer(request=2)):
        probe = Probe()
        start = time.perf_counter()
        try:
            result = workload.traced_unit(ctx, probe, tracer)
        except Exception as exc:  # a failed call is a failed operation
            traceback.print_exc()
            result = exc
        runs.append((tracer, result, time.perf_counter() - start, probe))

    ops = []
    plain = runs[0][1]
    for tracer, result, _, probe in runs:
        op = Op("untraced unit" if tracer is None else f"traced unit {tracer.request}",
                result_problems(workload, result) + [f"non-finite {w}" for w in probe.nonfinite])
        if op.ok and tracer is not None and not isinstance(plain, Exception):
            if not workload.same(plain, result):
                op.problems.append("outputs differ from the untraced unit")
        ops.append(op)
    first, second = runs[1][0], runs[2][0]
    for name in DETERMINISTIC_COUNTERS:
        if first.counters[name] != second.counters[name]:
            ops[-1].problems.append(
                f"{name} {second.counters[name]} != {first.counters[name]} in traced unit 1")

    per_run = [layer_metrics(tracer) for tracer, *_ in runs[1:]]
    metrics = {key: (statistics.mean(m[key] for m in per_run), _unit(key)) for key in per_run[0]}
    overhead = statistics.mean(d for _, _, d, _ in runs[1:]) - runs[0][2]
    metrics["trace.overhead_s"] = (overhead, "s")

    kernel_metrics, records, failures = kernel_phase(machine, seed)
    ops.append(Op("kernel phase", failures))
    metrics.update({key: (value, _unit(key)) for key, value in kernel_metrics.items()})
    extra = {
        "unit_s": {"untraced": runs[0][2], "traced": [d for _, _, d, _ in runs[1:]]},
        "kernels": records,
        "step_profile": step_profile(first),
        "spans": first.span_records(),
    }
    return metrics, {}, ops, extra


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if "_ns_per_amp." in key:
        return "ns"
    if "bytes" in key:
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------


def _print_kernels(records: list[dict], machine: dict) -> None:
    caches = ", ".join(f"{k} {v}" for k, v in machine["caches"].items())
    print(f"kernel phase (cache-resident figures, not bandwidth; caches per core/shared: {caches})")
    for rec in records:
        print(f"  {rec['shape']:8s} {rec['kernel']:5s} {rec['ns_per_amp']:8.3f} ns/amp  "
              f"{rec['computed_bytes_per_call']:>10d} computed bytes/call  "
              f"state {rec['state_bytes']} bytes, {rec['residency']}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="qhead benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_qhead()
    machine = machine_facts()
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        # qhead train prints a summary line; keep stdout for the benchmark
        with contextlib.redirect_stdout(sys.stderr):
            if args.trace:
                metrics, notes, ops, extra = traced_run(workload, args.seed, work, machine)
            else:
                metrics, notes, ops, extra = timed_run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    if "reference" in extra:
        ref = extra["reference"]
        print(f"  times are wall time x host speed: the reference kernel took a mean "
              f"{statistics.fmean(ref['samples_s']):.4g} s in {len(ref['samples_s'])} samples "
              f"against {ref['kernel']['seconds']} s on the reference machine")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:.6g} {unit}{note}")
    print(f"  {'failed_ops_ratio':36s} {failed / len(ops):.6g} ({failed} of {len(ops)} operations)")
    for op in ops:
        for problem in op.problems:
            print(f"  FAILED {op.name}: {problem}")
    if "step_profile" in extra:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in extra["step_profile"].items())
        print(f"share of trainer.step_s (traced unit 1): {shares}")
    if "kernels" in extra:
        _print_kernels(extra["kernels"], machine)
    print("machine " + json.dumps(machine, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine,
                  operations=[{"name": op.name, "problems": op.problems} for op in ops], **extra)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

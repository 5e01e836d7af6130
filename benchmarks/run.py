"""The wittlift benchmark.

    python3 benchmarks/run.py --workload tower --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workloads are ``tower``, ``finite`` and
``density`` (``all`` runs the three in turn).  For ``--seconds`` seconds the
benchmark starts fresh worker processes one after another, single-threaded,
each doing set-up, a cold pass and a warm pass over the workload's ops and
then checking every output against an independent reference.  It prints a
detail line (per-kind timings, ``ops_failed_frac``, failures, machine
metadata) and, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
workers.  Their times are wall times scaled to the reference machine by a
speed sample taken around each stretch of timed work (``speed.py``), so
that a busy host does not read as a slow program; the detail line has the
unscaled wall times too.  With ``--trace 1`` workers alternate between untraced and traced;
the metrics are the per-layer ones from the traced workers plus
``trace.overhead_frac``, and every count must repeat exactly across traced
workers.  Results are also written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_UNTRACED = 3
MIN_TRACED = 2
# a run must end within 180 s: no worker starts after START_LIMIT_S minus the
# longest worker so far, and none runs past RUN_LIMIT_S
START_LIMIT_S = 120
RUN_LIMIT_S = 170
MAX_CRASHES = 3

PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "wittlift").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(seed, numpy_version):
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "seed": seed, "thread_env": {k: v for k, v in PINNED_ENV.items()
                                     if k.endswith("THREADS")},
    }


def run_worker(workload, seed, refs_path, trace, timeout, spans_out=None):
    cfg = {"workload": workload, "seed": seed, "refs": str(refs_path), "trace": trace,
           "src": str(SRC), "spans_out": spans_out, "spawn_chunk_s": speed.sample(),
           "spawn_t": time.monotonic()}
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), None


def run_workload(name, seed, seconds, trace):
    """Run workers for `seconds` and aggregate; returns (detail, result)."""
    cls = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    refs_path = OUT / f"refs-{name}-{seed}-{os.getpid()}.json"
    spans_path = OUT / f"spans-{name}-{seed}.jsonl"
    with open(refs_path, "w") as fh:
        json.dump(cls.references(cls.spec(seed)), fh)
    untraced, traced, crashes = [], [], []
    speed.warm_up()
    start = time.monotonic()
    longest = 0.0
    try:
        while True:
            elapsed = time.monotonic() - start
            if trace:
                enough = len(untraced) >= 1 and len(traced) >= MIN_TRACED
                want_traced = len(traced) < len(untraced)
            else:
                enough = len(untraced) >= MIN_UNTRACED
                want_traced = False
            if elapsed >= seconds and enough:
                break
            # whatever the sample counts: a worker that cannot finish in time
            # or keeps crashing ends the run, and the crashes make it incorrect
            if elapsed + longest > START_LIMIT_S or len(crashes) >= MAX_CRASHES:
                break
            t0 = time.monotonic()
            res, err = run_worker(name, seed, refs_path, want_traced,
                                  max(RUN_LIMIT_S - elapsed, 1.0),
                                  str(spans_path) if want_traced else None)
            longest = max(longest, time.monotonic() - t0)
            if err is not None:
                crashes.append(err)
            else:
                (traced if want_traced else untraced).append(res)
    finally:
        refs_path.unlink(missing_ok=True)
    return aggregate(name, seed, trace, untraced, traced, crashes)


def aggregate(name, seed, trace, untraced, traced, crashes):
    samples = untraced + traced
    attempted = sum(r["attempted"] for r in samples)
    failures = [f for r in samples for f in r["failures"]]
    unexpected = [f for f in failures if not f["known"]]
    # a crashed worker attempted its ops and completed none
    per_worker = samples[0]["attempted"] if samples else 1
    attempted += per_worker * len(crashes)
    failed = len(failures) + per_worker * len(crashes)
    correct = not unexpected and not crashes and bool(samples)

    def med(rows, key):
        return statistics.median(r[key] for r in rows) if rows else 0.0

    rows = untraced or traced
    detail = {k: {"value": statistics.median(r["detail"][k] for r in rows),
                  "unit": metrics.DETAIL[k][0]}
              for k in (rows[0]["detail"] if rows else ())}
    detail["ops_failed_frac"] = {"value": failed / attempted if attempted else 0.0,
                                 "unit": "ratio"}
    calls_mismatch = []
    if trace:
        layer = {}
        for key, unit in metrics.PER_LAYER.items():
            if key == "trace.overhead_frac":
                continue
            values = [r["per_layer"][key] for r in traced]
            if unit == "count" and len(set(values)) > 1:
                calls_mismatch.append({"metric": key, "values": values})
            layer[key] = statistics.median(values) if values else 0.0
        traced_time = med(traced, "cold_s") + med(traced, "warm_s")
        plain_time = med(untraced, "cold_s") + med(untraced, "warm_s")
        layer["trace.overhead_frac"] = traced_time / plain_time - 1.0 if plain_time else 0.0
        correct = correct and not calls_mismatch
        result_metrics = {k: {"value": layer[k], "unit": unit}
                          for k, unit in metrics.PER_LAYER.items()}
    else:
        result_metrics = {k: {"value": med(untraced, k), "unit": unit}
                          for k, unit in metrics.END_TO_END.items()}
    numpy_version = samples[0]["numpy"] if samples else None
    info = {
        "workload": name, "trace": trace, "workers": len(samples),
        "untraced_workers": len(untraced), "traced_workers": len(traced),
        "detail": detail,
        "samples": {k: [r[k] for r in untraced]
                    for k in metrics.END_TO_END},
        "failures": _unique_failures(failures), "crashes": crashes,
        "calls_mismatch": calls_mismatch, "meta": metadata(seed, numpy_version),
    }
    return info, {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": result_metrics}


def _unique_failures(failures):
    seen = {}
    for f in failures:
        key = (f["op"], f["pass"], f["reason"])
        if key not in seen:
            seen[key] = dict(f, count=0)
        seen[key]["count"] += 1
    return list(seen.values())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "wittlift" / "__init__.py").is_file():
        print(f"wittlift sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        info, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        record = dict(info, result=result)
        with open(OUT / f"result-{name}-{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        print(json.dumps(info))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {(f"{name}.{k}" if len(names) > 1 else k): v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

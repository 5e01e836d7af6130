"""One workload run in a fresh process: set-up, a cold and a warm pass, checks.

run.py starts this script once per sample:

    python3 benchmarks/worker.py '<json config>'

and reads the JSON object it prints as the last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import speed


# wall time of library work between two speed samples
SEGMENT_S = 0.25


def run_pass(ops):
    """Time every op; an exception is a failed op and never ends the pass.

    Speed samples are taken before the first op, after the last, and
    between ops whenever SEGMENT_S of op time has passed since the last
    one.  Each op's wall time is scaled by the mean of the two samples that
    bracket its segment (``speed.py``).  Returns the pass's wall time, its
    scaled time and per op (op_id, kind, scaled seconds, output, error).
    """
    records, segment = [], []
    wall = scaled = seg_wall = 0.0
    before = speed.sample()
    for i, (op_id, kind, fn) in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # counted as a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        segment.append((op_id, kind, dt, out, err))
        seg_wall += dt
        if seg_wall >= SEGMENT_S or i == len(ops) - 1:
            after = speed.sample()
            factor = speed.REF_CHUNK_S / ((before + after) / 2)
            records += [(o, k, d * factor, out_, e) for o, k, d, out_, e in segment]
            wall += seg_wall
            scaled += seg_wall * factor
            segment, seg_wall, before = [], 0.0, after
    return wall, scaled, records


def kind_seconds(records, kinds):
    out = dict.fromkeys(kinds, 0.0)
    for _, kind, seconds, _, _ in records:
        out[kind] += seconds
    return out


def main():
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, cfg["src"])
    tracer = None
    if cfg["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads
    cls = workloads.WORKLOADS[cfg["workload"]]
    with open(cfg["refs"]) as fh:
        references = json.load(fh)
    workload = cls(cls.spec(cfg["seed"]), references)
    ops = workload.ops()
    kinds = sorted({kind for _, kind, _ in ops})
    setup_wall_s = time.monotonic() - cfg["spawn_t"]
    speed.warm_up()
    setup_factor = speed.REF_CHUNK_S / ((cfg["spawn_chunk_s"] + speed.sample()) / 2)

    begin = tracer.mark() if tracer else None
    cold_wall_s, cold_s, cold = run_pass(ops)
    mid = tracer.mark() if tracer else None
    warm_wall_s, warm_s, warm = run_pass(ops)
    end = tracer.mark() if tracer else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for pass_name, records in (("cold", cold), ("warm", warm)):
        for op_id, _, _, out, err in records:
            if err is None:
                try:
                    err = workload.check(op_id, out)
                except Exception as exc:  # a check that cannot run is a failure
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                failures.append({"op": op_id, "pass": pass_name, "reason": err,
                                 "known": workloads.known_defect(op_id, err)})

    result = {
        "setup_s": setup_wall_s * setup_factor, "cold_s": cold_s, "warm_s": warm_s,
        "peak_rss_mb": peak_rss_mb,
        "detail": dict(cls.detail(kind_seconds(cold, kinds), kind_seconds(warm, kinds)),
                       setup_wall_s=setup_wall_s, cold_wall_s=cold_wall_s,
                       warm_wall_s=warm_wall_s, slowdown=cold_wall_s / cold_s),
        "attempted": len(cold) + len(warm), "failures": failures,
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if tracer:
        result["per_layer"] = tracer.per_layer(begin, mid, end, cold_wall_s - warm_wall_s)
        if cfg.get("spans_out"):
            tracer.dump(cfg["spans_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()

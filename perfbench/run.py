"""framecast benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload forecast-frame --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout holding ``src/framecast``).
With ``--trace 0`` the last stdout line is a JSON object with every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The line before it records the environment. Spans and the full
report are written under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_framecast() -> None:
    """Import framecast from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import framecast
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import framecast from {src}: {exc}") from None
    if src.resolve() not in Path(framecast.__file__).resolve().parents:
        raise SystemExit(f"perfbench: framecast came from {framecast.__file__}, not {src}")


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment(args, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "dtype": "float64",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    import_framecast()
    from workloads import WORKLOADS, Workload, run_traced, run_untraced

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = Workload(args.workload, args.seed, workdir)
    env = environment(args, nproc)
    if args.trace:
        ops, metrics, notes = run_traced(workload, args.seconds)
        units = {k: layer_unit(k) for k in metrics}
        workload.tracer.write(workdir / "spans.jsonl")
    else:
        ops, raw, notes = run_untraced(workload, args.seconds)
        metrics = {k: v for k, (v, _) in raw.items()}
        units = {k: u for k, (_, u) in raw.items()}

    failed = [op for op in ops if not op.ok]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in selected(args.trace, metrics)},
    }
    report = {"env": env, "notes": notes, "all_metrics": metrics,
              "failures": [f"{op.kind}: {op.error}" for op in failed[:20]],
              "calls": [[op.kind, op.seconds, op.ok] for op in ops]}
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, value in sorted(metrics.items()):
        print(f"{name:40s} {value!r} {units[name]}")
    print(json.dumps({"env": env, "notes": notes, "failures": report["failures"]}))
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "share" if name.endswith("_share") else "count"


def selected(trace: int, metrics: dict) -> list[str]:
    """The metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit(f"perfbench: run produced no value for {missing}")
    return names


if __name__ == "__main__":
    sys.exit(main())

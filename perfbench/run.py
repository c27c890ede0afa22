"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ladders --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else. The run makes TIMED_PASSES whole passes
over the workload, and more while they fit in --seconds, checking every
operation, and measures set-up in fresh child processes before and after
them. wall_s is one pass with every operation at its median attempt over
the timed passes, in reference seconds (see ops.py). With --trace 0 the
last line of stdout holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run, and the spans go to
.perfbench/spans/. The lines before it name every metric with its unit.
Exit code 2 means the checkout has no library to measure, 3 a malformed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# set-up samples, half taken before the passes and half after them, so that
# the median spans the run and not one phase of a drifting host
SETUP_SAMPLES = 8
# passes whose operation times make wall_s: a fixed number, so that a faster
# program is timed with the same estimator as a slower one; the determinism
# check compares the reports of these passes. Passes beyond them, started
# only while they fit in --seconds, just repeat the checks.
TIMED_PASSES = 2

# operations that fail at this commit because of a documented library
# defect, with the one problem excused: they still count in `failed`, but
# do not make the run incorrect unless they fail in any other way
KNOWN_DEFECTS = {
    # a2_estimate reports the deepest dyadic level's supremum as the
    # constant, not the supremum over all levels it scanned
    "muckenhoupt.a2_estimate.sampled":
        re.compile(r"constant \S+ below witnessed ratio \S+"),
}


def _excused(name: str, problems: list) -> bool:
    pattern = KNOWN_DEFECTS.get(name)
    return pattern is not None and all(pattern.fullmatch(p) for p in problems)


def _bootstrap(blas_threads: int) -> None:
    """Pin BLAS threads and make the checkout's own library importable."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))


def _library_present() -> bool:
    return (SRC / "semiframe" / "__init__.py").is_file()


def _sizes(name: str):
    import workloads
    return workloads.SMOKE if name == "smoke" else workloads.FULL


# ---------------------------------------------------------------------------
# child-process probes


def _probe_setup(args) -> None:
    """Import, first kernel calls and input building in a fresh process, in
    reference seconds: scaled by the fastest of three reference kernels
    timed right after it."""
    t0 = time.perf_counter()
    import workloads
    workloads.first_kernel_calls()
    build, _ = workloads.WORKLOADS[args.workload]
    build(args.seed, _sizes(args.size))
    seconds = time.perf_counter() - t0
    from ops import REFERENCE_S, reference_kernel
    ref = min(reference_kernel() for _ in range(3))
    print(repr(seconds * REFERENCE_S / ref))


def _probe_dual_one_thread(args) -> None:
    """Plain single-threaded canonical dual on the growing family."""
    import workloads
    from semiframe import families, operators
    workloads.first_kernel_calls()
    n = _sizes(args.size).route_counts[-1]
    fam = families.shared_direction_family(1.0)
    operators.canonical_dual(fam, (65, 64))
    t0 = time.perf_counter()
    operators.canonical_dual(fam, (n + 1, n))
    print(repr(time.perf_counter() - t0))


PROBES = {"setup": _probe_setup, "dual1t": _probe_dual_one_thread}


def _run_probe(kind: str, args, blas_threads: int) -> float:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment record


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=False).stdout.strip()
        return int(out) if out.isdigit() else None
    except OSError:
        return None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    import numpy as np
    commit = None
    if (ROOT / ".git").exists():          # a checkout without history has none
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=False).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "semiframe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed,
        "nproc": NPROC, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": _version("scipy"),
        "l2_bytes_per_core": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


# ---------------------------------------------------------------------------
# the measured run


def _passes(args, inp, ledger, run_pass, tracer=None):
    """TIMED_PASSES whole passes, then more while the next one should end
    within --seconds; returns per-pass walls and, per pass, the scenario
    reports it wrote. The spans of one pass share a run id."""
    walls, reports = [], []
    started = time.perf_counter()
    while (len(walls) < TIMED_PASSES
           or time.perf_counter() - started + walls[-1] <= args.seconds):
        if tracer:
            tracer.run_id = f"{args.workload}-seed{args.seed}-pass{len(walls)}"
        out = OUT / "reports" / f"{os.getpid()}-pass{len(walls)}"
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        run_pass(inp, ledger, out)
        walls.append(time.perf_counter() - t0)
        written = {}
        for path in sorted(out.glob("*.json")):
            written[path.stem] = path.read_bytes()
            path.unlink()
        out.rmdir()
        reports.append(written)
    return walls, reports


def _check_determinism(ledger, reports) -> None:
    """Every pass ran its scenarios with one seed; each scenario's report
    must be byte-identical across the timed passes."""
    timed = reports[:TIMED_PASSES]
    with ledger.op("report.deterministic") as c:
        differ = sorted(name for name in timed[0]
                        if len({r.get(name) for r in timed}) != 1)
        c.holds(bool(timed[0]) and not differ,
                f"reports differ between passes: {differ or 'none written'}")


def measure(args) -> tuple:
    """Returns (result line, human-readable lines)."""
    import workloads
    from ops import Ledger

    def sample_setup():
        return ([] if args.trace else
                [_run_probe("setup", args, NPROC)
                 for _ in range(SETUP_SAMPLES // 2)])

    setups = sample_setup()
    workloads.first_kernel_calls()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    build, run_pass = workloads.WORKLOADS[args.workload]
    inp = build(args.seed, _sizes(args.size))
    if tracer:
        tracer.reset()
    ledger = Ledger(wrong=args.wrong)
    walls, reports = _passes(args, inp, ledger, run_pass, tracer)
    ref_pass = ledger.pass_seconds(TIMED_PASSES)
    raw_pass = ledger.pass_seconds(TIMED_PASSES, reference=False)
    if tracer:
        tracer.uninstall()
    setups += sample_setup()
    _check_determinism(ledger, reports)

    if tracer:
        from layers import layer_metrics
        one_thread = (_run_probe("dual1t", args, 1)
                      if args.workload == "ladders" else 0.0)
        metrics = layer_metrics(tracer, ledger, len(walls), ref_pass, reports,
                                one_thread)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "wall_s": ref_pass,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_passed_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
            "accuracy_digits_min": ledger.digits_min(),
        }
    unexpected = [name for name, problems in ledger.failures
                  if not _excused(name, problems)]
    lines = [f"passes {len(walls)}  walls_s {[round(w, 4) for w in walls]}  "
             f"median pass {raw_pass:.4f} s, {ref_pass:.4f} reference s",
             f"ops_failed_ratio {ledger.failed}/{ledger.attempted}",
             f"least accurate operation {ledger.least_accurate()}"]
    lines += [f"failed {name}: {'; '.join(problems)}"
              + ("" if name in unexpected else "  (known library defect)")
              for name, problems in ledger.failures]
    result = {"correct": not unexpected, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, lines


def _format(result: dict, spec: dict, trace: bool) -> dict:
    """Order metrics as BENCHMARK.json names them, attach units, and refuse
    a run that lacks one or gives a non-finite value."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    bad = [m["name"] for m in wanted
           if m["name"] in got and not math.isfinite(float(got[m["name"]]))]
    extra = sorted(set(got) - {m["name"] for m in wanted})
    if missing or bad or extra:
        raise ValueError(f"malformed run: missing {missing}, non-finite {bad}, "
                         f"unlisted {extra}")
    return dict(result, metrics={
        m["name"]: {"value": float(got[m["name"]]), "unit": m["unit"]}
        for m in wanted})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ladders", "spectral"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--wrong", action="append", default=[],
                   help="operation whose expected verdict is made wrong")
    p.add_argument("--probe", choices=tuple(PROBES), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.seed %= 2 ** 31

    if not _library_present():
        print(f"no library to measure: {SRC / 'semiframe'} is missing",
              file=sys.stderr)
        return 2
    _bootstrap(1 if args.probe == "dual1t" else NPROC)
    if args.probe:
        PROBES[args.probe](args)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, lines = measure(args)
    try:
        result = _format(result, spec, bool(args.trace))
    except ValueError as err:
        print(err, file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:48s} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

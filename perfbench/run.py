"""strforge benchmark: training throughput, decode latency and a per-layer split.

Run every workload, untraced and then traced, one process at a time:

    python3 perfbench/run.py [--seed N] [--seconds S]

Run one workload in this process (the interface a harness uses):

    python3 perfbench/run.py --workload train-crnn --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json
and nothing inside the program is timed; with ``--trace 1`` it holds the
per-layer metrics, measured by wrappers at strforge's module boundaries that
are removed again before the run ends. The last line of standard output is
the result, ``{"correct", "attempted", "failed", "metrics"}``; the full record
(environment, checks, per-step split, cost matrix) is written to
``.perfbench/`` at the root of the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("train-crnn", "train-best", "infer-24")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "STRFORGE_THREADS")


def git_rev(root):
    """The commit checked out at ``root``, or None outside a git repository."""
    if not (root / ".git").exists():  # git would search the directories above root
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_rev": git_rev(ROOT),
    }


IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
print(time.perf_counter() - t0)
"""


def import_time():
    """Seconds a fresh interpreter takes to import strforge and the workloads."""
    code = IMPORT_PROBE.format(src=str(ROOT / "src"), bench=str(Path(__file__).parent))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out.strip().splitlines()[-1])


def print_result(result):
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:14.4f} {m['unit']}")
    print(f"  error_rate {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.4f}")


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    import_s = [time.perf_counter() - T0] + [import_time() for _ in range(2)]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                        workdir, import_s)
    try:
        result = workloads.run_workload(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "result": result,
              "failures": run.failures, "end_to_end": run.end_to_end,
              "not_applicable": run.not_applicable,
              **run.detail}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print_result(result)
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")
    if run.over_max_len:
        print(f"  note: {run.over_max_len} predictions longer than "
              f"{workloads.MAX_DECODE_LEN} characters (CTC decoding ignores max_len)")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, untraced then traced, one at a time."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload}, {'traced' if trace else 'untraced'}:")
            print_result(result)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring window; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strforge" / "__init__.py").is_file():
        print(f"no strforge sources under {ROOT / 'src'}; run from a strforge checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

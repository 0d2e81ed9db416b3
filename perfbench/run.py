#!/usr/bin/env python3
"""FT-BESST end-to-end benchmark.

Run one workload and print its result as one JSON line (the last line of
stdout):

    python3 perfbench/run.py --workload dse_sweep --seed 7 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json, --trace 1
the per-layer metrics of a separate traced run. The first call configures
and builds perfbench/ (the FT-BESST libraries, the `ftbesst` CLI and the
ftbench) under $CARGO_TARGET_DIR (default .bench_build) in the checkout.

Other modes (see perfbench/README.md):

    --report            every metric of every workload, both runs, with units
    --steady N [--sets K]  K interleaved sets of N seeds per workload: spread
                        of each metric and distance of the set medians vs bound
    --selftest          harness unit tests + the corrupted-reference check
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every workload ftbench runs. BENCHMARK.json gates dse_sweep and
# inject_campaign; the traced runs of those also measure the layers of
# serve_mixed and vulcan_fold (see README.md, "Workloads").
WORKLOADS = ["serve_mixed", "dse_sweep", "inject_campaign", "vulcan_fold"]
RUN_TIMEOUT_S = 170

def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def nproc():
    return len(os.sched_getaffinity(0))


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(targets=("ftbench", "ftbesst")):
    """Configure (once) and build; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "tools" / "ftbesst_cli.cpp"
    ).is_file():
        raise SystemExit("perfbench: FT-BESST sources (src/, tools/) not found in " + str(ROOT))
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", str(out), "-j", str(nproc()), "--target", *targets],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
    )
    return out


def stop_group(proc):
    """Kill whatever is left of the run's process group (spawned tier
    workers included) and wait until every member has exited."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_ftbench(out, workload, seed, seconds, trace, corrupt=False):
    """One ftbench run; returns its parsed result object."""
    work_dir = os.path.relpath(out / "run", ROOT)
    os.makedirs(ROOT / work_dir, exist_ok=True)
    env = dict(os.environ)
    # Pin the pool size of the in-process workloads (and record it).
    env["FTBESST_THREADS"] = str(nproc())
    env.pop("FTBESST_OBS", None)
    cmd = [
        str(out / "ftbench"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--repo", ".", "--work-dir", work_dir,
        "--corrupt-reference", "1" if corrupt else "0",
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise SystemExit(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: ftbench {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def result_line(result, spec, trace):
    """The printed result: exactly correct/attempted/failed/metrics,
    with the metrics BENCHMARK.json lists for this kind of run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        got = result["metrics"].get(name)
        if got is None:
            if not trace:
                raise SystemExit(f"perfbench: run reported no {name}")
            # A layer this workload does not drive: reported as 0.
            log(f"perfbench: {name} not exercised by this workload (0)")
            got = {"value": 0}
        metrics[name] = {"value": got["value"], "unit": entry["unit"]}
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def spread(values):
    """Interquartile distance as a share of the median (statistics.quantiles
    with n=4, its default exclusive method)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def steady(out, spec, runs, workloads, seconds, sets=1):
    """Run `sets` interleaved sets of `runs` seeds per workload: seed s
    (1-based) belongs to set (s - 1) % sets, and the workloads take turns
    within each seed, so every set and workload sees the same spread of
    host conditions. Prints, per set, each end-to-end metric's median and
    spread next to its bound and, with two or more sets, how far the set
    medians lie apart. Returns False if a run was incorrect or a spread or
    a difference between set medians exceeds its bound."""
    ok = True
    samples = {}  # (workload, set, metric) -> values
    for seed in range(1, runs * sets + 1):
        for workload in workloads:
            result = run_ftbench(out, workload, seed, seconds, False)
            line = result_line(result, spec, False)
            log(f"{workload} seed {seed}: correct {line['correct']} " + " ".join(
                f"{name} {m['value']:.6g}" for name, m in line["metrics"].items())
                + f" host_steal_pct {result['info'].get('host_steal_pct', 0):.1f}")
            ok &= line["correct"]
            for name, m in line["metrics"].items():
                samples.setdefault((workload, (seed - 1) % sets, name), []).append(m["value"])
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            medians = []
            for k in range(sets):
                values = samples[(workload, k, name)]
                s = spread(values)
                medians.append(statistics.median(values))
                verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO NOISY")
                ok &= s <= bound
                print(f"{workload:16} {name:12} set {k + 1} median {medians[-1]:12.6g} {entry['unit']:5}"
                      f" spread {s:7.2%}  bound {bound:5.0%}  {verdict}", flush=True)
            if sets > 1:
                apart = max(medians) / min(medians) - 1.0
                ok &= apart <= bound
                print(f"{workload:16} {name:12} set medians apart {apart:7.2%}  bound {bound:5.0%}"
                      f"  {'ok' if apart <= bound else 'TOO FAR APART'}", flush=True)
    return ok


def report(out, spec, seconds, workloads):
    """Every end-to-end metric of each workload (the bounded ones, then
    p90/p99 where the tail rule allows and error_rate, with sample counts),
    then the traced layer report."""
    for workload in workloads:
        for trace in (False, True):
            result = run_ftbench(out, workload, 1, seconds, trace)
            kind = "layers (traced run)" if trace else "end to end"
            print(f"== {workload}: {kind}; correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            names = [e["name"] for e in spec["per_layer" if trace else "end_to_end"]]
            extra = [] if trace else ["p90_ms", "p99_ms", "error_rate"]
            for name in names + extra:
                m = result["metrics"].get(name)
                if m is None:
                    print(f"  {name:32} -- not measured on this workload")
                    continue
                n = f"  (n={m['samples']})" if "samples" in m else ""
                print(f"  {name:32} {m['value']:14.6g} {m['unit']}{n}")
            if trace:
                info = result["info"]
                print(f"  ops_per_s untraced {info.get('ops_per_s_untraced', 0):.6g}"
                      f" traced {info.get('ops_per_s_traced', 0):.6g};"
                      f" trace in {info.get('trace_dir', '-')}")


def selftest(out):
    """Harness unit tests (C++ percentile/digest, Python quartiles) and the
    live-check proof: with a corrupted reference every op must fail."""
    build(("ftbench", "ftbesst", "ftbench_tests"))
    subprocess.run([str(out / "ftbench_tests")], check=True)
    subprocess.run([sys.executable, "-m", "unittest", "-q", str(HERE / "test_run.py")],
                   check=True, cwd=HERE)
    for workload in WORKLOADS:
        result = run_ftbench(out, workload, 1, 0.5, False, corrupt=True)
        rate = result["metrics"]["error_rate"]["value"]
        if result["correct"] or rate != 1.0:
            raise SystemExit(f"selftest: corrupted reference not caught on {workload}")
        print(f"selftest: {workload} corrupted reference -> error_rate {rate}", flush=True)
    print("selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--sets", type=int, default=1, metavar="K")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        help="for --report and --steady (default: BENCHMARK.json's)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out = build()
    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    if args.selftest:
        selftest(out)
    elif args.report:
        report(out, spec, seconds, workloads)
    elif args.steady:
        sys.exit(0 if steady(out, spec, args.steady, workloads, seconds, args.sets) else 1)
    elif args.workload:
        result = run_ftbench(out, args.workload, args.seed, seconds, bool(args.trace))
        line = result_line(result, spec, bool(args.trace))
        log(json.dumps(result["info"], sort_keys=True))
        print(json.dumps(line), flush=True)
    else:
        parser.error("give --workload, --report, --steady N or --selftest")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: the instrumentid pipeline end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reduced_train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # all workloads, one process each
    python3 perfbench/run.py --trace 1            # per-layer numbers, all workloads
    python3 perfbench/run.py --repeat 10          # steadiness: seeds 0..9 per workload

One workload run generates its seeded inputs (in a child process, so their
cost stays out of every metric), times the set-up in fresh interpreters,
then repeats the workload's iteration in a closed loop until ``--seconds``
have passed, checking every output. The gated times are CPU times divided
by those of a fixed reference kernel run in the same spells of machine
speed (``reference.py``), which cancels most of a shared machine's drift. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The lines before it list every metric the run
measured, with unit and sample count. Working files live under
``.perfbench-work/`` in the checkout.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("corpus_features", "reduced_train", "table1_step")
SETUP_PROBES = 5  # measured, after one unmeasured warm-up
CHILD_TIMEOUT_S = 600
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(env) -> None:
    """One BLAS thread; must run before NumPy is imported.

    The gated times are CPU seconds. With more threads, OpenBLAS's
    spin-waits add CPU time that grows with contention from other tenants
    of the machine (table1_step read 17% more CPU in a contended hour), so
    the count would no longer be the work done.
    """
    for var in BLAS_THREAD_VARS:
        env[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    pin_blas_threads(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# run header


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Threads OpenBLAS will use, asked from the library NumPy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_header(workload: str, seed: int, inputs: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "?"), blas.get("version", "?")
    except (KeyError, TypeError):
        blas_name = blas_version = "unknown"
    return {
        "workload": workload, "seed": seed, "commit": git_commit(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas_name, "blas_version": blas_version,
        "blas_threads": blas_threads(), "nproc": nproc(),
        "tracks": inputs["tracks"], "clips": inputs["clips"], "wav_bytes": inputs["wav_bytes"],
    }


# --------------------------------------------------------------------------
# metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def end_to_end(its, setup, peak_rss_mb, check) -> dict:
    """name -> (value, unit, samples) over the untraced iterations."""
    from reference import NOMINAL_PASS_S
    med = statistics.median
    mean = statistics.fmean
    reference = [p for it in its for p in it.reference]
    out = {
        # each probe against the reference passes run right after it
        "setup_s": (med(p["setup_s"] / p["reference_cpu_s"] for p in setup)
                    * NOMINAL_PASS_S, "s", len(setup)),
        "setup_cpu_s": (med(p["setup_s"] for p in setup), "s", len(setup)),
        "setup_wall_s": (med(p["setup_wall_s"] for p in setup), "s", len(setup)),
        "wall_s": (med(it.wall_s for it in its), "s", len(its)),
        "cpu_s": (med(it.cpu_s for it in its), "s", len(its)),
        "reference_cpu_s": (mean(reference), "s", len(reference)),
        # each iteration against the passes interleaved with it, which ran
        # in the same spells of machine speed
        "cpu_vs_reference": (med(it.cpu_s / mean(it.reference) for it in its), "ratio", len(its)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_ratio": (check.failed / max(1, check.attempted), "ratio", check.attempted),
    }

    def rate(name, count, phase, unit="clips/s"):
        if all(phase in it.phases for it in its):
            out[name] = (med(it.counts[count] / it.phases[phase] for it in its), unit, len(its))

    rate("prepare_clips_per_s", "clips", "prepare")
    rate("load_clips_per_s", "clips", "load")
    rate("mfcc_clips_per_s", "clips", "features")
    rate("forest_trees_per_s", "forest_trees", "forest_train", "trees/s")
    rate("eval_clips_per_s", "test_clips", "eval")
    if all(it.steps for it in its):
        out["train_clips_per_s"] = (med(it.counts["train_steps_clips"] / sum(it.steps)
                                        for it in its), "clips/s", len(its))
        steps = [s for it in its for s in it.steps]
        if len(steps) >= 100:  # at least ten samples beyond the p90
            out["train_step_ms_p50"] = (1e3 * percentile(steps, 0.5), "ms", len(steps))
            out["train_step_ms_p90"] = (1e3 * percentile(steps, 0.9), "ms", len(steps))
    return out


# Spans whose ``_s`` metric is a self time, as the per-layer map asks.
SELF_TIMED = {"nn.model.forward", "nn.model.backward", "nn.model.sgd_step", "nn.model.init_params"}


def layer_metrics(tracer, costs) -> dict:
    """Per-layer numbers of one traced iteration, as name -> value."""
    out = {}
    for name, entry in tracer.summary().items():
        if name.startswith("nn.layers."):
            continue
        out[f"{name}_calls"] = entry["calls"]
        if name in SELF_TIMED:
            out[f"{name}_s"] = entry["self_s"]
        else:
            out[f"{name}_s"] = entry["total_s"]
            if entry["child_calls"]:
                out[f"{name}_self_s"] = entry["self_s"]
    out["audio.decode_calls"] = out.get("audio.parse_wav_calls", 0)
    out["audio.decoded_mb"] = sum(tracer.details("audio.parse_wav")) / 1e6
    out["nn.checkpoint.bytes_written"] = sum(tracer.details("nn.checkpoint.save_checkpoint"))

    fwd_clips = sum(d[1] for d in tracer.details("nn.model.forward"))
    bwd_clips = sum(tracer.details("nn.model.backward"))
    clips = {"fwd": fwd_clips, "bwd": bwd_clips}
    for (layer, direction), seconds in tracer.layer_seconds().items():
        n = clips[direction]
        if not n or not seconds:
            continue
        out[f"nn.layers.{layer}.{direction}_ms"] = 1e3 * seconds / n
        cost = costs.get(layer)
        if cost is not None:
            flops = cost.fwd_flops if direction == "fwd" else cost.bwd_flops
            out[f"nn.layers.{layer}.{direction}_gflops_per_s"] = flops * n / seconds / 1e9

    steps = out.get("nn.model.sgd_step_calls", 0)
    if steps:
        spans = tracer.spans
        in_step = 0
        for name, _, _, parent, _ in spans:
            if name.startswith("nn.layers.") and parent >= 0:
                pname, pdetail = spans[parent][0], spans[parent][4]
                if pname == "nn.model.backward" or (pname == "nn.model.forward"
                                                    and pdetail[0] == "train"):
                    in_step += 1
        out["nn.layers.calls_per_step"] = in_step / steps
    return out


def unit_of(name: str) -> str:
    for suffix, unit in (("_gflops_per_s", "GFLOP/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("_pct", "%"), ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


# --------------------------------------------------------------------------
# one workload run


def make_inputs(workload: str, seed: int, out: Path, sizes) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if sizes is not None:
        cmd += ["--sizes", json.dumps(sizes.__dict__)]
    subprocess.run(cmd, check=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    return json.loads((out / "inputs.json").read_text())


def time_setup(config_path: Path, network: bool) -> list:
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path),
             "1" if network else "0"],
            check=True, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples[1:]  # the warm-up pays for cold file caches and bytecode compiles


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
                 log=print) -> dict:
    """Run one workload; returns the result object and logs the report lines."""
    import inputs as gen
    import tracer as tr
    import workloads as wl
    from flops import network_costs
    from instrumentid import training
    import reference as ref

    sizes = sizes or gen.SIZES[workload]
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        t0 = time.perf_counter()
        summary = make_inputs(workload, seed, work / "inputs", sizes)
        log(f"# inputs generated in {time.perf_counter() - t0:.2f} s (not measured)")
        header = run_header(workload, seed, summary)
        header.update(mode="traced" if trace else "untraced", seconds=seconds,
                      loop="closed, 1 caller")
        log("# header " + json.dumps(header))

        config_path = work / "inputs" / "run.cfg"
        setup = time_setup(config_path, sizes.nn is not None)
        ctx = wl.Context(sizes, seed, summary["clips_per_track"], config_path)
        cfg = ctx.fresh_config(work / "probe")
        specs, input_length = training.architecture(cfg)
        namer = tr.LayerNamer.from_specs(specs, input_length)
        costs = network_costs(specs, input_length) if sizes.nn else {}

        check = wl.Checker()
        its = {False: [], True: []}
        traced_layers = []
        spans_out = []
        missing = []
        ref.reference_cpu_s()  # warm-up: FFT plans, BLAS buffers
        start = time.perf_counter()
        i = 0
        while True:
            traced = trace and i % 2 == 1
            it = wl.Iteration()
            tracer = tr.Tracer(namer).install() if traced else None
            clock = tr.StepClock().install()
            passes = len(ref.passes)
            if not traced:  # spans must hold the program's time alone
                ref.start()
            t = ref.wall_clock()
            c = ref.cpu_clock()
            try:
                wl.WORKLOADS[workload](ctx, work / "out", check, it)
            except Exception:  # a crashing phase is a failed operation
                check.check(False, traceback.format_exc())
                break
            finally:
                it.wall_s = ref.wall_clock() - t
                it.cpu_s = ref.cpu_clock() - c
                ref.stop()
                clock.uninstall()
                if tracer is not None:
                    tracer.uninstall()
            it.steps = clock.steps
            # an iteration shorter than the timer's period gets a pass after it
            it.reference = ref.passes[passes:] or [ref.reference_cpu_s()]
            its[traced].append(it)
            if len(its[False]) == 1 and not traced:
                # later iterations reuse freed heap, so the peak is taken here
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            if tracer is not None:
                traced_layers.append(layer_metrics(tracer, costs))
                spans_out.append(tracer.spans)
                missing = tracer.missing
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and its[False] and (its[True] or not trace):
                break

        runs = its[False] + its[True]
        if runs:
            first = runs[0].fingerprint
            for n, it in enumerate(runs[1:], 1):
                check.check(it.fingerprint == first,
                            f"iteration {n} fingerprint {it.fingerprint} != first {first}")
        result = {"header": header, "attempted": check.attempted, "failed": check.failed,
                  "problems": check.problems}
        if its[False]:
            e2e = end_to_end(its[False], setup, peak_rss_mb, check)
            result["end_to_end"] = e2e
            result["fingerprint"] = its[False][0].fingerprint
            result["counts"] = its[False][0].counts
            result["phases"] = {
                name: statistics.median(it.phases.get(name, 0.0) for it in its[False])
                for name in its[False][0].phases}
        if traced_layers:
            keys = sorted({k for layer in traced_layers for k in layer})
            per_layer = {k: (statistics.median(layer.get(k, 0) for layer in traced_layers),
                             unit_of(k), len(traced_layers)) for k in keys}
            if its[False]:
                traced_wall, plain_wall = (statistics.median(it.wall_s for it in its[flag])
                                           for flag in (True, False))
                per_layer["trace_overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0),
                                                   "%", len(its[True]))
            result["per_layer"] = per_layer
            result["untraced_points"] = missing
            trace_file = WORK / f"trace-{workload}-seed{seed}.json"
            trace_file.write_text(json.dumps({"header": header, "spans": spans_out}))
            log(f"# spans of {len(spans_out)} traced iterations written to {trace_file}")
        report(result, costs, log)
        return result
    finally:
        if work.exists():
            shutil.rmtree(work)


def report(result: dict, costs: dict, log) -> None:
    for section in ("end_to_end", "per_layer"):
        for name, (value, unit, n) in sorted(result.get(section, {}).items()):
            log(f"{section:10s} {name:48s} {value:16.6f} {unit:8s} n={n}")
    phases = result.get("phases", {}).items()
    log("# phases, median s: " + " ".join(f"{k}={v:.4f}" for k, v in phases))
    counts = result.get("counts", {})
    if "forest_rows" in counts:
        log(f"# forest_trees_per_s: trees x labels at {counts['forest_rows']} rows x "
            f"{counts['feature_dims']} dims")
    for cost in costs.values():
        log(f"# computed {cost.name}: fwd {cost.fwd_flops} FLOP {cost.fwd_bytes} B, "
            f"bwd {cost.bwd_flops} FLOP {cost.bwd_bytes} B per clip")
    if result.get("untraced_points"):
        log("# not traced (attribute missing): " + ", ".join(result["untraced_points"]))
    log("# fingerprint " + json.dumps(result.get("fingerprint", {})))
    log(f"# checks attempted={result['attempted']} failed={result['failed']}")
    for problem in result["problems"]:
        log("# FAILED " + problem.strip().replace("\n", "\n#   "))


def result_line(result: dict, trace: bool, spec: dict) -> dict:
    """The last output line: the run's BENCHMARK.json metrics and check counts."""
    section = "per_layer" if trace else "end_to_end"
    measured = result.get(section, {})
    metrics = {}
    for entry in spec[section]:
        if entry["name"] in measured:
            value = measured[entry["name"]][0]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = result["failed"] == 0 and len(metrics) == len(spec[section])
    return {"correct": correct, "attempted": max(1, result["attempted"]),
            "failed": result["failed"], "metrics": metrics}


# --------------------------------------------------------------------------
# several workloads, one child process each


def run_children(workloads, seeds, seconds: float, trace: bool, spec: dict) -> int:
    results = {}
    ok = True
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                                  env=child_env())
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            sys.stderr.write(done.stderr)
            try:
                line = json.loads(lines[-1])
            except (IndexError, ValueError):
                line = {"correct": False, "metrics": {}}
            ok = ok and done.returncode == 0 and line["correct"]
            results.setdefault(workload, []).append(line)
            print(f"# {workload} seed={seed} exit={done.returncode} " + json.dumps(line),
                  flush=True)
    if len(seeds) > 1:
        print(steadiness(results, trace, spec))
    print(json.dumps({"correct": ok, "results": results}))
    return 0 if ok else 1


def steadiness(results: dict, trace: bool, spec: dict) -> str:
    """Quartile spread of each metric over the runs, as a share of the median."""
    section = "per_layer" if trace else "end_to_end"
    bounds = {e["name"]: e.get("bound") for e in spec[section]}
    lines = ["# steadiness: (q3 - q1) / median over seeds; ok if below bound / 3"]
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "" if bound is None else ("ok" if spread < bound / 3 else
                                                 "WITHIN BOUND" if spread <= bound else "TOO WIDE")
            lines.append(f"{workload:16s} {name:48s} median={med:.6g} spread={spread:.4f} "
                         f"bound={bound} {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with seeds seed .. seed+repeat-1")
    args = parser.parse_args(argv)

    if not (SRC / "instrumentid" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'instrumentid'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload == "all" or args.repeat > 1:
        workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        seeds = list(range(args.seed, args.seed + args.repeat))
        return run_children(workloads, seeds, seconds, bool(args.trace), spec)

    pin_blas_threads(os.environ)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    line = result_line(result, bool(args.trace), spec)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

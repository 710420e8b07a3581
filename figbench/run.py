#!/usr/bin/env python3
"""Figure-sweep benchmark: times real Fig. 1-2 / Fig. 3-4 sweeps end to end
and splits them by layer with a traced re-enactment.

    python3 figbench/run.py --workload nmm-warm-mt --seed 42 --seconds 30 --trace 0

Builds figbench/ (Release) into .bench_build/figbench on first use, fills the
workload's trace store, runs its sweeps for --seconds after one untimed
warm-up sweep, checks every result, prints each metric by name and unit, and
ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See figbench/README.md for the workloads, metrics and measured spreads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "figbench"
RUNS = ROOT / ".bench_build" / "figbench-run"
GOLDEN = HERE / "golden" / "seed42.json"

SCALE = 128
NPROC = len(os.sched_getaffinity(0))
# Timed sweeps run on half the cores, at most 4: on a small shared host a
# sweep on every core also measures the scheduler and the harness.
MT = max(1, min(NPROC // 2, 4))
FILL_THREADS = min(NPROC, 4)  # the store fill in set-up is not timed as a sweep
SETUPS = 3  # store fills per run; setup_s is their median
WARMUP_SWEEPS = 1  # untimed sweeps before a run's timed ones, in the same process
CALL_TIMEOUT_S = 150  # beyond --seconds: a hung figbench process is killed

# Both workloads sweep against a store filled in set-up. `trace_fill`: the
# traced run re-enacts the store fill too (capture, store append, checkpoint
# append), so the capture layers are split out on one workload.
WORKLOADS = {
    "nmm-warm-mt": {"family": "nmm", "sampling": "full", "trace_fill": True},
    "4lc-simpoint-warm-mt": {"family": "4lc", "sampling": "simpoint",
                             "trace_fill": False},
}
OTHER_MODE = {"full": "simpoint", "simpoint": "full"}

# A traced run is valid only when its spans cover its wall time and its
# cost stays comparable to the untraced 1-thread sweep.
COVERAGE_BOUNDS = (0.95, 1.0001)
OVERHEAD_BOUNDS = (0.5, 2.5)

END_TO_END = [("sweep_s", "s"), ("cpu_s", "s"), ("setup_s", "s")]
PER_LAYER = [
    ("workloads.gen_s", "s"), ("workloads.refs", "count"),
    ("capture.s", "s"), ("capture.front_refs_per_s", "1/s"),
    ("trace.encode_s", "s"), ("cache.front_s", "s"),
    ("trace.store_append_s", "s"), ("checkpoint.append_s", "s"),
    ("checkpoint.appends", "count"),
    ("trace.store_load_s", "s"), ("trace.store_hits", "count"),
    ("trace.store_misses", "count"), ("trace.store_mb", "MB"),
    ("trace.residual_refs", "count"), ("trace.encoded_mb", "MB"),
    ("trace.bytes_per_ref", "B"), ("trace.decode_s", "s"),
    ("replay.base_s", "s"), ("replay.grid_s", "s"),
    ("replay.grid_refs_per_s", "1/s"), ("cache.back_s", "s"),
    ("designs.back_build_s", "s"),
    ("sampling.plan_s", "s"), ("sampling.reps", "count"),
    ("sampling.replayed_share", "ratio"), ("sampling.err_pct", "%"),
    ("model.eval_s", "s"), ("model.evals", "count"),
    ("replay.parallel_eff", "ratio"),
    ("cache.back_miss_rate", "ratio"), ("mem.nvm_write_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("traced.wall_s", "s"), ("traced.coverage", "ratio"),
    ("traced.overhead", "ratio"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The benchmark measures library defaults: ambient HMS_* knobs go."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HMS_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("simulator sources (src/) not found next to figbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "figbench", "-j", str(NPROC)],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=clean_env())
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return BUILD / "figbench"


def figbench_lines(binary, *args, seconds=0):
    """Every JSON line a figbench command prints."""
    timeout = CALL_TIMEOUT_S + seconds
    try:
        proc = subprocess.run([str(binary), *map(str, args)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=clean_env(),
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"figbench {args[0]} timed out after {timeout:g} s")
    if proc.returncode != 0:
        raise BenchError(f"figbench {args[0]} failed: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def figbench(binary, *args):
    return figbench_lines(binary, *args)[-1]


def provenance(binary):
    info = figbench(binary, "provenance")
    if info["build_type"] != "Release":
        raise BenchError(f"refusing to measure a {info['build_type']} build")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": info["compiler"], "build_type": info["build_type"],
            "commit": commit}


# -- Results and their checks ----------------------------------------------

def cells_of(sweeps):
    """{(label, config, kernel): (values, spread)} of a figbench result."""
    out = {}
    for sweep in sweeps:
        for cfg in sweep["configs"]:
            for kernel, values in cfg["cells"].items():
                out[(sweep["label"], cfg["name"], kernel)] = (
                    values, cfg["spreads"][kernel])
    return out


def suites_of(sweeps):
    return {(s["label"], c["name"]): (c["suite"], c["suite_spread"])
            for s in sweeps for c in s["configs"]}


def degraded_cells(sweeps):
    """Cells a sweep failed: listed failures, or kernels missing from a row."""
    bad = set()
    for sweep in sweeps:
        for cfg in sweep["configs"]:
            for failure in cfg["failures"]:
                bad.add((sweep["label"], cfg["name"], failure.split(":", 1)[0]))
    return bad


def golden_cells(golden, mode, seed, scale, sweeps):
    """The golden cells for these sweeps, or None when no golden applies."""
    suite = list(sweeps[0]["configs"][0]["cells"])
    if golden is None or golden["seed"] != seed or golden["scale"] != scale \
            or golden["suite"] != suite:
        return None
    labels = {s["label"] for s in sweeps}
    return {(label, cfg, kernel): values
            for label, modes in golden["sweeps"].items() if label in labels
            for cfg, kernels in modes[mode].items()
            for kernel, values in kernels.items()}


def check_against(cells, reference, compare_spread):
    """Cell keys of `cells` whose values differ from `reference` (bitwise)."""
    bad = set()
    for key, (values, spread) in cells.items():
        ref = reference.get(key)
        if ref is None:
            bad.add(key)
        elif compare_spread:
            if ref != (values, spread):
                bad.add(key)
        elif ref != values:
            bad.add(key)
    return bad


def sample_err_pct(sampled_sweeps, exact_sweeps):
    """Worst |sampled - exact| / exact over configs, suite runtime and energy."""
    exact = suites_of(exact_sweeps)
    worst = 0.0
    for key, (values, _) in suites_of(sampled_sweeps).items():
        for i in (0, 3):  # norm-runtime, norm-energy
            worst = max(worst, abs(values[i] - exact[key][0][i]) / exact[key][0][i])
    return 100.0 * worst


# -- One run -----------------------------------------------------------------

def common_args(w, seed, scale, suite, sampling=None):
    args = ["--family", w["family"], "--sampling", sampling or w["sampling"],
            "--seed", seed, "--scale", scale]
    if suite:
        args += ["--suite", ",".join(suite)]
    return args


def run_workload(binary, name, seed, seconds, trace, scale, suite, golden):
    w = WORKLOADS[name]
    run_dir = RUNS / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    store = run_dir / "store"
    base = common_args(w, seed, scale, suite)

    # Set-up: the store is filled from empty SETUPS times.
    prefills = [figbench(binary, "prefill", *base, "--threads", FILL_THREADS,
                         "--store", store)["prefill_s"] for _ in range(SETUPS)]

    # One process sweeps: WARMUP_SWEEPS untimed, then timed sweeps while
    # less than `seconds` have passed.
    lines = figbench_lines(binary, "sweep", *base, "--threads", MT, "--store", store,
                           "--warmup", WARMUP_SWEEPS, "--seconds", seconds,
                           seconds=seconds)
    records = [r for r in lines if not r["warmup"]]
    if not records:
        raise BenchError("the sweep process made no timed sweep")

    if trace:
        # One sweep on 1 thread in a fresh process: its peak RSS, and the
        # comparator of the serial re-enactment on a warm store.
        single = figbench(binary, "sweep", *base, "--threads", 1, "--store", store)
        lines.append(single)

    samples = {k: [r[k] for r in records] for k in ("sweep_s", "cpu_s")}
    # Set-up is a store fill plus the sweep process's own set-up.
    samples["setup_s"] = [p + records[0]["setup_s"] for p in prefills]
    e2e = {k: statistics.median(v) for k, v in samples.items()}
    sweep_s = e2e["sweep_s"]

    # Checks: every timed cell must be present, equal in every sweep of the
    # run, equal to the golden (seed 42), and equal to a serial re-enactment.
    first = cells_of(records[0]["sweeps"])
    gold = golden_cells(golden, w["sampling"], seed, scale, records[0]["sweeps"])
    failed = 0
    problems = []
    if trace:
        trace_args = [*base, "--store", store]
        if w["trace_fill"]:
            trace_args = [*base, "--store", run_dir / "trace-store", "--cold",
                          "--reference-store", store, "--checkpoint",
                          run_dir / "trace.ckpt"]
        traced = figbench(binary, "trace", *trace_args)
        problems += traced["errors"]
    else:
        # Spot check on one config chosen by the seed, all kernels.
        n_configs = len(records[0]["sweeps"][0]["configs"])
        traced = figbench(binary, "trace", *base, "--store", store, "--configs",
                          seed % n_configs)
        problems += traced["errors"]
    reenacted = cells_of(traced["sweeps"])
    swept = suites_of(records[0]["sweeps"])
    if any(swept.get(k) != v for k, v in suites_of(traced["sweeps"]).items()):
        problems.append("re-enacted suite means differ from the sweep")

    attempted = 0
    for r in lines:  # warm-up and 1-thread sweeps are checked too
        cells = cells_of(r["sweeps"])
        expected = set(first) | set(reenacted) | set(gold or {})
        bad = degraded_cells(r["sweeps"]) | (expected - set(cells))
        bad |= check_against(cells, first, True)
        if gold is not None:
            bad |= check_against(cells, gold, False)
        bad |= {k for k in reenacted if k in cells and cells[k] != reenacted[k]}
        attempted += len(expected)
        failed += len(bad)
        if bad:
            problems.append(f"{len(bad)} failed cells, e.g. {sorted(bad)[0]}")

    if not trace:
        return {"correct": failed == 0 and not problems, "attempted": attempted,
                "failed": failed, "metrics": e2e, "samples": samples,
                "problems": problems}

    # Companion sweep in the other sampling mode, for sampling.err_pct.
    companion_mode = OTHER_MODE[w["sampling"]]
    companion = figbench(binary, "sweep",
                         *common_args(w, seed, scale, suite, companion_mode),
                         "--threads", MT, "--store", store)
    if degraded_cells(companion["sweeps"]):
        problems.append("companion sweep degraded")
    companion_gold = golden_cells(golden, companion_mode, seed, scale,
                                  companion["sweeps"])
    if companion_gold is not None and check_against(
            cells_of(companion["sweeps"]), companion_gold, False):
        problems.append("companion sweep differs from the golden")
    sampled, exact = ((records[0]["sweeps"], companion["sweeps"])
                      if w["sampling"] == "simpoint"
                      else (companion["sweeps"], records[0]["sweeps"]))

    # The traced run is serial; its comparator is an untraced 1-thread sweep
    # that does the same work: with the store fill, a sweep from an empty
    # store that checkpoints, which must also give the warm sweep's cells.
    if w["trace_fill"]:
        comparator = figbench(binary, "sweep", *base, "--threads", 1, "--store",
                              run_dir / "cold-store", "--cold", "--checkpoint",
                              run_dir / "cold.ckpt")
        if degraded_cells(comparator["sweeps"]) or check_against(
                cells_of(comparator["sweeps"]), first, True):
            problems.append("sweep from an empty store differs from the warm sweep")
    else:
        comparator = single
    untraced_1t = comparator["sweep_s"]

    ph, c = traced["phases"], traced["counts"]
    phase_sum, wall = traced["phase_sum_s"], traced["wall_s"]
    # The traced phases the timed sweep also runs: not the store fill, and
    # not the checkpoint appends (the timed sweep keeps no checkpoint).
    fill_s = (ph["gen_s"] + ph["capture_s"] + ph["encode_s"]
              + ph["store_append_s"] + ph["checkpoint_s"])
    coverage = phase_sum / wall
    overhead = wall / untraced_1t
    if not COVERAGE_BOUNDS[0] <= coverage <= COVERAGE_BOUNDS[1]:
        problems.append(f"traced.coverage {coverage:.4f} outside {COVERAGE_BOUNDS}")
    if not OVERHEAD_BOUNDS[0] <= overhead <= OVERHEAD_BOUNDS[1]:
        problems.append(f"traced.overhead {overhead:.4f} outside {OVERHEAD_BOUNDS}")

    def ratio(a, b):
        return a / b if b else 0.0

    layer = {
        "workloads.gen_s": ph["gen_s"],
        "workloads.refs": c["refs"],
        "capture.s": ph["capture_s"],
        "capture.front_refs_per_s": ratio(c["refs"], ph["capture_s"]),
        "trace.encode_s": ph["encode_s"],
        "cache.front_s": (ph["capture_s"] - ph["gen_s"] - ph["encode_s"]
                          if ph["capture_s"] else 0.0),
        "trace.store_append_s": ph["store_append_s"],
        "checkpoint.append_s": ph["checkpoint_s"],
        "checkpoint.appends": c["appends"],
        "trace.store_load_s": ph["store_load_s"],
        "trace.store_hits": c["store_hits"],
        "trace.store_misses": c["store_misses"],
        "trace.store_mb": c["store_bytes"] / 1e6,
        "trace.residual_refs": c["residual_refs"],
        "trace.encoded_mb": c["encoded_bytes"] / 1e6,
        "trace.bytes_per_ref": ratio(c["encoded_bytes"], c["residual_refs"]),
        "trace.decode_s": ph["decode_s"],
        "replay.base_s": ph["base_s"],
        "replay.grid_s": ph["grid_s"],
        "replay.grid_refs_per_s": ratio(c["grid_refs"], ph["grid_s"]),
        "cache.back_s": ph["grid_s"] - ph["grid_decode_s"],
        "designs.back_build_s": ph["back_build_s"],
        "sampling.plan_s": ph["plan_s"],
        "sampling.reps": c["plan_reps"],
        "sampling.replayed_share": ratio(c["replayed_accesses"], c["total_accesses"]),
        "sampling.err_pct": sample_err_pct(sampled, exact),
        "model.eval_s": ph["model_s"],
        "model.evals": c["evals"],
        "replay.parallel_eff": (phase_sum - fill_s) / (MT * sweep_s),
        "cache.back_miss_rate": ratio(c["back_misses"],
                                      c["back_hits"] + c["back_misses"]),
        "mem.nvm_write_mb": c["nvm_write_bytes"] / 1e6,
        "peak_rss_mb": single["peak_rss_mb"],
        "traced.wall_s": wall,
        "traced.coverage": coverage,
        "traced.overhead": overhead,
    }
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": layer, "problems": problems}


def write_golden(binary, path, seed, scale, suite):
    """Exact and SimPoint per-cell values of both figure families."""
    store = RUNS / "golden-store"
    golden = {"seed": seed, "scale": scale, "suite": None, "sweeps": {}}
    for family in ("nmm", "4lc"):
        w = {"family": family}
        figbench(binary, "prefill", *common_args(w, seed, scale, suite, "full"),
                 "--threads", MT, "--store", store)
        for mode in ("full", "simpoint"):
            result = figbench(binary, "sweep",
                              *common_args(w, seed, scale, suite, mode),
                              "--threads", MT, "--store", store)
            if degraded_cells(result["sweeps"]):
                raise BenchError(f"{family}/{mode} sweep degraded")
            for sweep in result["sweeps"]:
                modes = golden["sweeps"].setdefault(sweep["label"], {})
                modes[mode] = {cfg["name"]: cfg["cells"] for cfg in sweep["configs"]}
                golden["suite"] = list(sweep["configs"][0]["cells"])
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(golden, indent=1) + "\n")
    shutil.rmtree(store, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=SCALE,
                    help="capacity and footprint divisor (smoke tests only)")
    ap.add_argument("--suite", default="",
                    help="comma-separated kernels (smoke tests only)")
    ap.add_argument("--golden", default=str(GOLDEN))
    ap.add_argument("--write-golden", metavar="PATH",
                    help="regenerate the golden file for --seed/--scale/--suite")
    args = ap.parse_args(argv)
    suite = [s for s in args.suite.split(",") if s]

    try:
        binary = build()
        prov = provenance(binary)
        if args.write_golden:
            write_golden(binary, args.write_golden, args.seed, args.scale, suite)
            return 0
        if not args.workload:
            raise BenchError("--workload is required")
        golden = json.loads(Path(args.golden).read_text()) \
            if Path(args.golden).exists() else None
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace, args.scale, suite, golden)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"figbench: {e}")
        return 1

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"workload {args.workload}: seed {args.seed}, scale 1/{args.scale}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for key in ("cpu", "nproc", "compiler", "build_type", "commit"):
        print(f"  {key}: {prov[key]}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  cells = {result['attempted']}, cells_failed = {result['failed']}")
    for name, unit in units.items():
        line = f"  {name} = {result['metrics'][name]:.6g} {unit}"
        if name in result.get("samples", {}):
            v = result["samples"][name]
            line += f" (median of {len(v)}: min {min(v):.6g}, max {max(v):.6g})"
        print(line)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

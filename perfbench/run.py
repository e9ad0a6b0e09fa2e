"""Benchmark of the fishburn package: how long a user waits for a verdict.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each unit of work runs in a fresh interpreter, one at a time,
against a private FISHBURN_CACHE under .perfbench/ in the checkout):

  tables_cold    the eight table-building checks at their default scales on
                 an empty cache: what every first run costs, and every run
                 after an edit to seqcore or stats (the cache key hashes them)
  verify_warm    the full `fishburn check --seed N` through cli.main, on a
                 copy of a cache that this run fills once with the same code:
                 the everyday re-verification path; every table is a hit
  series_points  gf_G, gf_zeromax, gf_asczero and case_identities at four
                 consecutive seeds derived from N, on a warm cache: the
                 exact series arithmetic at fresh rational points

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, medians over the units started within --seconds (at least one):
wall_s and cpu_s of the measured phase, peak_rss_mb of the unit's process,
and setup_s (interpreter start, import and cache-directory preparation),
taken over five set-up-only interpreters as well.  `failed` out of
`attempted` counts checks that failed, raised, missed the cache on a warm
workload or reported other content than the run's first unit.
With --trace 1 one unit runs untraced and one traced (see tracer.py), and the
line holds the per-layer metrics.  The line before it holds the details:
environment, load average before and after, per-unit and per-check seconds,
the spot-check pick and, when traced, every traced function and span.

`--scale toy` shrinks every check (max_n=5, order=5, points=2) for the smoke
test in test_smoke.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

CHECKS = ("conjecture1", "upsilon_quadruple", "psi_setvalued",
          "phi_setvalued", "zeromax_sym", "main3", "t_main3", "foata",
          "inv_sym", "lehmer_quadruple", "gf_G", "gf_zeromax", "gf_asczero",
          "case_identities", "lemma_suite", "class_counts")
TABLE_CHECKS = ("conjecture1", "zeromax_sym", "main3", "t_main3", "foata",
                "inv_sym", "gf_G", "gf_zeromax")
SERIES_CHECKS = ("gf_G", "gf_zeromax", "gf_asczero", "case_identities")
CLASSES = ("ASC", "T21", "INV", "PERM_ALL", "PERM_AVOID_A", "PERM_AVOID_B",
           "B", "C")
LAYERS = tuple(TRACED)
MARKERS = TRACED["stats"][3:]

SETUP_PROBES = 5        # set-up-only interpreters per run, for setup_s
SERIES_SEEDS = {"full": 4, "toy": 2}
TOY = {"max_n": 5, "order": 5, "points": 2}
CHILD_TIMEOUT_S = 170

# layers that must record calls in a traced run of each workload
REQUIRED_LAYERS = {
    "tables_cold": ("seqcore", "stats", "harness"),
    "verify_warm": LAYERS,
    "series_points": ("genfun", "harness"),
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("seqcore.enumerate_class.busy_s", "s", "lower"),
            ("seqcore.enumerate_class.self_s", "s", "lower")]
    spec += [(f"seqcore.enumerate_class.{c}.objects", "count", "lower")
             for c in CLASSES]
    spec += [(f"seqcore.enumerate_class.{c}.busy_s", "s", "lower")
             for c in CLASSES[:6]]
    spec += [("seqcore.perm_avoid.tests", "count", "lower"),
             ("seqcore.perm_avoid.kept_ratio", "ratio", "higher")]
    for fn in ("scalar_stats", "set_stats", "perm_stats", "markers"):
        spec += [(f"stats.{fn}.calls", "count", "lower"),
                 (f"stats.{fn}.busy_s", "s", "lower"),
                 (f"stats.{fn}.self_s", "s", "lower")]
    for fn in TRACED["bijections"]:
        spec += [(f"bijections.{fn}.calls", "count", "lower"),
                 (f"bijections.{fn}.self_s", "s", "lower")]
    spec += [(f"bijections.{fn}.busy_s", "s", "lower")
             for fn in ("psi", "psi_inv", "phi", "phi_inv", "upsilon")]
    spec += [("decomp.classify.calls", "count", "lower"),
             ("decomp.classify.busy_s", "s", "lower"),
             ("decomp.classify.self_s", "s", "lower")]
    spec += [(f"decomp.{fn}.busy_s", "s", "lower")
             for fn in TRACED["decomp"][1:]]
    for fn in ("mul", "inverse", "truediv"):
        spec += [(f"genfun.TruncSeries.{fn}.calls", "count", "lower"),
                 (f"genfun.TruncSeries.{fn}.busy_s", "s", "lower"),
                 (f"genfun.TruncSeries.{fn}.self_s", "s", "lower")]
    spec += [(f"genfun.{fn}.busy_s", "s", "lower")
             for fn in ("series_G", "series_zeromax", "series_asczero",
                        "eval_gf", "check_case_identity")]
    spec += [("harness.dist_table.hits", "count", "higher"),
             ("harness.dist_table.misses", "count", "lower"),
             ("harness.dist_table.hit_s", "s", "lower"),
             ("harness.dist_table.miss_s", "s", "lower"),
             ("harness.dist_table.hit_ratio", "ratio", "higher"),
             ("harness.cache.bytes", "B", "lower"),
             ("harness.cache.files", "count", "lower")]
    spec += [(f"harness.run_check.{c}.s", "s", "lower") for c in CHECKS]
    spec += [("harness.spot_check.s", "s", "lower"),
             ("cli.overhead_s", "s", "lower"),
             ("trace_overhead_s", "s", "lower")]
    spec += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    return spec


PER_LAYER = _per_layer_spec()


# --- workloads -------------------------------------------------------------


def _params(name, seed, scale):
    params = {"seed": seed} if name in SERIES_CHECKS else {}
    if scale == "toy":
        if name in SERIES_CHECKS:
            params.update(order=TOY["order"], points=TOY["points"])
        else:
            params["max_n"] = TOY["max_n"]
        if name == "gf_G":
            params["sym_order"] = TOY["order"] + 1
    return params


def _unit(checks=(), argv=(), expect_empty=False):
    return {"checks": list(checks), "argv": list(argv),
            "expect_empty": expect_empty}


def workload(name, seed, scale):
    """(fill, unit): the work that fills the source cache (or None) and the
    unit of work that is measured."""
    tables = [(c, _params(c, seed, scale)) for c in TABLE_CHECKS]
    if name == "tables_cold":
        return None, _unit(checks=tables, expect_empty=True)
    if name == "verify_warm":
        argv = ["check", "--seed", str(seed)]
        if scale == "toy":
            argv += ["--max-n", str(TOY["max_n"]), "--order",
                     str(TOY["order"]), "--points", str(TOY["points"])]
        return _unit(checks=tables, expect_empty=True), _unit(argv=argv)
    if name == "series_points":
        count = SERIES_SEEDS[scale]
        seeds = [count * seed + i for i in range(count)]
        fill = [(c, _params(c, seeds[0], scale)) for c in SERIES_CHECKS[:2]]
        work = [(c, _params(c, s, scale)) for s in seeds
                for c in SERIES_CHECKS]
        return _unit(checks=fill, expect_empty=True), _unit(checks=work)
    raise ValueError(name)


# --- running units -----------------------------------------------------------


class Runner:
    """Spawns worker interpreters inside one private scratch directory."""

    def __init__(self, root, scratch, deadline):
        # a fixed hash seed keeps set and dict orders, and so the work done,
        # the same from one interpreter to the next
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        self.env.pop("FISHBURN_CACHE", None)
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0

    def spawn(self, unit=None, cache_src=None, trace=False, cache=None):
        self.count += 1
        tag = f"u{self.count}"
        cache = cache or os.path.join(self.scratch, tag)
        spec = dict(unit or _unit(), cache=cache, cache_src=cache_src,
                    trace=trace, out=os.path.join(self.scratch, tag + ".json"))
        spec_path = os.path.join(self.scratch, tag + ".spec.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        env = dict(self.env, FISHBURN_CACHE=cache)
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, WORKER, spec_path], env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        with open(spec["out"]) as handle:
            result = json.load(handle)
        result["setup_s"] = result["ready"] - spawned
        if unit is None:
            shutil.rmtree(cache)
        return result


def _failures(result, reference, warm):
    """Failed checks of one unit, at most its number of checks: non-pass
    verdicts, errors, cache misses on a warm cache, a non-zero exit code
    and differences from the reference unit's reports."""
    failed = sum(r["verdict"] != "pass" for r in result["reports"])
    failed += len(result["errors"])
    if warm:
        failed += len(result["new_files"])
    elif not result["cache_files"]:
        failed += 1
    if result["exit_code"] not in (None, 0):
        failed = max(failed, 1)
    if reference is not None:
        mine, theirs = result["reports"], reference["reports"]
        failed += sum(a != b for a, b in zip(mine, theirs))
        failed += abs(len(mine) - len(theirs))
        if not warm and result["cache_digest"] != reference["cache_digest"]:
            failed += 1
    return min(failed, _attempted(result))


def _attempted(result):
    return max(1, len(result["reports"]))


# --- metrics -----------------------------------------------------------------


def end_to_end(setups, units):
    med = statistics.median
    values = {"wall_s": med(u["wall_s"] for u in units),
              "cpu_s": med(u["cpu_s"] for u in units),
              "setup_s": med(r["setup_s"] for r in setups + units),
              "peak_rss_mb": med(u["rss_mb"] for u in units)}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(traced, untraced):
    trace = traced["trace"]
    funcs, counts = trace["functions"], trace["counts"]

    def get(name, field):
        return funcs.get(name, {}).get(field, 0)

    def total(prefix, field):
        return sum(v[field] for k, v in funcs.items() if k.startswith(prefix))

    enum = "seqcore.enumerate_class"
    out = {f"{enum}.busy_s": total(enum, "busy_s"),
           f"{enum}.self_s": total(enum, "self_s")}
    for c in CLASSES:
        out[f"{enum}.{c}.objects"] = counts.get(f"{enum}.{c}.objects", 0)
        out[f"{enum}.{c}.busy_s"] = get(f"{enum}.{c}", "busy_s")
    tests = counts.get("seqcore.perm_avoid.tests", 0)
    kept = sum(counts.get(f"{enum}.{c}.objects", 0)
               for c in ("PERM_AVOID_A", "PERM_AVOID_B"))
    out["seqcore.perm_avoid.tests"] = tests
    out["seqcore.perm_avoid.kept_ratio"] = kept / tests if tests else 0.0
    for fn in ("scalar_stats", "set_stats", "perm_stats"):
        for field in ("calls", "busy_s", "self_s"):
            out[f"stats.{fn}.{field}"] = get(f"stats.{fn}", field)
    for field in ("calls", "busy_s", "self_s"):
        out[f"stats.markers.{field}"] = sum(get(f"stats.{m}", field)
                                            for m in MARKERS)
    for name in funcs:
        if name.partition(".")[0] in ("bijections", "decomp", "genfun"):
            for field in ("calls", "busy_s", "self_s"):
                out[f"{name}.{field}"] = get(name, field)
    hits = counts.get("harness.dist_table.hit_count", 0)
    misses = counts.get("harness.dist_table.miss_count", 0)
    out.update({"harness.dist_table.hits": hits,
                "harness.dist_table.misses": misses,
                "harness.dist_table.hit_s":
                    counts.get("harness.dist_table.hit_s", 0.0),
                "harness.dist_table.miss_s":
                    counts.get("harness.dist_table.miss_s", 0.0),
                "harness.dist_table.hit_ratio":
                    hits / (hits + misses) if hits + misses else 0.0,
                "harness.cache.bytes": traced["cache_bytes"],
                "harness.cache.files": traced["cache_files"]})
    for c in CHECKS:
        out[f"harness.run_check.{c}.s"] = get(f"harness.run_check.{c}",
                                              "busy_s")
    out["harness.spot_check.s"] = get("harness.spot_check_cache", "busy_s")
    main_s = get("cli.main", "busy_s")
    out["cli.overhead_s"] = (main_s - total("harness.run_check.", "busy_s")
                             if main_s else 0.0)
    out["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total(layer + ".", "self_s")
    return {name: {"value": out.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER}


def _layer_calls(trace):
    calls = dict.fromkeys(LAYERS, 0)
    for name, rec in trace["functions"].items():
        layer = name.partition(".")[0]
        if layer in calls:
            calls[layer] += rec["calls"]
    return calls


def _spot_check(unit):
    for report, seconds in zip(unit["reports"], unit["report_seconds"]):
        if report["name"] == "cache_spotcheck":
            return {"file": report["parameters"]["file"], "s": seconds}
    return None


# --- main --------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(REQUIRED_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    return parser.parse_args(argv)


def run(args, root):
    fill, unit = workload(args.workload, args.seed, args.scale)
    warm = fill is not None
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    runner = Runner(root, scratch, time.monotonic() + CHILD_TIMEOUT_S)
    detail = {"workload": args.workload, "seed": args.seed,
              "scale": args.scale, "python": platform.python_version(),
              "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)),
              "loadavg_before": os.getloadavg()}
    try:
        source, filled = None, []
        if warm:
            source = os.path.join(scratch, "filled")
            filled = [runner.spawn(fill, cache=source)]
            detail["fill_s"] = filled[0]["wall_s"]
        if args.trace:
            setups = []
            units = [runner.spawn(unit, source),
                     runner.spawn(unit, source, trace=True)]
        else:
            setups = [runner.spawn(None, source) for _ in range(SETUP_PROBES)]
            stop = time.monotonic() + args.seconds
            units = [runner.spawn(unit, source)]
            while time.monotonic() < stop:
                units.append(runner.spawn(unit, source))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not os.listdir(base):
            os.rmdir(base)

    attempted = sum(_attempted(u) for u in filled + units)
    failed = sum(_failures(u, None, False) for u in filled)
    failed += sum(_failures(u, units[0] if i else None, warm)
                  for i, u in enumerate(units))
    detail["loadavg_after"] = os.getloadavg()
    detail["units"] = [dict({k: u.get(k) for k in (
        "setup_s", "wall_s", "cpu_s", "rss_mb", "cache_files", "errors")},
        check_s=u["report_seconds"]) for u in units]
    detail["setup_probes_s"] = [r["setup_s"] for r in setups]
    if args.workload == "verify_warm":
        detail["spot_check"] = [_spot_check(u) for u in units]
    if args.trace:
        untraced, traced = units
        calls = _layer_calls(traced["trace"])
        idle = [layer for layer in REQUIRED_LAYERS[args.workload]
                if not calls[layer]]
        if idle:
            failed += len(idle)
            detail["idle_layers"] = idle
        detail["layer_calls"] = calls
        detail["trace"] = traced["trace"]
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(setups, units)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fishburn", "harness.py")):
        print("error: run from the root of a fishburn checkout "
              "(src/fishburn not found)", file=sys.stderr)
        return 2
    try:
        result, detail = run(args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

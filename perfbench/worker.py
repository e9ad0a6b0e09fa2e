"""One measured unit of a benchmark workload, run in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the cache directory to prepare, the work
to do and where to write the result.  A fresh process per unit keeps
per-process caches such as genfun._case_profiles from leaking between units.
Set-up ends once the package is imported and the cache directory is ready;
the measured phase is the work alone.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so it compares with the parent's clock
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _listing(path) -> dict:
    return {entry.name: entry.stat().st_size for entry in os.scandir(path)}


def _digest(path) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _strip(report: dict) -> dict:
    """The part of a check report that must not vary between runs."""
    return {k: v for k, v in report.items() if k != "seconds"}


def _run_checks(harness, checks, result):
    for name, params in checks:
        try:
            report = harness.run_check(name, **params).as_dict()
        except Exception:
            result["errors"].append(f"{name}: {traceback.format_exc()}")
            report = {"name": name, "parameters": params,
                      "verdict": "error", "counterexample": None,
                      "seconds": 0.0}
        result["reports"].append(_strip(report))
        result["report_seconds"].append(report["seconds"])


def _run_cli(cli, argv, result):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            result["exit_code"] = cli.main(argv)
        reports = json.loads(out.getvalue())
    except Exception:
        result["errors"].append(f"cli {argv}: {traceback.format_exc()}")
        return
    for report in reports:
        result["reports"].append(_strip(report))
        result["report_seconds"].append(report["seconds"])


def main(spec_path) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    from fishburn import cli, harness  # noqa: F401  (import is set-up)

    cache = spec["cache"]
    if spec["cache_src"]:
        shutil.copytree(spec["cache_src"], cache)
    else:
        os.makedirs(cache)
    result = {"ready": _now(), "reports": [], "report_seconds": [],
              "errors": [], "exit_code": None}
    if spec["checks"] or spec["argv"]:
        before = _listing(cache)
        if spec["expect_empty"] and before:
            result["errors"].append(f"cache not empty at start: {cache}")
        tracer = None
        if spec["trace"]:
            from tracer import Tracer  # next to this script
            tracer = Tracer()
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if spec["argv"]:
            _run_cli(cli, spec["argv"], result)
        else:
            _run_checks(harness, spec["checks"], result)
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        after = _listing(cache)
        result["new_files"] = sorted(set(after.items()) - set(before.items()))
        result["cache_files"] = len(after)
        result["cache_bytes"] = sum(after.values())
        result["cache_digest"] = _digest(cache)
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

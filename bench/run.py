"""Benchmark of the satake calculator: one workload, one seed, one closed-loop caller.

Usage (from the repository root):

    python3 bench/run.py --workload satake-rows --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one after another

The library is imported from ``src/`` next to this directory; nothing is
installed.  A run generates the workload's inputs from the seed and sets up
once untimed, to warm the file cache.  Then it runs passes over the
workload's item list, one call at a time in this process, while the next
pass still fits in ``--seconds``.  Each pass first times a set-up (a fresh
import of satake and construction of the data and their Weyl groups) and
then runs every item from fresh algebras, so each pass repeats the same
work.  Between calls, a reference kernel that does not touch the library
measures the host's speed (see SpeedProbe), and the reported times are the
measured ones scaled to a reference speed.  After the timed passes, the
first pass's outputs are checked by an independent route and hashed; later
passes must reproduce them.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the first half of the time runs untraced, the second half with
the span tracer of ``spans.py`` installed, and the last line holds the
per-layer metrics, including the tracing overhead (traced over untraced pass
time).  Exit status is 0 when a result was printed, 2 when the library could
not be loaded or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
EXPECTED = BENCH_DIR / "expected_hashes.json"
MODULES = ("laurent", "root_datum", "rep_ring", "hecke", "whittaker", "grassmannian",
           "rank1_oracle", "cli")
DEFAULT_SECONDS = 30
# Median time of reference_kernel() on the 2-vCPU virtual machine the
# benchmark was written on: the speed that the reported times refer to.
REFERENCE_KERNEL_S = 8.5e-4
# One probe of the reference kernel per this much timed library work.
PROBE_EVERY_S = 0.025

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402
import workloads  # noqa: E402


def satake_modules() -> SimpleNamespace:
    """The satake package and its modules, imported from SRC and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("satake")
    if Path(pkg.__file__).resolve().parent != SRC / "satake":
        raise ImportError("satake was imported from %s, not from %s" % (pkg.__file__, SRC))
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module("satake." + m) for m in MODULES})


def load_satake() -> SimpleNamespace:
    """Import satake afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "satake" or m.startswith("satake.")]:
        del sys.modules[name]
    return satake_modules()


def reference_kernel() -> tuple:
    """Fixed pure-Python work that does not touch the library, in the library's
    idiom: tuple keys into a dict, and a product of Laurent-style exponent →
    coefficient dicts."""
    table: dict = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    poly = {e: e + 21 for e in range(-20, 20)}
    factor = list(poly.items())[:10]
    product: dict = {}
    for _ in range(3):
        for e1, c1 in poly.items():
            for e2, c2 in factor:
                product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    return table, product


class SpeedProbe:
    """The host's speed during a pass, from the reference kernel timed between library calls.

    On a shared host the speed of a CPU drifts by tens of percent over
    seconds to minutes, as neighbours come and go, and the library's times
    drift with it.  After each timed call, the probe times the reference
    kernel once per PROBE_EVERY_S of that call (with the collector off, so
    the library's heap does not leak into it), so its samples cover the same
    stretch of time as the library's.  ``factor(since)`` is
    REFERENCE_KERNEL_S over the median of the samples taken since then: a
    time measured in that stretch, multiplied by it, is the time at the
    reference speed.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def after(self, busy_s: float) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(max(1, round(busy_s / PROBE_EVERY_S))):
                t0 = time.perf_counter()
                reference_kernel()
                self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def factor(self, since: int = 0) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.samples[since:])


def timed_setup(wl, probe: SpeedProbe) -> float:
    """Import the library afresh and build the workload's data; the seconds taken."""
    t0 = time.perf_counter()
    wl.setup(load_satake())
    took = time.perf_counter() - t0
    probe.after(took)
    return took


def run_pass(wl, keep_outputs: bool, probe: SpeedProbe):
    """One pass over the item list; returns wall time, item times and outputs.

    The wall time is the sum of the item times: the probes between items
    are not part of it.
    """
    state = wl.fresh()
    gc.collect()
    times, outputs, errors = [], [], []
    for item in wl.items:
        t0 = time.perf_counter()
        try:
            out, err = wl.run(state, item), None
        except Exception as exc:  # a raising item is a failed item, the run goes on
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - t0)
        probe.after(times[-1])
        outputs.append(out)
        errors.append(err)
    wall = sum(times)
    extra = wl.close(state)
    canon = [
        json.dumps({"error": err} if err else wl.canonical(item, out), sort_keys=True)
        for item, out, err in zip(wl.items, outputs, errors)
    ]
    return SimpleNamespace(wall=wall, times=times, canon=canon, errors=errors, extra=extra,
                           outputs=outputs if keep_outputs else None)


def measure(wl, seconds: float, passes: list, probe: SpeedProbe, tracer=None,
            fresh_import: bool = True) -> list:
    """Run passes while the next one still fits in `seconds`; at least one.

    Each pass starts with a timed set-up (``setup``), then runs the items;
    ``speed`` is the probe's factor over the samples of that pass.  With
    `fresh_import` false, the workload keeps the modules it was set up with
    and ``setup`` is 0.
    """
    snapshots = []
    deadline = time.perf_counter() + seconds
    walls = []
    while True:
        mark = len(probe.samples)
        setup = timed_setup(wl, probe) if fresh_import else 0.0
        if tracer is not None:
            tracer.install(wl.sat)
        try:
            result = run_pass(wl, keep_outputs=not passes, probe=probe)
        finally:
            if tracer is not None:
                tracer.uninstall()
                snapshots.append(tracer.take())
        result.setup, result.speed = setup, probe.factor(mark)
        passes.append(result)
        walls.append(result.wall)
        if time.perf_counter() + statistics.median(walls) > deadline:
            return snapshots


def median_item_times(passes) -> list:
    """Each item's median time over the passes, at the reference speed.

    Every pass repeats the same work from the same fresh state, so an item's
    time varies only by the speed of the host meanwhile.  Each time is
    scaled by its pass's speed factor, and the median over passes spread
    through the whole run is the figure that least depends on the host (the
    shortest time is noisier: it picks out the luckiest moment).
    """
    return [statistics.median(t * p.speed for t, p in zip(times, passes))
            for times in zip(*(p.times for p in passes))]


def scaled_median(passes, key: str) -> float:
    """The median over passes of a pass's time `key`, at the reference speed."""
    return statistics.median(getattr(p, key) * p.speed for p in passes)


def verdict(wl, passes):
    """Per-item failures over all passes, and the sha256 of the canonical output."""
    first = passes[0]
    good = [i for i, err in enumerate(first.errors) if err is None]
    checked = wl.check([wl.items[i] for i in good], [first.outputs[i] for i in good])
    ok_first = [False] * len(wl.items)
    for i, ok in zip(good, checked):
        ok_first[i] = bool(ok)
    failed = 0
    for p in passes:
        for i, canon in enumerate(p.canon):
            if not ok_first[i] or p.errors[i] is not None or canon != first.canon[i]:
                failed += 1
    digest = hashlib.sha256("\n".join(first.canon).encode()).hexdigest()
    return failed, digest


def recorded_hash(name: str, seed: int):
    """The output hash recorded for this workload and seed, if one was recorded."""
    return json.loads(EXPECTED.read_text()).get(name, {}).get(str(seed))


def layer_metrics(snapshots, untraced, traced, extras):
    """Per-layer metrics: medians over traced passes of self times and counts."""
    def med(kind, key):
        return statistics.median([snap[kind].get(key, 0) for snap in snapshots])

    def self_s(name):
        return med(0, name)

    def calls(name):
        return med(1, name)

    def ratio(num, den):
        return num / den if den else 0.0

    wall = statistics.median([p.wall for p in traced])
    spans_total = statistics.median([sum(snap[0].values()) for snap in snapshots])
    m = {}
    for name in ("rep_ring.q_kostant_partition", "rep_ring.lusztig_q_analog",
                 "root_datum.coroot_coordinates", "rep_ring.character_eval",
                 "root_datum.weyl_orbit", "rep_ring.tensor_decompose",
                 "rank1_oracle.closed_cell_charsum", "rank1_oracle.check_triple",
                 "hecke.satake_row"):
        m[name + ".self_s"] = (self_s(name), "s")
        m[name + ".calls"] = (calls(name), "count")
    for name in ("rep_ring.q_kostant_partition", "rep_ring.tensor_decompose"):
        distinct = [ratio(snap[2].get(name, 0), snap[1].get(name, 0)) for snap in snapshots]
        m[name + ".distinct_ratio"] = (statistics.median(distinct), "ratio")
    for name in ("root_datum.dominant_box", "rep_ring.dominant_multiplicity_table", "hecke.mul",
                 "hecke.c_to_satake", "whittaker.eigen_residual", "whittaker.act",
                 "grassmannian", "cli.main"):
        m[name + ".self_s"] = (self_s(name), "s")
    for name in ("root_datum.dominant_representative", "laurent.mul", "laurent.add"):
        m[name + ".calls"] = (calls(name), "count")
    m["root_datum.weyl_elements.s"] = (self_s("root_datum.weyl_elements"), "s")
    m["rank1_oracle.points_enumerated"] = (calls("rank1_oracle.points_enumerated"), "count")
    m["hecke.satake_row.computed"] = (calls("hecke.satake_row.computed"), "count")
    m["hecke.satake_row.served_self_s"] = (med(3, "hecke.satake_row.served"), "s")
    m["hecke.satake_row.computed_self_s"] = (med(3, "hecke.satake_row.computed"), "s")
    cache_bytes = [e.get("hecke.disk_cache_bytes", 0.0) for e in extras]
    m["hecke.disk_cache_bytes"] = (statistics.median(cache_bytes), "bytes")
    m["cli.commands"] = (calls("cli.main"), "count")
    served = calls("cli.satake.served")
    m["cli.satake.served_ratio"] = (ratio(served, served + calls("cli.satake.computed")), "ratio")
    q_side = self_s("rep_ring.q_kostant_partition") + self_s("rep_ring.lusztig_q_analog")
    characters = self_s("rep_ring.character_eval") + self_s("root_datum.weyl_orbit")
    m["share.q_side"] = (ratio(q_side, wall), "ratio")
    m["share.characters"] = (ratio(characters, wall), "ratio")
    m["share.charsum"] = (ratio(self_s("rank1_oracle.closed_cell_charsum"), wall), "ratio")
    m["trace.attributed_share"] = (ratio(spans_total, wall), "ratio")
    m["trace.unattributed_s"] = (wall - spans_total, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead"] = (ratio(scaled_median(traced, "wall"), scaled_median(untraced, "wall")),
                          "ratio")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=str(WORK_DIR))
    saved_env = os.environ.pop(workloads.CACHE_ENV, None)
    try:
        wl = workloads.make(name, seed, workdir)
        wl.setup(load_satake())
        workloads.check_presets(wl.sat)

        passes: list = []
        probe = SpeedProbe()
        if trace:
            measure(wl, seconds / 2, passes, probe)
            untraced = list(passes)
            snapshots = measure(wl, seconds / 2, passes, probe, tracer=spans.Tracer())
            traced = passes[len(untraced):]
        else:
            measure(wl, seconds, passes, probe)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, digest = verdict(wl, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it
        if saved_env is not None:
            os.environ[workloads.CACHE_ENV] = saved_env

    attempted = sum(len(p.times) for p in passes)
    item_times = median_item_times(passes)
    expected = recorded_hash(name, seed)
    if trace:
        metrics = layer_metrics(snapshots, untraced, traced, [p.extra for p in traced])
    else:
        metrics = {
            "setup_s": (scaled_median(passes, "setup"), "s"),
            "wall_s": (scaled_median(passes, "wall"), "s"),
            "item_p50_ms": (statistics.median(item_times) * 1000.0, "ms"),
            # "inclusive" interpolates inside the samples; the default method
            # extrapolates past the largest when there are fewer than nine
            "item_p90_ms": (statistics.quantiles(item_times, n=10, method="inclusive")[-1] * 1000.0
                            if len(item_times) > 1 else item_times[0] * 1000.0, "ms"),
            "peak_rss_mib": (peak_rss, "MiB"),
        }
    return {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "items_per_pass": len(wl.items),
        "pass_walls": [p.wall for p in passes],
        "pass_speeds": [p.speed for p in passes],
        "probes": len(probe.samples),
        "samples": attempted,
        "failed_ratio": failed / attempted,
        "first_error": next((e for p in passes for e in p.errors if e), None),
        "sha256": digest,
        "recorded_sha256": expected,
        "correct": failed == 0 and (expected is None or expected == digest),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def describe(result: dict) -> str:
    lines = ["%s seed=%d: %d passes of %d items, %d item samples; the item metrics are over "
             "%d items' median times" % (
                 result["workload"], result["seed"], result["passes"], result["items_per_pass"],
                 result["samples"], result["items_per_pass"])]
    lines.append("  pass times (s, as measured): %s" % " ".join("%.3f" % w for w in result["pass_walls"]))
    lines.append("  pass speed factors (%d probes): %s" % (
        result["probes"], " ".join("%.3f" % f for f in result["pass_speeds"])))
    for key, metric in result["metrics"].items():
        lines.append("  %-42s %14.6g %s" % (key, metric["value"], metric["unit"]))
    lines.append("  %-42s %14.6g ratio" % ("failed_ratio", result["failed_ratio"]))
    if result["first_error"]:
        lines.append("  first error: %s" % result["first_error"])
    match = {None: "no recorded hash for this seed", result["sha256"]: "matches recorded"}.get(
        result["recorded_sha256"], "MISMATCH with recorded %s" % result["recorded_sha256"])
    lines.append("  output sha256 %s (%s)" % (result["sha256"], match))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        load_satake()
    except ImportError as exc:
        sys.stderr.write("cannot load the satake library from %s: %s\n" % (SRC, exc))
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print(describe(result))
    if len(results) == 1:
        r = results[0]
        summary = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s.%s" % (r["workload"], k): v for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: its correctness gate catches a corrupted result,
and its tracer attributes time, puts the library back as it found it, and
refuses to run when one of its targets is missing.

They run the first rows of the satake-rows workload only, to stay quick, and
use the satake modules already imported rather than re-importing them.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1
ROWS = 6


def _small_rows():
    sat = run.satake_modules()
    wl = workloads.make("satake-rows", SEED)
    wl.setup(sat)
    wl.items = wl.items[:ROWS]
    return sat, wl


def _verdict(wl, tracer=None):
    passes = []
    snapshots = run.measure(wl, 0.0, passes, run.SpeedProbe(), tracer=tracer, fresh_import=False)
    return run.verdict(wl, passes), snapshots


def test_clean_rows_pass_and_hash_is_stable():
    _, wl = _small_rows()
    (failed, digest), _ = _verdict(wl)
    (failed_again, digest_again), _ = _verdict(wl)
    assert failed == 0 and failed_again == 0
    assert digest == digest_again


def test_corrupted_row_coefficient_fails_the_run():
    sat, wl = _small_rows()
    (_, clean_digest), _ = _verdict(wl)
    target = wl.items[-1]
    compute = wl.run

    def corrupted(state, item):
        row, inverse = compute(state, item)
        if item == target:
            mu = min(row)
            row[mu] = row[mu] + sat.laurent.ONE
        return row, inverse

    wl.run = corrupted
    (failed, digest), _ = _verdict(wl)
    assert failed >= 1
    assert digest != clean_digest


def test_tracer_attributes_q_side_and_restores_methods():
    sat, wl = _small_rows()
    rep_ring = sat.rep_ring.RepRing
    originals = {name: rep_ring.__dict__[name] for name in ("q_kostant_partition", "lusztig_q_analog")}
    weyl_func = sat.root_datum.RootDatum.__dict__["weyl_elements"].func
    (failed, _), snapshots = _verdict(wl, tracer=spans.Tracer())
    self_s, calls, distinct, _ = snapshots[0]
    assert failed == 0
    assert calls["hecke.c_to_satake"] == ROWS
    assert calls["hecke.satake_row.computed"] == ROWS
    assert calls["rep_ring.lusztig_q_analog"] > 0
    assert 0 < distinct["rep_ring.q_kostant_partition"] <= calls["rep_ring.q_kostant_partition"]
    assert self_s["rep_ring.q_kostant_partition"] > 0
    for name, fn in originals.items():
        assert rep_ring.__dict__[name] is fn
    assert sat.root_datum.RootDatum.__dict__["weyl_elements"].func is weyl_func


def test_tracer_refuses_a_missing_target():
    sat = run.satake_modules()
    coroot_coordinates = sat.root_datum.RootDatum.__dict__["coroot_coordinates"]
    renamed = SimpleNamespace(**vars(sat))
    renamed.rep_ring = SimpleNamespace(RepRing=type("RepRing", (), {}))
    tracer = spans.Tracer()
    with pytest.raises(LookupError, match="q_kostant_partition"):
        tracer.install(renamed)
    assert sat.root_datum.RootDatum.__dict__["coroot_coordinates"] is coroot_coordinates

"""Per-layer spans for the traced benchmark run, recorded from outside the library.

The tracer replaces public methods of the `satake` classes at class level
with wrappers, so calls the library makes internally (``self.method(...)``)
are seen too.  A timed wrapper pushes a frame on an in-memory span stack;
on exit it adds the span's duration minus the time of its child spans to
the name's self time, and the full duration to the parent's child time.
High-frequency leaves (``dominant_representative``, ``LaurentPoly``
arithmetic, ``Cyclotomic.zeta``) are only counted: timing them would cost
more than the work they do, so their time stays in the caller's self time.

A target that the library no longer has (renamed, moved, or no longer a
classmethod or cached property) makes install() raise, so the traced run
fails instead of reporting 0 for its metrics.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Set, Tuple

LUSZTIG = "rep_ring.lusztig_q_analog"

# (module, class, attribute, span name, timed?, argument key for distinct counts)
_METHODS: Tuple[Tuple[str, str, str, str, bool, Optional[Callable]], ...] = (
    ("root_datum", "RootDatum", "coroot_coordinates", "root_datum.coroot_coordinates", True, None),
    ("root_datum", "RootDatum", "dominant_box", "root_datum.dominant_box", True, None),
    ("root_datum", "RootDatum", "weyl_orbit", "root_datum.weyl_orbit", True, None),
    ("root_datum", "RootDatum", "dominant_representative", "root_datum.dominant_representative", False, None),
    ("rep_ring", "RepRing", "q_kostant_partition", "rep_ring.q_kostant_partition", True,
     lambda args: args[1] if isinstance(args[1], int) else tuple(args[1])),
    ("rep_ring", "RepRing", "lusztig_q_analog", LUSZTIG, True, None),
    ("rep_ring", "RepRing", "character_eval", "rep_ring.character_eval", True, None),
    ("rep_ring", "RepRing", "tensor_decompose", "rep_ring.tensor_decompose", True,
     lambda args: (tuple(args[1]), tuple(args[2]))),
    ("rep_ring", "RepRing", "dominant_multiplicity_table", "rep_ring.dominant_multiplicity_table", True, None),
    ("hecke", "HeckeAlgebra", "mul", "hecke.mul", True, None),
    ("hecke", "HeckeAlgebra", "c_to_satake", "hecke.c_to_satake", True, None),
    ("whittaker", "WhittakerModule", "eigen_residual", "whittaker.eigen_residual", True, None),
    ("whittaker", "WhittakerModule", "act", "whittaker.act", True, None),
    ("rank1_oracle", "Rank1Oracle", "closed_cell_charsum", "rank1_oracle.closed_cell_charsum", True, None),
    ("rank1_oracle", "Rank1Oracle", "check_triple", "rank1_oracle.check_triple", True, None),
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul", False, None),
    ("laurent", "LaurentPoly", "__add__", "laurent.add", False, None),
)
_GRASSMANNIAN_METHODS = (
    "orbit_dim",
    "closure_contains",
    "mv_dim_bound",
    "chi_admissible",
    "predicted_cohomology",
    "mv_weight_multiplicity_check",
    "drinfeld_strata",
)


def _member(owner, attr: str, kind: type = object):
    """``owner``'s own attribute ``attr``, which must be an instance of ``kind``."""
    value = vars(owner).get(attr)
    if value is None or not isinstance(value, kind):
        raise LookupError("tracer target %s.%s is missing from the library (or not a %s)"
                          % (getattr(owner, "__name__", owner), attr, kind.__name__))
    return value


class Tracer:
    """Span stack and per-name aggregates; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.keys: Dict[str, Set] = defaultdict(set)
        self.split_s: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._restore: List[Callable[[], None]] = []

    # -- aggregates ---------------------------------------------------------

    def take(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int], Dict[str, float]]:
        """Self seconds, calls, distinct keys and split self seconds since the last take.

        The split buckets ("<name>.served" / "<name>.computed") share their time
        with the span they split, so they are kept apart from the self times.
        """
        out = (dict(self.self_s), dict(self.calls), {k: len(v) for k, v in self.keys.items()},
               dict(self.split_s))
        for table in (self.self_s, self.calls, self.keys, self.split_s):
            table.clear()
        return out

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn: Callable, key: Optional[Callable] = None,
              split: Optional[Callable] = None) -> Callable:
        """Time fn as a span; split(args) names an extra bucket for served/computed calls."""
        stack, self_s, calls, keys = self._stack, self.self_s, self.calls, self.keys
        split_s = self.split_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            lusztig_before = calls[LUSZTIG]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[0]
                self_s[name] += own
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if key is not None:
                    keys[name].add(key(args))
                if split is not None:
                    bucket = split(args)
                    if bucket is not None:
                        label = "computed" if calls[LUSZTIG] > lusztig_before else "served"
                        split_s["%s.%s" % (bucket, label)] += own
                        calls["%s.%s" % (bucket, label)] += 1

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._restore.append(lambda: setattr(owner, attr, old))

    # -- install / uninstall ----------------------------------------------------

    def install(self, sat) -> None:
        """Wrap the layer boundaries of the satake modules held by ``sat``.

        Raises LookupError, with nothing left wrapped, if a target is missing.
        """
        try:
            self._install(sat)
        except Exception:
            self.uninstall()
            raise

    def _install(self, sat) -> None:
        for mod_name, cls_name, attr, name, timed, key in _METHODS:
            cls = _member(getattr(sat, mod_name), cls_name)
            fn = _member(cls, attr)
            self._replace(cls, attr, self._span(name, fn, key) if timed else self._counter(name, fn))

        grass = _member(sat.grassmannian, "Grassmannian")
        for attr in _GRASSMANNIAN_METHODS:
            self._replace(grass, attr, self._span("grassmannian", _member(grass, attr)))

        hecke = _member(sat.hecke, "HeckeAlgebra")
        self._replace(hecke, "satake_row", self._span(
            "hecke.satake_row", _member(hecke, "satake_row"), split=lambda args: "hecke.satake_row"))

        cyclo = _member(sat.rank1_oracle, "Cyclotomic")
        zeta = _member(cyclo, "zeta", classmethod).__func__
        self._replace(cyclo, "zeta", classmethod(self._counter("rank1_oracle.points_enumerated", zeta)))

        weyl = _member(_member(sat.root_datum, "RootDatum"), "weyl_elements", functools.cached_property)
        original = weyl.func
        weyl.func = self._span("root_datum.weyl_elements", original)
        self._restore.append(lambda: setattr(weyl, "func", original))

        def satake_command(args):
            argv = args[0] if args else None
            return "cli.satake" if argv and argv[0] == "satake" else None

        self._replace(sat.cli, "main", self._span("cli.main", _member(sat.cli, "main"), split=satake_command))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

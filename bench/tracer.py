"""Layer spans for the traced benchmark pass, recorded from outside the package.

`install()` replaces each traced function at the name its caller looks it up
by (for example `sumsetvc.clp.rank`, not `sumsetvc.linalg.rank`) with a
wrapper that records one span per call: name, start, end and parent span.
Spans stay in memory in flat arrays and `Recorder.dump` writes them out when
the CLI call has returned. `summarize` turns the dumps of several processes
into per-layer self times and counters.

Nothing here edits the package: a process that never calls `install()` runs
the original functions.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path


def _pairs(counts, args, result):
    a, b = args[0], args[1]
    counts["pairs"] += len(a.members) * len(b.members)


def _out_points(counts, args, result):
    counts["out_points"] += len(result.points)


def _entries(counts, args, result):
    counts["entries"] += args[0].rows * args[0].cols


def _term_points(counts, args, result):
    poly = args[0]
    counts["term_points"] += len(poly.terms) * poly.modulus**poly.dimension


def _span_adds(counts, args, result):
    counts["adds"] += 1
    counts["useful"] += bool(result)


def _repeats(key):
    seen = set()

    def hook(counts, args, result):
        k = key(args[0])
        if k in seen:
            counts["repeats"] += 1
        else:
            seen.add(k)

    return hook


# (module, attribute path, span name, counter hook). The attribute is the
# name the workloads' callers resolve at call time.
TARGETS = (
    ("sumsetvc.cli", "run", "cli.run", None),
    ("sumsetvc.cli", "exhaustive_scan", "verify.scan", None),
    ("sumsetvc.cli", "random_scan", "verify.scan", None),
    ("sumsetvc.verify", "vc_dim", "vc.vc_dim", _repeats(lambda f: (f.ground_size, f.members))),
    ("sumsetvc.verify", "int_deg", "interpolation.int_deg",
     _repeats(lambda d: (d.modulus, d.dimension, d.points))),
    ("sumsetvc.verify", "pairwise_family", "families.pairwise_family", _pairs),
    ("sumsetvc.verify", "k_fold_sumset", "families.k_fold_sumset", _out_points),
    ("sumsetvc.verify", "embed_01", "families.embed_01", None),
    ("sumsetvc.verify", "sample_distinct", "sampling.sample_distinct", None),
    ("sumsetvc.verify", "random_polynomial", "polynomials.random_polynomial", None),
    ("sumsetvc.verify", "verify_clp_bound", "clp.verify_clp_bound", None),
    ("sumsetvc.polynomials", "ReducedPolynomial.from_term_list", "polynomials.from_term_list", None),
    ("sumsetvc.clp", "values_on_cube", "polynomials.values_on_cube", _term_points),
    ("sumsetvc.clp", "rank", "linalg.rank", _entries),
    ("sumsetvc.linalg", "pack_gf2_rows", "linalg.pack_gf2_rows", None),
    ("sumsetvc.linalg", "rank_gf2_packed", "linalg.rank_gf2_packed", None),
    ("sumsetvc.linalg", "FieldMatrix.__post_init__", "linalg.FieldMatrix", None),
    ("sumsetvc.linalg", "SpanTrackerGF2.add", "linalg.span_gf2", _span_adds),
    ("sumsetvc.linalg", "SpanTrackerModP.add", "linalg.span_modp", _span_adds),
)


class Recorder:
    """In-memory span store: four parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, Counter] = {}
        self._stack = [-1]

    def wrap(self, fn, name: str, hook=None):
        if name not in self.names:
            self.names.append(name)
            self.counts[name] = Counter()
        nid = self.names.index(name)
        counts = self.counts[name]
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def dump(self, prefix: str) -> None:
        """Write the spans as raw arrays plus a JSON index next to them."""
        path = Path(prefix)
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = {
            "spans": len(self.start),
            "names": self.names,
            "counts": {name: dict(c) for name, c in self.counts.items()},
        }
        path.with_suffix(".json").write_text(json.dumps(index))


def install() -> Recorder:
    """Wrap every traced function in place; returns the recorder they share."""
    import importlib

    recorder = Recorder()
    for module_name, attr, name, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(recorder.wrap(raw.__func__, name, hook)))
        else:
            setattr(owner, leaf, recorder.wrap(raw, name, hook))
    return recorder


def summarize(prefixes) -> tuple[dict[str, dict], int]:
    """Per span name: calls, self seconds and summed counters over all dumps.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest strictly, so children never overlap.
    """
    # Imported here, not at the top: the benchmark process imports this
    # module, and a child spawned by vfork inherits the parent's RSS high
    # water mark in its ru_maxrss, which peak_rss_mb reads.
    import numpy as np

    layers: dict[str, dict] = {}
    total_spans = 0
    for prefix in prefixes:
        path = Path(prefix)
        index = json.loads(path.with_suffix(".json").read_text())
        count = index["spans"]
        total_spans += count
        raw = path.with_suffix(".spans").read_bytes()
        ints = np.frombuffer(raw, dtype=np.int32, count=2 * count)
        floats = np.frombuffer(raw, dtype=np.float64, count=2 * count, offset=8 * count)
        name_id, parent = ints[:count], ints[count:]
        duration = floats[count:] - floats[:count]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=count)
        self_time = np.bincount(name_id, weights=duration - child_time, minlength=len(index["names"]))
        calls = np.bincount(name_id, minlength=len(index["names"]))
        for nid, name in enumerate(index["names"]):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[nid])
            entry["self_s"] += float(self_time[nid])
            for key, value in index["counts"][name].items():
                entry[key] = entry.get(key, 0) + value
    return layers, total_spans

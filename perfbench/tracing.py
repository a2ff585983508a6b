"""Spans around the calls the benchmark makes into each bssym layer.

The traced run rebinds a fixed set of public bssym functions (and three
methods) to wrappers that record a span per call: name, start, end, parent
span and op id.  The rebinding covers every bssym module that imported the
function, so a call made inside the program (``verify_isovector`` calling
``lie_derivative``, ``cli.main`` calling ``write_csv``) is a child span of
its caller.  Wrappers are installed only for the traced half of a traced
run and removed afterwards; no source file is touched.

Spans stay in memory until ``dump``.  A span's self time is its duration
minus the time its direct children cover.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  An attribute "Class.method" wraps a method.
TARGETS = (
    ("bssym.forms", "structural_forms", "forms.structural_forms"),
    ("bssym.forms", "lie_derivative", "forms.lie_derivative"),
    ("bssym.ideal", "ideal_membership", "ideal.membership"),
    ("bssym.isovectors", "verify_isovector", "isovectors.verify"),
    ("bssym.isovectors", "bracket", "isovectors.bracket"),
    ("bssym.isovectors", "structure_constants", "isovectors.structure_constants"),
    ("bssym.isovectors", "decompose", "isovectors.decompose"),
    ("bssym.isovectors", "gh_of", "isovectors.gh_duality"),
    ("bssym.isovectors", "bracket_gh", "isovectors.gh_duality"),
    ("bssym.pricing", "bs_price", "pricing.bs_price"),
    ("bssym.grids", "residual_e", "grids.residual_e"),
    ("bssym.grids", "residual_e2", "grids.residual_e2"),
    ("bssym.grids", "fd_solve", "grids.fd_solve"),
    ("bssym.grids", "write_csv", "grids.write_csv"),
    ("bssym.cli", "_write_csv_text", "grids.write_csv"),
    ("bssym.grids", "read_csv", "grids.read_csv"),
    ("bssym.transforms", "sample_surface", "transforms.sample"),
    ("bssym.transforms", "GridSurface.__init__", "transforms.spline"),
    ("bssym.transforms", "GridSurface.value", "transforms.spline"),
    ("bssym.transforms", "certify_transform", "transforms.certify"),
    ("bssym.transforms", "infinitesimal_action", "transforms.action"),
    ("bssym.transforms", "ActionSurface.value", "transforms.action"),
)

# layer time metrics: span name -> metric name (self seconds per traced op)
TIME_METRICS = {
    "forms.structural_forms": "forms.structural_forms_s",
    "forms.lie_derivative": "forms.lie_derivative_s",
    "ideal.membership": "ideal.membership_s",
    "isovectors.verify": "isovectors.verify_s",
    "isovectors.bracket": "isovectors.bracket_s",
    "isovectors.structure_constants": "isovectors.structure_constants_s",
    "isovectors.decompose": "isovectors.decompose_s",
    "isovectors.gh_duality": "isovectors.gh_duality_s",
    "pricing.bs_price": "pricing.bs_price_s",
    "grids.residual_e": "grids.residual_e_s",
    "grids.residual_e2": "grids.residual_e2_s",
    "grids.fd_solve": "grids.fd_solve_s",
    "grids.write_csv": "grids.write_csv_s",
    "grids.read_csv": "grids.read_csv_s",
    "transforms.sample": "transforms.sample_s",
    "transforms.spline": "transforms.spline_s",
    "transforms.certify": "transforms.certify_s",
    "transforms.action": "transforms.action_s",
}


def _nbytes(args) -> int:
    """Bytes a CSV writer produced or a reader consumed."""
    target = args[1] if len(args) > 1 else args[0]
    if hasattr(target, "tell"):
        return target.tell()
    return os.path.getsize(target)


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.ops = 0
        self._stack = []
        self._op = -1
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def begin_op(self) -> None:
        self._op = self.ops
        self.ops += 1

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> float:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.leave(idx)
            tracer._count(name, args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, result, elapsed) -> None:
        c = self.counts
        if name == "forms.lie_derivative":
            c["lie_components"] += len(result.items())
        elif name == "ideal.membership":
            c["membership_calls"] += 1
            c["in_ideal"] += bool(result.in_ideal)
        elif name == "pricing.bs_price":
            c["priced_nodes"] += max(1, getattr(result, "size", 1))
            c["bs_price_incl_s"] += elapsed
        elif name == "grids.write_csv":
            c["write_bytes"] += _nbytes(args)
            c["write_incl_s"] += elapsed
        elif name == "grids.read_csv":
            c["read_bytes"] += _nbytes(args)
            c["read_incl_s"] += elapsed
        elif name == "transforms.certify":
            c["certified_nodes"] += result.samples.values.size
            c["clipped_nodes"] += result.n_clipped_nodes

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded bssym module to its wrapper."""
        if self._saved:
            return
        modules = [m for n, m in sys.modules.items()
                   if (n == "bssym" or n.startswith("bssym.")) and m is not None]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules.get(mod_name)
            if owner is None:  # bssym.cli is only loaded by the CLI workload
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self seconds per span name."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_cover):
            totals[name] += (end - start) - covered
        return totals

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced ops: self seconds per op, counts
        per op, ratios and rates."""
        ops = max(self.ops, 1)
        selfs = self.self_times()
        out = {metric: selfs.get(span, 0.0) / ops
               for span, metric in TIME_METRICS.items()}
        c = self.counts

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        out["forms.lie_components"] = c["lie_components"] / ops
        out["ideal.in_ideal_ratio"] = ratio("in_ideal", "membership_calls")
        out["pricing.nodes_per_s"] = ratio("priced_nodes", "bs_price_incl_s")
        out["grids.write_mb_per_s"] = ratio("write_bytes", "write_incl_s") / 1e6
        out["grids.read_mb_per_s"] = ratio("read_bytes", "read_incl_s") / 1e6
        out["transforms.clipped_ratio"] = ratio("clipped_nodes", "certified_nodes")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

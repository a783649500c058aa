"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps public functions and methods of the qpdl
modules; each wrapped call records one span (name, start, end, parent)
in flat arrays, kept in memory until the run ends.  A layer's self time
is the time its spans cover minus the time their child spans cover.

Every wrapped name is looked up when the tracer is installed.  A name
that a refactor removed is skipped and listed in ``missing``; a metric
all of whose names are missing is reported absent, never as a crash.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# span name, layer, "module:Qualified.name", what the span keeps
SPECS = [
    ("linalg.elim", "linalg.elim", "qpdl.linalg:Matrix.rref", "shape"),
    ("linalg.elim", "linalg.elim", "qpdl.linalg:Matrix.rank", "shape"),
    ("linalg.elim", "linalg.elim", "qpdl.linalg:Matrix.row_basis", "shape"),
    ("linalg.elim", "linalg.elim", "qpdl.linalg:Matrix.kernel_basis", "shape"),
    ("linalg.elim", "linalg.elim", "qpdl.linalg:Matrix.inverse", "shape"),
    ("linalg.matmul", "linalg.matmul", "qpdl.linalg:Matrix.__mul__", "macs"),
    ("frame.ortho", "frame.lattice", "qpdl.frame:Subspace.ortho", "args"),
    ("frame.meet", "frame.lattice", "qpdl.frame:Subspace.meet", "args"),
    ("frame.join", "frame.lattice", "qpdl.frame:Subspace.join", None),
    ("frame.projector", "frame.lattice", "qpdl.frame:Subspace.projector", None),
    ("frame.contains", "frame.lattice", "qpdl.frame:Subspace.contains_vector", None),
    ("frame.contains", "frame.lattice", "qpdl.frame:Subspace.contains_subspace", None),
    ("frame.map", "frame.map", "qpdl.frame:PartialMap.then", None),
    ("frame.map", "frame.map", "qpdl.frame:PartialMap.apply_ray", None),
    ("frame.map", "frame.map", "qpdl.frame:PartialMap.image_of", None),
    ("frame.map", "frame.map", "qpdl.frame:PartialMap.preimage_closed", None),
    ("frame.map", "frame.map", "qpdl.frame:PartialMap.kernel", None),
    ("frame.map", "frame.map", "qpdl.frame:PartialMap.adjoint", None),
    ("frame.map", "frame.map", "qpdl.frame:PartialMap.is_local", None),
    ("frame.map", "frame.map", "qpdl.frame:QAction.then", None),
    ("frame.map", "frame.map", "qpdl.frame:QAction.adjoint", None),
    ("frame.map", "frame.map", "qpdl.frame:Frame.gate", None),
    ("frame.sep", "frame.sep", "qpdl.frame:Frame.separability", None),
    ("frame.sep", "frame.sep", "qpdl.frame:Frame.reachable", None),
    ("frame.sep", "frame.sep", "qpdl.frame:Frame.state_lift", None),
    ("frame.sep", "frame.sep", "qpdl.frame:Frame.local_lift", None),
    ("frame.sep", "frame.sep", "qpdl.frame:Frame.product_form", None),
    ("regions.make_term", "regions", "qpdl.regions:make_term", None),
    ("regions.complement", "regions", "qpdl.regions:Region.complement", "terms"),
    ("regions.intersect", "regions", "qpdl.regions:Region.intersect", None),
    ("regions.wp", "regions", "qpdl.regions:wp", None),
    ("regions.wp", "regions", "qpdl.regions:wp_map", None),
    ("regions.witness", "regions", "qpdl.regions:Term.witness", None),
    ("checker.check_valid", "checker", "qpdl.checker:check_valid", None),
    ("checker.check_state", "checker", "qpdl.checker:check_state", None),
    ("checker.other", "checker", "qpdl.checker:eval_symbolic", None),
    ("checker.other", "checker", "qpdl.checker:denote_program", None),
    ("checker.other", "checker", "qpdl.checker:check_schematic", None),
    ("checker.other", "checker", "qpdl.checker:eq_component", None),
    ("checker.other", "checker", "qpdl.checker:substitute", None),
    ("parser", "parser", "qpdl.parser:parse_formula", None),
    ("parser", "parser", "qpdl.parser:parse_program", None),
    ("desugar", "desugar", "qpdl.desugar:desugar_formula", None),
    ("desugar", "desugar", "qpdl.desugar:desugar_program", None),
    ("protocols", "protocols", "qpdl.protocols:run_target", "reports"),
    ("protocols", "protocols", "qpdl.protocols:teleportation", "reports"),
    ("protocols", "protocols", "qpdl.protocols:quantum_secret_sharing", "reports"),
    ("protocols", "protocols", "qpdl.protocols:lemma_suite", "reports"),
    ("cli", "cli", "qpdl.cli:main", None),
]

# metric -> (kind, span name or layer); kinds are computed in ``metrics``
METRICS = {
    "linalg.elim.calls": ("outer_calls", "linalg.elim"),
    "linalg.elim.cells": ("outer_cells", "linalg.elim"),
    "linalg.elim.self_s": ("self", "linalg.elim"),
    "linalg.matmul.calls": ("calls", "linalg.matmul"),
    "linalg.matmul.macs": ("macs", "linalg.matmul"),
    "linalg.matmul.self_s": ("self", "linalg.matmul"),
    "frame.ortho.calls": ("calls", "frame.ortho"),
    "frame.ortho.distinct_share": ("distinct", "frame.ortho"),
    "frame.meet.calls": ("calls", "frame.meet"),
    "frame.meet.distinct_share": ("distinct", "frame.meet"),
    "frame.join.calls": ("calls", "frame.join"),
    "frame.projector.calls": ("calls", "frame.projector"),
    "frame.lattice.self_s": ("self", "frame.lattice"),
    "frame.map.calls": ("calls", "frame.map"),
    "frame.map.self_s": ("self", "frame.map"),
    "frame.sep.calls": ("calls", "frame.sep"),
    "frame.sep.self_s": ("self", "frame.sep"),
    "regions.make_term.calls": ("calls", "regions.make_term"),
    "regions.complement.calls": ("calls", "regions.complement"),
    "regions.complement.terms_in": ("terms_in", "regions.complement"),
    "regions.complement.terms_out": ("terms_out", "regions.complement"),
    "regions.wp.calls": ("calls", "regions.wp"),
    "regions.witness.calls": ("calls", "regions.witness"),
    "regions.self_s": ("self", "regions"),
    "checker.check_valid.calls": ("calls", "checker.check_valid"),
    "checker.check_state.calls": ("calls", "checker.check_state"),
    "checker.self_s": ("self", "checker"),
    "parser.self_s": ("self", "parser"),
    "desugar.self_s": ("self", "desugar"),
    "protocols.calls": ("outer_calls", "protocols"),
    "cli.calls": ("calls", "cli"),
}


PAYLOAD_KINDS = {"outer_cells", "macs", "distinct", "terms_in", "terms_out"}


def self_times(starts, ends, parents) -> list:
    """Self time of each span: its duration minus its children's.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it and their durations add up."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def _resolve(target: str):
    """(owner, attribute, function), or None when the name is gone."""
    modname, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.layers: list[str] = []
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.payload: dict = {}
        self.missing: list[str] = []
        self.present: set = set()
        # span ids whose arguments or results no longer have the shape
        # their metrics read; those metrics are reported absent
        self.unreadable: set = set()
        self._stack: list[int] = []
        self._undo: list = []

    def install(self, specs=SPECS) -> None:
        ids = {}
        for span, layer, target, keep in specs:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr, fn = found
            if span not in ids:
                ids[span] = len(self.span_names)
                self.span_names.append(span)
                self.layers.append(layer)
            self.present.add(span)
            wrapped = self._wrap(fn, ids[span], keep)
            if isinstance(owner, type):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                # module functions are also bound by name wherever a
                # module imported them; rebind every such copy
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if (name == "qpdl" or name.startswith("qpdl.")) \
                            and mod.__dict__.get(attr) is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, name_id: int, keep):
        stack, starts, ends = self._stack, self.starts, self.ends
        parents, name_of, payload = self.parents, self.name_of, self.payload
        unreadable = self.unreadable
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_of.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep is not None:
                try:
                    payload[idx] = _keep(keep, args, result)
                except (AttributeError, TypeError, IndexError):
                    unreadable.add(name_id)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def metrics(self) -> tuple[dict, dict]:
        """(metrics, details): per-layer metrics of every recorded span."""
        names, layers = self.span_names, self.layers
        n = len(self.starts)
        own = self_times(self.starts, self.ends, self.parents)
        by_span: dict = {}
        layer_self: dict = {}
        outer: dict = {}
        for i in range(n):
            span = names[self.name_of[i]]
            layer = layers[self.name_of[i]]
            acc = by_span.setdefault(span, {"calls": 0, "self": 0.0})
            acc["calls"] += 1
            acc["self"] += own[i]
            layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
            p = self.parents[i]
            if p < 0 or names[self.name_of[p]] != span:
                outer.setdefault(span, []).append(i)

        def payloads(span):
            sid = names.index(span)
            return [self.payload[i] for i in range(n)
                    if self.name_of[i] == sid and i in self.payload]

        out = {}
        absent = []
        for metric, (kind, key) in METRICS.items():
            if kind == "self":
                known = key in layers
            else:
                known = key in self.present and not (
                    kind in PAYLOAD_KINDS and names.index(key) in self.unreadable)
            if not known:
                absent.append(metric)
                continue
            if kind == "self":
                value = layer_self.get(key, 0.0)
            elif kind == "calls":
                value = by_span.get(key, {}).get("calls", 0)
            elif kind == "outer_calls":
                value = len(outer.get(key, []))
            elif kind == "outer_cells":
                value = sum(self.payload[i][0] * self.payload[i][1]
                            for i in outer.get(key, []) if i in self.payload)
            elif kind == "macs":
                value = sum(payloads(key))
            elif kind == "distinct":
                keys = payloads(key)
                try:
                    value = len(set(keys)) / len(keys) if keys else 1.0
                except TypeError:  # inputs no longer hashable
                    absent.append(metric)
                    continue
            elif kind == "terms_in":
                value = sum(k[0] for k in payloads(key))
            elif kind == "terms_out":
                value = sum(k[1] for k in payloads(key))
            else:
                raise ValueError(kind)
            out[metric] = value
        targets: dict = {}
        for i in outer.get("protocols", []):
            for rep_name, seconds in self.payload.get(i, ()):
                targets[f"protocols.{rep_name}.s"] = \
                    targets.get(f"protocols.{rep_name}.s", 0.0) + seconds
        details = {
            "spans": n,
            "absent": absent,
            "missing_names": self.missing,
            "layer_self_s": layer_self,
            # zero on workloads whose claims are all valid, so not a metric
            "regions.witness.self_s": by_span.get("regions.witness", {}).get("self", 0.0),
            "cli.self_s": layer_self.get("cli", 0.0),
            "protocols.self_s": layer_self.get("protocols", 0.0),
            **targets,
        }
        return out, details


def _keep(kind: str, args, result):
    """What a span keeps for its metrics; read after the call returns, so
    the cost is outside every span's interval but its parent's."""
    if kind == "shape":
        m = args[0]
        return (m.rows, m.cols)
    if kind == "macs":
        a, b = args[0], args[1]
        return a.rows * a.cols * b.cols
    if kind == "args":
        return args if len(args) > 1 else args[0]
    if kind == "terms":
        return (len(args[0].terms), len(result.terms))
    if kind == "reports":
        reports = result if isinstance(result, list) else [result]
        return tuple((r.name, r.duration) for r in reports
                     if hasattr(r, "name") and hasattr(r, "duration"))
    raise ValueError(kind)

"""Spans around the library's public functions, installed from outside.

``from .maps import validate_map`` copies the binding into the importing
module, so every wrapped function is replaced at each name it is bound to in
any loaded ``volbounds`` module, including values of module-level dicts such
as the CLI's family table.  ``VolumeExpr.value`` is wrapped on the class.

Spans (name, start, end, parent, operation id) stay in memory until
:meth:`Tracer.write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

BUILDERS = (
    "tetrahedron", "cube", "octahedron", "pyramid", "bipyramid", "prism", "antiprism",
    "two_apex_pyramid", "twisted_antiprism", "dual", "map_from_face_cycles", "map_from_dict",
)

# layer name -> (module, functions); the family builders form one layer
LAYERS = {
    "maps.validate_map": ("maps", ("validate_map",)),
    "maps.is_three_connected": ("maps", ("is_three_connected",)),
    "maps.medial": ("maps", ("medial",)),
    "maps.build": ("maps", BUILDERS),
    "maps.vertex_orbits": ("maps", ("vertex_orbits",)),
    "maps.face_orbits": ("maps", ("face_orbits",)),
    "polyhedra.rectification_bounds": ("polyhedra", ("rectification_bounds",)),
    "lobachevsky.lobachevsky": ("lobachevsky", ("lobachevsky",)),
    "links.link_report": ("links", ("link_report",)),
    "twists.two_bridge_diagram": ("twists", ("two_bridge_diagram",)),
    "augmented.augment": ("augmented", ("augment",)),
    "cli.run": ("cli", ("run",)),
    "cli.build_parser": ("cli", ("build_parser",)),
}
VALUE_LAYER = "lobachevsky.VolumeExpr.value"

# per-layer metrics reported besides calls and total_ms
SELF_MS = (
    "maps.is_three_connected", "polyhedra.rectification_bounds", "links.link_report",
    "twists.two_bridge_diagram", "augmented.augment", "cli.run",
)


def _count_cycles(perm) -> int:
    seen = bytearray(len(perm))
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            d = start
            while not seen[d]:
                seen[d] = 1
                d = perm[d]
    return cycles


class Tracer:
    def __init__(self, vb):
        self.vb = vb
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._validated: set = set()
        self._undo: list = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._validated = set()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = perf_counter()
                self.stack.pop()
                if after is not None:
                    after(args, result, exc)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "volbounds" or key.startswith("volbounds."))]
        for layer, (module, names) in LAYERS.items():
            owner = sys.modules.get(f"volbounds.{module}")
            if owner is None:
                continue
            for fname in names:
                original = getattr(owner, fname)
                self._rebind(modules, original, self._wrap(layer, original))
        cls = self.vb.lobachevsky.VolumeExpr
        prop = cls.__dict__["value"]
        cls.value = property(self._wrap(VALUE_LAYER, prop.fget))
        self._undo.append((setattr, cls, "value", prop))

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(x is original for x in v):
                            value[k] = tuple(wrapper if x is original else x for x in v)
                            self._undo.append((dict.__setitem__, value, k, v))

    def uninstall(self) -> None:
        for setter, target, key, value in reversed(self._undo):
            setter(target, key, value)
        self._undo.clear()

    # -- per-layer counters, taken after the span has ended ------------------

    def _after_validate_map(self, args, result, exc):
        m = args[0]
        counts = self.counts["maps.validate_map"]
        counts["darts"] += len(m.alpha)
        try:
            repeat = m in self._validated
            self._validated.add(m)
        except TypeError:  # a map holding lists is not hashable
            repeat = False
        counts["repeats"] += repeat

    def _after_is_three_connected(self, args, result, exc):
        self.counts["maps.is_three_connected"]["vertices"] += _count_cycles(args[0].sigma)

    def _after_rectification_bounds(self, args, result, exc):
        self.counts["polyhedra.rectification_bounds"]["failed"] += exc is not None

    def _after_link_report(self, args, result, exc):
        if result is not None:
            counts = self.counts["links.link_report"]
            counts["rows"] += len(result)
            counts["applicable"] += sum(1 for r in result if r.applicable)

    def _after_two_bridge_diagram(self, args, result, exc):
        if result is not None:
            self.counts["twists.two_bridge_diagram"]["twists"] += result.t

    def _after_augment(self, args, result, exc):
        if result is not None:
            self.counts["augmented.augment"]["darts"] += len(result.map.alpha)

    # -- aggregation --------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, total_ms and self_ms per layer.

        A span nested in a span of its own layer (a builder calling
        ``map_from_face_cycles``) belongs to the outer call; self time is a
        span's duration minus the time covered by its child spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
               for layer in (*LAYERS, VALUE_LAYER)}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["self_ms"] += (end - start - child[i]) * 1e3
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                entry["calls"] += 1
                entry["total_ms"] += (end - start) * 1e3
        return out

    def metrics(self) -> dict[str, float]:
        times = self.layer_times()
        counts = self.counts
        m = {}
        for layer, entry in times.items():
            m[f"{layer}.calls"] = entry["calls"]
            m[f"{layer}.total_ms"] = entry["total_ms"]
            if layer in SELF_MS:
                m[f"{layer}.self_ms"] = entry["self_ms"]
        validate_calls = times["maps.validate_map"]["calls"]
        report_rows = counts["links.link_report"]["rows"]
        m["maps.is_three_connected.vertices"] = counts["maps.is_three_connected"]["vertices"]
        m["maps.validate_map.darts"] = counts["maps.validate_map"]["darts"]
        m["maps.validate_map.repeat_frac"] = (
            counts["maps.validate_map"]["repeats"] / validate_calls if validate_calls else 0.0
        )
        m["polyhedra.rectification_bounds.failed"] = counts["polyhedra.rectification_bounds"]["failed"]
        m["links.link_report.rows"] = report_rows
        m["links.link_report.applicable_frac"] = (
            counts["links.link_report"]["applicable"] / report_rows if report_rows else 0.0
        )
        m["twists.two_bridge_diagram.twists"] = counts["twists.two_bridge_diagram"]["twists"]
        m["augmented.augment.darts"] = counts["augmented.augment"]["darts"]
        return m

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start_us, end_us, parent, op."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_us\tend_us\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{(start - origin) * 1e6:.3f}\t{(end - origin) * 1e6:.3f}"
                         f"\t{parent}\t{op}\n")

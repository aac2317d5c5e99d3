"""Outside-in tracer: wraps vessiot's public functions from the outside.

``Tracer.install`` replaces every module-level binding of each traced
function in every loaded ``vessiot`` module (so ``from .x import y``
copies such as ``systems.rank`` or ``geomkit.det`` are wrapped too) and
a few class attributes, and ``uninstall`` puts the originals back.  Each
call becomes a span (id, parent span, item, name, start, end) kept in
compact in-memory arrays and written out by ``write``; counts, inclusive
time (outermost call of a name only, so recursion is not counted twice)
and self time (minus child spans) are accumulated as calls return.
"""
from __future__ import annotations

import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, metric name); a dotted attribute names a class
# attribute.  ``RationalExpr.__init__`` is traced only for constructions
# that normalize, under the name ``symcore.normalize``.
TARGETS = (
    ("symcore", "poly_gcd", "symcore.poly_gcd"),
    ("symcore", "poly_divexact", "symcore.poly_divexact"),
    ("symcore", "substitute", "symcore.substitute"),
    ("symcore", "coordinate_partial", "symcore.coordinate_partial"),
    ("symcore", "eval_point", "symcore.eval_point"),
    ("symcore", "RationalExpr.__init__", "symcore.normalize"),
    ("symcore", "Polynomial.__mul__", "symcore.Polynomial.mul"),
    ("jets", "JetContext.total_derivative", "jets.total_derivative"),
    ("jets", "prolong_field", "jets.prolong_field"),
    ("jets", "bracket", "jets.bracket"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "inverse", "linalg.inverse"),
    ("systems", "prolong_system", "systems.prolong_system"),
    ("systems", "symbol_of", "systems.symbol_of"),
    ("systems", "characters", "systems.characters"),
    ("systems", "cartan_test", "systems.cartan_test"),
    ("systems", "compatibility_count", "systems.compatibility_count"),
    ("systems", "fiber_dimension", "systems.fiber_dimension"),
    ("geomkit", "surface_invariants", "geomkit.surface_invariants"),
    ("geomkit", "curve_invariants", "geomkit.curve_invariants"),
    ("geomkit", "gauss_residual", "geomkit.gauss_residual"),
    ("mechanics", "_pullback_divergence", "mechanics._pullback_divergence"),
    ("mechanics", "multiplier_transport", "mechanics.multiplier_transport"),
    ("mechanics", "jacobi_multiplier_identity",
     "mechanics.jacobi_multiplier_identity"),
    ("invariants", "structure_constants", "invariants.structure_constants"),
    ("invariants", "invariant_count", "invariants.invariant_count"),
    ("invariants", "is_invariant", "invariants.is_invariant"),
    ("diffideal", "prolong_gens", "diffideal.prolong_gens"),
    ("diffideal", "radical_power_membership",
     "diffideal.radical_power_membership"),
    ("parser", "parse_expression", "parser.parse_expression"),
    ("cli", "parse_problem", "cli.parse_problem"),
)
SETUP_ITEM = -1


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        self.depth = [0] * n
        self.item = SETUP_ITEM
        self.paused = False
        self.gcd_top = 0
        self.gcd_nontrivial = 0
        self.peak_terms = 0
        self.rref_cells = 0
        self.rref_max_cells = 0
        self.rref_full_rank = 0
        self._stack = []
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_item = array("l")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore = []

    # -- spans ---------------------------------------------------------
    def _wrap(self, fn, idx, after=None):
        stack = self._stack
        calls, incl, self_s, depth = self.calls, self.incl, self.self_s, self.depth
        ids, parents, items = self.span_id, self.span_parent, self.span_item
        names, starts, ends = self.span_name, self.span_start, self.span_end

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            depth[idx] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                depth[idx] -= 1
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if not depth[idx]:
                    incl[idx] += dur
                ids.append(sid)
                parents.append(parent)
                items.append(self.item)
                names.append(idx)
                starts.append(t0)
                ends.append(t1)
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after_gcd(self, args, kwargs, out):
        if not self.depth[self._gcd_idx]:
            self.gcd_top += 1
            if not out.is_constant():
                self.gcd_nontrivial += 1

    def _after_rref(self, args, kwargs, out):
        rows, ncols = args[0], args[1]
        cells = len(rows) * ncols
        self.rref_cells += cells
        self.rref_max_cells = max(self.rref_max_cells, cells)
        if len(out[1]) == min(len(rows), ncols):
            self.rref_full_rank += 1

    def _normalizing_init(self, init, idx):
        traced = self._wrap(init, idx)

        def init_wrapper(obj, num, den=None, _normalized=False):
            if _normalized or self.paused:
                return init(obj, num, den, _normalized)
            traced(obj, num, den)
            terms = len(obj.num.terms) + len(obj.den.terms)
            if terms > self.peak_terms:
                self.peak_terms = terms
            return None

        init_wrapper.__wrapped__ = init
        return init_wrapper

    @contextmanager
    def suspended(self):
        """Let the harness's own calls into vessiot (such as rendering an
        answer) through untraced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation ---------------------------------------------------
    def install(self):
        for mod, _, _ in TARGETS:
            importlib.import_module(f"vessiot.{mod}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "vessiot" or name.startswith("vessiot.")]
        self._gcd_idx = self.names.index("symcore.poly_gcd")
        for idx, (mod, attr, name) in enumerate(TARGETS):
            owner = sys.modules[f"vessiot.{mod}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[attr]
                if name == "symcore.normalize":
                    wrapper = self._normalizing_init(orig, idx)
                else:
                    wrapper = self._wrap(orig, idx)
                holders = [owner]
            else:
                orig = getattr(owner, attr)
                after = {"symcore.poly_gcd": self._after_gcd,
                         "linalg.rref": self._after_rref}.get(name)
                wrapper = self._wrap(orig, idx, after)
                holders = modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._restore.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore = []

    # -- results --------------------------------------------------------
    def metrics(self):
        """Per-layer values by metric name (see BENCHMARK.json)."""
        idx = {name: i for i, name in enumerate(self.names)}
        out = {}
        for name, i in idx.items():
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.s"] = self.incl[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out["symcore.poly_gcd.nontrivial_ratio"] = (
            self.gcd_nontrivial / self.gcd_top if self.gcd_top else 0.0
        )
        out["symcore.expr.peak_terms"] = self.peak_terms
        rref_calls = self.calls[idx["linalg.rref"]]
        out["linalg.rref.cells"] = self.rref_cells
        out["linalg.rref.max_cells"] = self.rref_max_cells
        out["linalg.rref.full_rank_ratio"] = (
            self.rref_full_rank / rref_calls if rref_calls else 0.0
        )
        return out

    def write(self, path, item_ids):
        """Write the spans: a JSON header beside one binary file per
        column (native byte order, ``array`` type codes in the header)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "id": self.span_id, "parent": self.span_parent,
            "item": self.span_item, "name": self.span_name,
            "start": self.span_start, "end": self.span_end,
        }
        header = {
            "spans": len(self.span_id),
            "names": self.names,
            "items": item_ids,
            "setup_item": SETUP_ITEM,
            "byteorder": sys.byteorder,
            "columns": {k: a.typecode for k, a in columns.items()},
        }
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(header, fh)
        for key, column in columns.items():
            with open(path.with_suffix(f".{key}.bin"), "wb") as fh:
                column.tofile(fh)

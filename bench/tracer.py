"""Spans and work counters recorded from outside lieorbits, for the traced run.

Each listed function is replaced by a wrapper on its home module and on
every lieorbits module that re-binds it with `from .x import y`, so calls
through module globals inside the package are caught too.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time of the wrapped spans it caused; the argument scans that feed the
kernel counters are excluded from every span's self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import wraps
from time import perf_counter_ns

TARGETS = {
    "linalg": (
        "rank",
        "charpoly",
        "mat_mul",
        "nullspace",
        "solve",
        "inverse",
        "poly_divmod",
        "poly_xgcd",
        "poly_compose_mod",
        "poly_eval_matrix",
        "rational_roots",
    ),
    "rootsys": (
        "build_root_system",
        "longest_element",
        "dual_subset",
        "parabolic_data",
        "apply_word_root",
        "coroot_pairing",
        "maximal_root",
    ),
    "sln": (
        "ad_matrix",
        "bracket",
        "centralizer_dim",
        "jordan_chevalley",
        "invariants_phi",
        "is_semisimple",
        "is_nilpotent",
        "same_orbit",
        "rational_eigenvalues",
    ),
    "triples": ("jacobson_morozov_sln", "verify_matrix_triple", "kostant_principal"),
    "orbits": ("partitions", "dominance_leq", "closure_leq_rank", "hasse_diagram"),
    "ssorbits": ("simple_values", "centralizer_root_set", "verify_dual_parabolic", "compactification_dims"),
    "topology": ("exponents",),
    "minorbit": ("min_orbit_report",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
COUNTERS = ("linalg.mat_mul.mults", "linalg.rank.cells", "linalg.entry_bits_max")


def _entry_bits(args) -> int:
    """Largest numerator or denominator bit length in matrix, vector or scalar arguments."""
    top = 0
    for a in args:
        items = a if isinstance(a, list) else (a,)
        for row in items:
            for x in row if isinstance(row, list) else (row,):
                num = getattr(x, "numerator", None)
                if num is not None:
                    top = max(top, num.bit_length(), x.denominator.bit_length())
    return top


class Tracer:
    def __init__(self):
        self.names = list(FUNCTIONS)
        self.calls = [0] * len(FUNCTIONS)
        self.self_ns = [0] * len(FUNCTIONS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = array("q")  # flattened (name id, parent span id, start ns, end ns)
        self._child_ns: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._name_ids: dict[str, int] = {}

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "lieorbits" or name.startswith("lieorbits.")]
        for idx, qual in enumerate(FUNCTIONS):
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules[f"lieorbits.{mod_name}"], fn_name)
            wrapper = self._wrap(idx, original, self._pre_hook(mod_name, fn_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _pre_hook(self, mod_name, fn_name):
        if mod_name != "linalg":
            return None
        counters = self.counters

        def scan(args):
            bits = _entry_bits(args)
            if bits > counters["linalg.entry_bits_max"]:
                counters["linalg.entry_bits_max"] = bits
            if fn_name == "mat_mul":
                a, b = args
                counters["linalg.mat_mul.mults"] += len(a) * len(b) * (len(b[0]) if b else 0)
            elif fn_name == "rank":
                m = args[0]
                counters["linalg.rank.cells"] += len(m) * (len(m[0]) if m else 0)

        return scan

    def _wrap(self, idx, fn, pre):
        calls, self_ns, spans = self.calls, self.self_ns, self.spans
        child_ns, open_ids = self._child_ns, self._open

        @wraps(fn)
        def wrapper(*args, **kwargs):
            s0 = perf_counter_ns()
            if pre is not None:
                pre(args)
            sid = len(spans) >> 2
            t0 = perf_counter_ns()
            spans.extend((idx, open_ids[-1] if open_ids else -1, t0, 0))
            open_ids.append(sid)
            child_ns.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                spans[4 * sid + 3] = t1
                open_ids.pop()
                calls[idx] += 1
                self_ns[idx] += t1 - t0 - child_ns.pop()
                if child_ns:
                    child_ns[-1] += t1 - s0

        return wrapper

    # -- op spans (the roots: one per benchmark op) -----------------------

    def begin_op(self, kind: str) -> None:
        name = f"op.{kind}"
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.spans) >> 2
        self.spans.extend((self._name_ids[name], -1, perf_counter_ns(), 0))
        self._open.append(sid)
        self._child_ns.append(0)

    def end_op(self) -> None:
        sid = self._open.pop()
        self._child_ns.pop()
        self.spans[4 * sid + 3] = perf_counter_ns()

    # -- output ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, calls, ns in zip(FUNCTIONS, self.calls, self.self_ns):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = ns / 1e6
        out.update(self.counters)
        return out

    def write_spans(self, path: str) -> int:
        """One JSON line per span: [name, parent span id, start us, duration us]; returns the count."""
        s = self.spans
        origin = s[2] if s else 0
        with open(path, "w") as fh:
            for k in range(0, len(s), 4):
                fh.write(
                    json.dumps([self.names[s[k]], s[k + 1], (s[k + 2] - origin) / 1e3, (s[k + 3] - s[k + 2]) / 1e3])
                )
                fh.write("\n")
        return len(s) // 4

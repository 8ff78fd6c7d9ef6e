"""Outside-in layer tracing for the benchmark.

The library has no trace hooks of its own, so the benchmark wraps the
public functions that form its layers.  A function is replaced in every
``albx`` module namespace that holds it (``from .x import f`` copies the
reference, so wrapping only the defining module would miss most calls);
a method is replaced on its class.

Spans live in flat integer arrays while the workload runs and are
aggregated, and written out, only after timing stops.  A span's self
time is its duration minus the time covered by its direct child spans;
work outside any wrapped function is not attributed to a layer.
"""

from array import array
import contextlib
import functools
import gzip
import json
import sys
import time

# (metric prefix, module, attribute path) for every traced layer.
LAYERS = (
    ("cli.main", "albx.cli", "main"),
    ("cli.parse_expression", "albx.cli", "parse_expression"),
    ("curve.load_config", "albx.curve", "load_config"),
    ("curve.validate", "albx.curve", "validate"),
    ("infdiv.etale_kernel", "albx.infdiv", "etale_kernel"),
    ("infdiv.lie_kernel", "albx.infdiv", "lie_kernel"),
    ("linalg.integer_kernel_basis", "albx.linalg", "integer_kernel_basis"),
    ("linalg.integer_kernel_hnf", "albx.linalg", "integer_kernel_hnf"),
    ("linalg.hnf_rows", "albx.linalg", "hnf_rows"),
    ("linalg.lll_reduce", "albx.linalg", "lll_reduce"),
    ("linalg.rational_kernel_basis", "albx.linalg", "rational_kernel_basis"),
    ("linalg.RowSpan.add", "albx.linalg", "RowSpan.add"),
    ("motive.albanese", "albx.motive", "albanese"),
    ("motive.one_motive", "albx.motive", "one_motive"),
    ("motive.dualize", "albx.motive", "dualize"),
    ("sampling.CartierUnitSampler.build", "albx.sampling", "CartierUnitSampler.__init__"),
    ("sampling.CartierUnitSampler.draw", "albx.sampling", "CartierUnitSampler.draw"),
    ("chow.certify_cartier", "albx.chow", "certify_cartier"),
    ("chow.div_C", "albx.chow", "div_C"),
    ("chow.abel_jacobi", "albx.chow", "abel_jacobi"),
    ("chow.albanese_pairing", "albx.chow", "albanese_pairing"),
    ("chow.interpolate_divisor", "albx.chow", "interpolate_divisor"),
    ("symbols.reciprocity_check", "albx.symbols", "reciprocity_check"),
    ("symbols.tame_symbol", "albx.symbols", "tame_symbol"),
    ("symbols.residue_symbol", "albx.symbols", "residue_symbol"),
    ("funcfield.split_divisor", "albx.funcfield", "split_divisor"),
    ("funcfield.rational_roots", "albx.funcfield", "rational_roots"),
    ("funcfield.dlog", "albx.funcfield", "dlog"),
    ("funcfield.expand_at", "albx.funcfield", "expand_at"),
    ("funcfield.RatFunc.dlog_ratfunc", "albx.funcfield", "RatFunc.dlog_ratfunc"),
    ("funcfield.Poly.gcd", "albx.funcfield", "Poly.gcd"),
    ("arith.factorint", "albx.arith", "factorint"),
)

ROOT = -1  # parent index of a top-level span
SETUP_OP = -2  # op id of spans recorded during the traced set-up
PROBE_OP = -3  # op id of spans recorded by known-failure probes


class Tracer:
    """Records nested spans for the wrapped layers of one process."""

    def __init__(self):
        self.names = ["bench.op"] + [prefix for prefix, _, _ in LAYERS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_failed = array("b")
        self.stack = [ROOT]
        self.op_id = -1
        self.roots_max_degree = 0
        self.roots_max_bits = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _call(self, name_id, fn, args, kwargs):
        """fn(*args, **kwargs) inside a span of the named layer."""
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op_id)
        self.span_failed.append(1)
        self.span_end.append(0)  # set when the span closes, children first
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        try:
            result = fn(*args, **kwargs)
            self.span_failed[idx] = 0
            return result
        finally:
            self.span_end[idx] = time.perf_counter_ns()
            self.stack.pop()

    def op(self, op_id, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op_id = op_id
        return self._call(0, fn, args, {})

    def _wrap(self, prefix, fn):
        name_id = self.name_id[prefix]
        tracer = self
        watch_roots = prefix == "funcfield.rational_roots"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if watch_roots:
                tracer._note_roots_input(args[0])
            return tracer._call(name_id, fn, args, kwargs)

        return wrapper

    def _note_roots_input(self, poly):
        self.roots_max_degree = max(self.roots_max_degree, poly.degree)
        bits = 0
        for c in poly.coeffs:
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
        self.roots_max_bits = max(self.roots_max_bits, bits)

    # -- installing the wrappers -----------------------------------------

    def install(self):
        """Wrap every layer in every loaded albx module namespace."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "albx" or name.startswith("albx."))
        ]
        for prefix, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(prefix, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def span_count(self):
        return len(self.span_name)

    def aggregate(self, ops):
        """Per-layer metrics over every recorded span.

        The ratios count only spans inside the `ops` benchmark
        operations, not those of the traced set-up or of probes.
        """
        n = len(self.span_name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, failed, op_ids = self.span_parent, self.span_failed, self.span_op
        child_ns = [0] * n
        for i in range(n):
            p = parents[i]
            if p != ROOT:
                child_ns[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        fails = [0] * len(self.names)
        draw_id = self.name_id["sampling.CartierUnitSampler.draw"]
        cert_id = self.name_id["chow.certify_cartier"]
        certify_in_draw = certify_in_ops = draws_returned = 0
        for i in range(n):
            k = names[i]
            dur = ends[i] - starts[i]
            calls[k] += 1
            self_ns[k] += dur - child_ns[i]
            fails[k] += failed[i]
            # total time counts only the outermost span of a name, so a
            # layer that re-enters itself is not counted twice
            p, nested, in_draw = parents[i], False, False
            while p != ROOT:
                nested = nested or names[p] == k
                in_draw = in_draw or names[p] == draw_id
                p = parents[p]
            if not nested:
                total_ns[k] += dur
            if op_ids[i] < 0:
                continue
            if k == cert_id:
                certify_in_ops += 1
                certify_in_draw += in_draw
            elif k == draw_id and not failed[i]:
                draws_returned += 1
        out = {}
        for prefix, _, _ in LAYERS:
            k = self.name_id[prefix]
            out[f"{prefix}.calls"] = (calls[k], "count")
            out[f"{prefix}.total_s"] = (total_ns[k] / 1e9, "s")
            out[f"{prefix}.self_s"] = (self_ns[k] / 1e9, "s")
        build_id = self.name_id["sampling.CartierUnitSampler.build"]
        out["funcfield.rational_roots.max_degree"] = (self.roots_max_degree, "count")
        out["funcfield.rational_roots.max_coeff_bits"] = (self.roots_max_bits, "bits")
        out["sampling.CartierUnitSampler.build.failures"] = (fails[build_id], "count")
        out["sampling.CartierUnitSampler.draw.accept_ratio"] = (
            draws_returned / certify_in_draw if certify_in_draw else 0.0,
            "ratio",
        )
        out["chow.certify_cartier.calls_per_op"] = (
            certify_in_ops / ops if ops else 0.0,
            "1/op",
        )
        return out

    def write(self, path):
        """All spans as gzipped JSON lines: name, start/end ns, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.span_name)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.span_name[i]],
                            self.span_start[i],
                            self.span_end[i],
                            self.span_parent[i],
                            self.span_op[i],
                            self.span_failed[i],
                        ]
                    )
                    + "\n"
                )

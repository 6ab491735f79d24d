"""Per-layer tracing of cavdip for the benchmark's traced run.

cavdip's modules bind each other's functions with ``from .x import y``,
so a function is wrapped in every module that binds it, not only where
it is defined.  Each wrapped call records a span (name, start, end,
parent span, operation, error) in memory; the spans are written out when
the run ends.  The Bessel kernels are called up to 1e5 times per Green
evaluation, so they are counted (calls, elements, busy time) instead of
getting spans of their own; their time still counts as child time of
the span that called them.

The untraced run never imports this module.  A function that a later
version of cavdip no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import importlib
import json
import time

perf = time.perf_counter

#: modules whose bindings are wrapped: the callers.  The defining modules
#: quadrature, bessel and atoms are left alone, so a layer's internal
#: helper calls do not count as calls into that layer.
MODULES = ("cavdip.cli", "cavdip.vdw", "cavdip.static", "cavdip.green",
           "cavdip.verification")
SPANS = {
    "cmd_sweep": "cli.sweep",
    "cmd_eval": "cli.eval",
    "load_two_atom_config": "atoms.load",
    "v_off_dimensionless": "vdw.v_off",
    "w_off_full": "vdw.w_off",
    "v_res_dimensionless": "vdw.v_res",
    "w_resonant": "vdw.w_res",
    "v_static_dimensionless": "static.v_static",
    "w_static_full": "static.w_static",
    "green_modesum": "green.modesum",
    "re_green_modesum": "green.re_modesum",
    "im_green_modesum": "green.im_modesum",
    "d_dk_k2_re_green": "green.dk",
    "green_reflection_series": "green.series",
    "kramers_kronig_re": "green.kk",
    "greens_q_integral_oracle": "green.oracle",
    "green_imaginary_freq": "green.imagfreq",
    "integrate_finite": "quadrature.integrate",
    "integrate_semi_infinite_damped": "quadrature.integrate",
    "integrate_oscillatory_tail": "quadrature.integrate",
}
LEAVES = {"bessel_j": "bessel.j", "bessel_y": "bessel.y",
          "bessel_k": "bessel.k"}
#: layer -> enclosing layer whose nested calls are counted separately
UNDER = {"green.imagfreq": "vdw.v_off", "bessel.k": "green.re_modesum"}
#: layer -> work figure taken from the result
EXTRA = {"green.series": lambda res: res.m_used,
         "static.v_static": lambda res: sum(res.n_used)}


class Layer:
    __slots__ = ("calls", "total", "self_time", "extra", "errors", "under",
                 "elements")

    def __init__(self):
        self.calls = self.errors = self.under = self.elements = 0
        self.total = self.self_time = self.extra = 0.0


class Tracer:
    """Wraps cavdip's layer boundaries and aggregates what they do."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.spans: list = []
        self.stack: list = []          # [span index, child time]
        self.active: dict[str, int] = {}
        self.op = None
        self._saved: list = []

    def layer(self, name: str) -> Layer:
        return self.layers.get(name) or self.layers.setdefault(name, Layer())

    def reset(self):
        self.layers.clear()
        self.spans.clear()

    # -- wrapping ---------------------------------------------------------

    def install(self):
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for table, make in ((SPANS, self._span), (LEAVES, self._leaf)):
                for attr, name in table.items():
                    fn = getattr(mod, attr, None)
                    if callable(fn):
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, make(name, fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            if name == "quadrature.integrate" and args:
                args = (self._counted(args[0]),) + args[1:]
            return self._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, f):
        lay = self.layer("quadrature.integrate")

        def integrand(x):
            lay.elements += len(x)
            return f(x)
        return integrand

    def _call(self, name, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self.stack.append(frame)
        self.active[name] = self.active.get(name, 0) + 1
        lay = self.layer(name)
        if name in UNDER and self.active.get(UNDER[name]):
            lay.under += 1
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(name, lay, frame, parent, t0, type(exc).__name__)
            raise
        self._close(name, lay, frame, parent, t0, None)
        if name in EXTRA:
            lay.extra += EXTRA[name](result)
        return result

    def _close(self, name, lay, frame, parent, t0, error):
        t1 = perf()
        self.stack.pop()
        self.active[name] -= 1
        dur = t1 - t0
        if self.stack:
            self.stack[-1][1] += dur
        self.spans[frame[0]] = (name, t0, t1, parent, self.op, error)
        lay.calls += 1
        lay.total += dur
        lay.self_time += dur - frame[1]
        if error:
            lay.errors += 1

    def _leaf(self, name, fn):
        lay = self.layer(name)
        under = UNDER.get(name)

        def wrapper(order, x):
            t0 = perf()
            out = fn(order, x)
            dt = perf() - t0
            lay.calls += 1
            lay.elements += getattr(x, "size", 1)
            lay.total += dt
            if under and self.active.get(under):
                lay.under += 1
            if self.stack:
                self.stack[-1][1] += dt
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -----------------------------------------------------------

    def dump(self, path: str):
        """Write the spans, then one summary line per layer (JSON lines)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(
                        ("name", "start", "end", "parent", "op", "error"),
                        span))) + "\n")
            for name, lay in sorted(self.layers.items()):
                fh.write(json.dumps({"layer": name, **{
                    k: getattr(lay, k) for k in Layer.__slots__}}) + "\n")

    def metrics(self, passes: int) -> dict:
        """Per-layer figures, per pass of the op list where they count."""
        def get(name):
            return self.layers.get(name) or Layer()

        def per_pass(v):
            return v / passes

        def ms_per_call(name):
            lay = get(name)
            return 1e3 * lay.total / lay.calls if lay.calls else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        imag = get("green.imagfreq")
        m["green.imagfreq.calls"] = (per_pass(imag.calls), "count")
        m["green.imagfreq.ms_per_call"] = (ms_per_call("green.imagfreq"),
                                           "ms")
        m["vdw.v_off.green_calls_per_point"] = (
            ratio(imag.under, get("vdw.v_off").calls), "count")
        m["vdw.v_off.ms_per_call"] = (ms_per_call("vdw.v_off"), "ms")
        quad = get("quadrature.integrate")
        m["quadrature.integrate.calls"] = (per_pass(quad.calls), "count")
        m["quadrature.integrate.nodes"] = (per_pass(quad.elements), "count")
        m["quadrature.integrate.self_s"] = (per_pass(quad.self_time), "s")
        m["green.modesum.ms_per_call"] = (ms_per_call("green.modesum"), "ms")
        m["green.re_modesum.ms_per_call"] = (
            ms_per_call("green.re_modesum"), "ms")
        m["bessel.k.calls_per_modesum"] = (
            ratio(get("bessel.k").under, get("green.re_modesum").calls),
            "count")
        m["green.im_modesum.ms_per_call"] = (
            ms_per_call("green.im_modesum"), "ms")
        m["vdw.v_res.ms_per_call"] = (ms_per_call("vdw.v_res"), "ms")
        m["green.dk.ms_per_call"] = (ms_per_call("green.dk"), "ms")
        m["green.dk.failures"] = (per_pass(get("green.dk").errors), "count")
        vst = get("static.v_static")
        m["static.v_static.ms_per_call"] = (ms_per_call("static.v_static"),
                                            "ms")
        m["static.v_static.terms_mean"] = (ratio(vst.extra, vst.calls),
                                           "count")
        series = get("green.series")
        m["green.series.ms_per_call"] = (ms_per_call("green.series"), "ms")
        m["green.series.m_used_mean"] = (ratio(series.extra, series.calls),
                                         "count")
        m["green.kk.ms_per_call"] = (ms_per_call("green.kk"), "ms")
        m["green.oracle.ms_per_call"] = (ms_per_call("green.oracle"), "ms")
        for kind in "jyk":
            lay = get(f"bessel.{kind}")
            m[f"bessel.{kind}.calls"] = (per_pass(lay.calls), "count")
            m[f"bessel.{kind}.elements"] = (per_pass(lay.elements), "count")
            m[f"bessel.{kind}.elements_per_s"] = (
                ratio(lay.elements, lay.total), "1/s")
        m["vdw.w_off.ms_per_call"] = (ms_per_call("vdw.w_off"), "ms")
        m["vdw.w_res.ms_per_call"] = (ms_per_call("vdw.w_res"), "ms")
        m["static.w_static.ms_per_call"] = (ms_per_call("static.w_static"),
                                            "ms")
        m["cli.sweep.self_s"] = (per_pass(get("cli.sweep").self_time), "s")
        load = get("atoms.load")
        m["atoms.load.s"] = (ratio(load.total, load.calls), "s")
        return m

"""Per-layer tracing of mecforge from outside the package.

`Tracer.install` replaces every public function of each mecforge module,
and each public method of the classes those modules define, with a
wrapper that times the call as a span.  Each span adds its duration to
its parent's child time, so a span's self time is its duration minus its
children's.  Spans are folded into per-name totals as they close: the
per-element calls (a cube root per curve point) number in the millions,
too many to keep one record each.

A few hot inner functions are counted but not timed, so that their cost
stays in the caller's self time and the count is cheap.  `uninstall`
puts every original back.  Nothing under src/ is modified on disk.
"""

import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("field", "mec", "ordering", "generator", "analysis", "gf256", "cli")

# Counted, not timed.  Private names are listed here because nothing else
# exposes the count (one Walsh-Hadamard pass per component function).
COUNT_ONLY = {
    "gf256.mul": "gf256.mul",
    "analysis._walsh_spectrum_row": "analysis.walsh_pass",
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = [[0.0]]
        self._patches = []

    # --- spans ------------------------------------------------------------------

    def timed(self, name, fn, after=None):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                stack[-1][0] += duration
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # --- installing -------------------------------------------------------------

    def _after_hooks(self):
        counts = self.counts

        def ranked(args, result):
            counts["ordering.points_ranked"] += len(result)

        def pstar(args, result):
            counts["generator.curves_swept"] += args[0].p - 1

        def family(args, result):
            counts["generator.curves_swept"] += len(result.sboxes) + len(result.errors)
            counts["generator.family_errors"] += len(result.errors)

        return {"ordering.rank_of_y": ranked, "generator.pstar": pstar,
                "generator.enumerate_family": family}

    def install(self, mf):
        """Wrap the layers of the mecforge modules held by namespace `mf`."""
        hooks = self._after_hooks()
        wrappers = {}
        for layer in LAYERS:
            module = getattr(mf, layer)
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                if key in COUNT_ONLY:
                    wrappers[obj] = self.counted(COUNT_ONLY[key], obj)
                elif not name.startswith("_"):
                    wrappers[obj] = self.timed(key, obj, hooks.get(key))
            for cname, cls in vars(module).items():
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for name, obj in vars(cls).items():
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        self._patch(cls, name, self.timed(f"{layer}.{cname}.{name}", obj))
        # Functions imported by name into other modules are patched there too.
        for module in mf.all_modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # --- reading ----------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def per_layer_metrics(self, ops: int, overhead: float, scale: float) -> dict:
        """The per-layer metrics, each a mean per traced op; times are
        multiplied by `scale`, the run's speed-probe scale."""
        calls, counts = self.calls, self.counts

        def ms(*names):
            return sum(self.self_s[n] for n in names) * 1e3 / ops * scale

        def layer_ms(layer):
            return self.layer_self_s(layer) * 1e3 / ops * scale

        rows = [
            ("field.cube_root.calls", calls["field.PrimeModulus.cube_root"] / ops, "count/op"),
            ("field.cube_root.self_ms", ms("field.PrimeModulus.cube_root"), "ms/op"),
            ("field.inverse.calls", calls["field.PrimeModulus.inverse"] / ops, "count/op"),
            ("field.qr.calls", calls["field.PrimeModulus.is_quadratic_residue"] / ops, "count/op"),
            ("mec.x_lookups", calls["mec.x_for_y"] / ops, "count/op"),
            ("mec.enumerate_points.calls", calls["mec.enumerate_points"] / ops, "count/op"),
            ("mec.self_ms", layer_ms("mec"), "ms/op"),
            ("ordering.points_ranked", counts["ordering.points_ranked"] / ops, "count/op"),
            ("ordering.self_ms", layer_ms("ordering"), "ms/op"),
            ("generator.sboxes",
             (calls["generator.sbox_direct"] + calls["generator.sbox_iso"]) / ops, "count/op"),
            ("generator.sequences", calls["generator.sprn"] / ops, "count/op"),
            ("generator.curves_swept", counts["generator.curves_swept"] / ops, "count/op"),
            ("generator.family_errors", counts["generator.family_errors"] / ops, "count/op"),
            ("generator.self_ms", layer_ms("generator"), "ms/op"),
            ("analysis.nonlinearity.self_ms", ms("analysis.nonlinearity"), "ms/op"),
            ("analysis.lap.self_ms", ms("analysis.lap"), "ms/op"),
            ("analysis.dap.self_ms", ms("analysis.dap"), "ms/op"),
            ("analysis.sac.self_ms", ms("analysis.sac_matrix", "analysis.sac_range"), "ms/op"),
            ("analysis.bic.self_ms", ms("analysis.bic_matrix", "analysis.bic_range"), "ms/op"),
            ("analysis.ac.self_ms", ms("analysis.algebraic_complexity"), "ms/op"),
            ("analysis.period.self_ms", ms("analysis.period"), "ms/op"),
            ("analysis.entropy.self_ms", ms("analysis.entropy"), "ms/op"),
            ("analysis.walsh_passes", calls["analysis.walsh_pass"] / ops, "count/op"),
            # poly_eval and inv run only inside interpolate; their time is its work.
            ("gf256.interpolate.self_ms",
             ms("gf256.interpolate", "gf256.poly_eval", "gf256.inv"), "ms/op"),
            ("gf256.mul.calls", calls["gf256.mul"] / ops, "count/op"),
            ("cli.format.self_ms", ms("cli.format_sbox", "cli.format_sequence"), "ms/op"),
            ("cli.parse.self_ms",
             ms("cli.parse_sbox", "cli.parse_sequence", "cli.parse_integer_tokens"), "ms/op"),
            ("trace.overhead", overhead, "ratio"),
        ]
        return {name: {"value": value, "unit": unit} for name, value, unit in rows}

"""Span tracing of wulffdrop's public functions, installed from outside.

The tracer replaces each target function at every module binding that
holds it (``reduced.minimize_direct`` and ``cli``'s imported name alike), so
calls through any import path are seen.  Each call records a span: name,
start, end, parent span and case id.  Spans stay in memory; ``layer_metrics``
derives calls, self time (span time minus the time covered by child spans)
and the solver counters from them.

Nothing here is imported by the untimed end-to-end passes.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# (module, function) pairs that are traced.  phi_partials and the I/O helpers
# are wrapped at each importing module's binding, like every other target.
TARGETS = [
    ("reduced", "minimize_direct"),
    ("reduced", "reduced_energy"),
    ("reduced", "reduced_volume"),
    ("odesolve", "shoot"),
    ("odesolve", "integrate_v"),
    ("odesolve", "reconstruct_profile"),
    ("competitor", "find_nonconvexity"),
    ("competitor", "apply_competitor"),
    ("competitor", "repair_profile"),
    ("wulff", "build_wulff_body"),
    ("sets", "energy"),
    ("sets", "symmetrize"),
    ("sets", "jensen_gap"),
    ("tension", "phi_partials"),
    ("cli", "write_profile_csv"),
    ("cli", "write_json"),
]


class Span:
    __slots__ = ("name", "parent", "case", "start", "end", "attrs")

    def __init__(self, name, parent, case, start):
        self.name = name
        self.parent = parent
        self.case = case
        self.start = start
        self.end = start
        self.attrs = None


def _describe(name, args, kwargs, result, exc):
    """Per-call attributes the layer metrics need, or None."""
    if name == "reduced.minimize_direct":
        meta = getattr(result, "meta", None)
        if meta is None and exc is not None:
            meta = getattr(getattr(exc, "state", None), "meta", None)
        if meta:
            return {"iterations": int(meta["iterations"]),
                    "converged": bool(meta["converged"]),
                    "repairs": int(meta["repairs"])}
    elif name == "wulff.build_wulff_body":
        m = args[1] if len(args) > 1 else kwargs.get("m_normals", 1024)
        return {"m_normals": int(m)}
    elif name == "competitor.repair_profile":
        meta = getattr(result, "meta", None) or {}
        return {"kept": meta.get("energy_drop", 0.0) > 0.0}
    elif name in ("cli.write_profile_csv", "cli.write_json") and exc is None:
        return {"bytes": os.path.getsize(args[0])}
    if exc is not None:
        return {"error": type(exc).__name__}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = None
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.case, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self._close(span)
                span.attrs = _describe(name, args, kwargs, result, exc)
        return traced

    def install(self):
        """Replace every target at every wulffdrop module binding."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wulffdrop" or n.startswith("wulffdrop.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules["wulffdrop." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[Span], cache_misses: dict) -> dict:
    """Per-layer metrics (name -> value) derived from one traced pass."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, span in enumerate(spans):
        dur = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + dur - child[i]
        total_s[span.name] = total_s.get(span.name, 0.0) + dur

    def attrs(name):
        return [s.attrs or {} for s in spans if s.name == name]

    def ratio(num, den):
        return num / den if den else 0.0

    direct = attrs("reduced.minimize_direct")
    iterations = sum(a.get("iterations", 0) for a in direct)
    kept = (sum(a.get("repairs", 0) for a in direct)
            + sum(1 for a in attrs("competitor.repair_profile") if a.get("kept")))
    attempts = calls.get("competitor.apply_competitor", 0)
    failures = sum(1 for a in attrs("competitor.apply_competitor")
                   if a.get("error") in ("HypothesisViolated", "NoBracket",
                                         "SigmaOutOfRange"))
    body_self = {1024: 0.0, 4096: 0.0}
    for i, span in enumerate(spans):
        if span.name == "wulff.build_wulff_body":
            m = (span.attrs or {}).get("m_normals")
            if m in body_self:
                body_self[m] += span.end - span.start - child[i]
    io_names = ("cli.write_profile_csv", "cli.write_json")

    return {
        "reduced.minimize_direct.calls": calls.get("reduced.minimize_direct", 0),
        "reduced.minimize_direct.self_s": self_s.get("reduced.minimize_direct", 0.0),
        "reduced.minimize_direct.iterations": iterations,
        "reduced.minimize_direct.s_per_iter":
            ratio(total_s.get("reduced.minimize_direct", 0.0), iterations),
        "reduced.minimize_direct.converged_frac":
            ratio(sum(1 for a in direct if a.get("converged")), len(direct)),
        "reduced.minimize_direct.repairs": sum(a.get("repairs", 0) for a in direct),
        "reduced.reduced_energy.calls": calls.get("reduced.reduced_energy", 0),
        "reduced.reduced_volume.calls": calls.get("reduced.reduced_volume", 0),
        "odesolve.shoot.calls": calls.get("odesolve.shoot", 0),
        "odesolve.shoot.self_s": self_s.get("odesolve.shoot", 0.0),
        "odesolve.integrate_v.calls": calls.get("odesolve.integrate_v", 0),
        "odesolve.integrate_v.self_s": self_s.get("odesolve.integrate_v", 0.0),
        "odesolve.reconstruct_profile.self_s":
            self_s.get("odesolve.reconstruct_profile", 0.0),
        "odesolve.probes_per_shoot": ratio(calls.get("odesolve.integrate_v", 0),
                                           calls.get("odesolve.shoot", 0)),
        "competitor.find_nonconvexity.calls":
            calls.get("competitor.find_nonconvexity", 0),
        "competitor.apply_competitor.calls": attempts,
        "competitor.apply_competitor.self_s":
            self_s.get("competitor.apply_competitor", 0.0),
        "competitor.repair_profile.calls": calls.get("competitor.repair_profile", 0),
        "competitor.repair_profile.self_s":
            self_s.get("competitor.repair_profile", 0.0),
        "competitor.accept_ratio": ratio(kept, attempts),
        "competitor.failures": failures,
        "wulff.build_wulff_body.calls": calls.get("wulff.build_wulff_body", 0),
        "wulff.build_wulff_body.self_s": self_s.get("wulff.build_wulff_body", 0.0),
        "wulff.build_wulff_body.m1024.self_s": body_self[1024],
        "wulff.build_wulff_body.m4096.self_s": body_self[4096],
        "wulff.alpha_volume_table.misses": cache_misses["alpha_volume_table"],
        "wulff.alpha_spline.misses": cache_misses["alpha_spline"],
        "sets.energy.calls": calls.get("sets.energy", 0),
        "sets.energy.self_s": self_s.get("sets.energy", 0.0),
        "sets.symmetrize.calls": calls.get("sets.symmetrize", 0),
        "sets.symmetrize.self_s": self_s.get("sets.symmetrize", 0.0),
        "sets.jensen_gap.calls": calls.get("sets.jensen_gap", 0),
        "tension.phi_partials.calls": calls.get("tension.phi_partials", 0),
        "tension.phi_partials.self_s": self_s.get("tension.phi_partials", 0.0),
        "cli.io.self_s": sum(self_s.get(n, 0.0) for n in io_names),
        "cli.io.bytes": sum(a.get("bytes", 0) for n in io_names for a in attrs(n)),
    }

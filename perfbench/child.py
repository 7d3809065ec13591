"""One benchmark rep in a fresh interpreter: set up, run the CLI stages
through struprune.cli.main, and write a JSON result.

    python3 child.py <spec.json>

The parent sets the BLAS thread variables in this process's environment
before numpy loads and records the spawn time, so setup time covers
interpreter start, imports, `gen` and `calibrate`. With "trace" set, the
public functions of the traced modules are wrapped at every place they
are bound after set-up, and per-function span aggregates go into the
result. Spans assume one thread, which is why traced reps run the CLI
with --threads 1.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
import traceback
import types

from workloads import TRACED_MODULES


class TraceSetupError(Exception):
    pass


class Tracer:
    """Spans in memory: [function id, site id, parent span, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.functions: list[str] = []
        self.sites: list[str] = []
        self.flops = 0
        self.bytes_read = 0

    def _id(self, table: list[str], name: str) -> int:
        if name not in table:
            table.append(name)
        return table.index(name)

    def wrap(self, fn, func: str, site: str, before=None, after=None):
        func_id, site_id = self._id(self.functions, func), self._id(self.sites, site)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = [func_id, site_id, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if after is not None:
                    after(self, args, kwargs)

        return wrapper

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-function calls, inclusive time of outermost spans, self time,
        per-site call counts and the summed top-level span time of the
        spans with index in [lo, hi)."""
        spans = self.spans
        child_time: dict[int, float] = {}
        for i in range(lo, hi):
            parent = spans[i][2]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + spans[i][4] - spans[i][3]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        sites: dict[str, int] = {}
        top = 0.0
        for i in range(lo, hi):
            func_id, site_id, parent, start, end = spans[i]
            name = self.functions[func_id]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            key = f"{self.sites[site_id]}>{name}"
            sites[key] = sites.get(key, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(i, 0.0)
            outermost = True
            p = parent
            while p >= 0:
                if spans[p][0] == func_id:
                    outermost = False
                    break
                p = spans[p][2]
            if outermost:
                incl[name] = incl.get(name, 0.0) + dur
            if parent < 0:
                top += dur
        return {"calls": calls, "incl": incl, "self": self_s, "sites": sites, "top_s": top}


def _ridge_flops(tracer: Tracer, args, kwargs):
    # Nominal dense flops of ridge_solve(A (T x n), B (T x m)): Gram
    # 2Tn^2, right-hand side 2Tnm, Cholesky n^3/3, two triangular solves 2n^2m.
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    t, n = a.shape
    m = b.shape[1] if getattr(b, "ndim", 1) == 2 else 1
    tracer.flops += 2 * t * n * n + 2 * t * n * m + n ** 3 // 3 + 2 * n * n * m


def _model_bytes(tracer: Tracer, args, kwargs):
    path = args[0] if args else kwargs["path"]
    manifest = os.path.join(path, "manifest.json")
    with open(manifest, "r", encoding="utf-8") as fh:
        entries = json.load(fh).get("matrices", [])
    tracer.bytes_read += os.path.getsize(manifest) + sum(
        os.path.getsize(os.path.join(path, e["file"])) for e in entries
    )


def _calib_bytes(tracer: Tracer, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.bytes_read += sum(
        os.path.getsize(os.path.join(path, f)) for f in ("calib.json", "calib.bin")
    )


HOOKS = {
    "linalg.ridge_solve": (_ridge_flops, None),
    "model.load_model": (None, _model_bytes),
    "model.load_calibration": (None, _calib_bytes),
}


def install_tracer(required_functions, required_bindings) -> Tracer:
    """Wrap every public function defined in a traced module at each
    struprune module global that binds it, plus scipy.linalg.cho_factor
    (as "linalg.cholesky"). Raises TraceSetupError if a required
    function or binding no longer exists."""
    import scipy.linalg

    tracer = Tracer()
    modules = {
        name.split(".", 1)[1] if "." in name else name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "struprune" or name.startswith("struprune."))
    }
    wrapped = set()
    for site, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                continue
            package, _, owner = obj.__module__.partition(".")
            if package != "struprune" or owner not in TRACED_MODULES:
                continue
            func = f"{owner}.{obj.__name__}"
            before, after = HOOKS.get(func, (None, None))
            setattr(mod, attr, tracer.wrap(obj, func, site, before, after))
            wrapped.add(f"{site}.{attr}")
    if not hasattr(scipy.linalg, "cho_factor"):
        raise TraceSetupError("scipy.linalg.cho_factor is missing")
    scipy.linalg.cho_factor = tracer.wrap(scipy.linalg.cho_factor, "linalg.cholesky", "scipy")
    missing = sorted(
        {f for f in required_functions if f != "linalg.cholesky" and f not in wrapped}
        | {b for b in required_bindings if b not in wrapped}
    )
    if missing:
        raise TraceSetupError(f"traced names no longer exist: {', '.join(missing)}")
    return tracer


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result: dict = {"stages": [], "fatal": None}
    sys.path.insert(0, spec["src"])
    os.chdir(spec["workdir"])
    try:
        from struprune import cli
    except ImportError as exc:
        result["fatal"] = f"cannot import struprune from {spec['src']}: {exc}"
        return _finish(spec, result, 3)
    import struprune

    if os.path.dirname(os.path.abspath(struprune.__file__)) != os.path.join(spec["src"], "struprune"):
        result["fatal"] = f"imported struprune from {struprune.__file__}, not from {spec['src']}"
        return _finish(spec, result, 3)

    def run(name: str, argv: list[str]) -> bool:
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception:  # a crash is a failed stage, reported with its traceback
            error = traceback.format_exc(limit=-3)
        result["stages"].append(
            {"name": name, "seconds": time.perf_counter() - start, "error": error}
        )
        return error is None

    ok = all(run(argv[0], argv) for argv in spec["setup"])
    result["setup_done"] = time.monotonic()
    tracer = None
    if ok and spec["trace"]:
        try:
            tracer = install_tracer(spec["required_functions"], spec["required_bindings"])
        except TraceSetupError as exc:
            result["fatal"] = str(exc)
            return _finish(spec, result, 3)
    marks = []
    for name, argv in spec["stages"] if ok else []:
        lo = len(tracer.spans) if tracer else 0
        ok = run(name, argv)
        marks.append((lo, len(tracer.spans) if tracer else 0))
        if not ok:
            break
    if tracer is not None:
        result["trace"] = {
            "per_stage": [tracer.aggregate(lo, hi) for lo, hi in marks],
            "flops": tracer.flops,
            "bytes_read": tracer.bytes_read,
        }
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return _finish(spec, result, 0)


def _finish(spec: dict, result: dict, code: int) -> int:
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Span tracer installed from outside the program under test.

`install()` replaces every public function of the six `subsum` modules
with a wrapper that records one span per call: name, parent span, run
id, scalar arguments (n, class, engine, p, ...), start, duration, self
time and output size (degree and maximum coefficient bits).  Each
wrapper is installed wherever callers look the function up: on the
defining module, on every module that imported it by name, and inside
module-level tables such as `cli._RUNNERS`.  Nothing under `src/` is
edited.

Self time is a span's duration minus the time its wrapped children
cover.  The wrapper's own bookkeeping (argument capture, output sizing)
runs outside the timed interval and is credited to `bookkeeping_s`, not
to the caller.  `unwrapped_s` is measured, not inferred: the time from
the child's entry to the end of `dump()` that no root span covers.
Self times, bookkeeping and `unwrapped_s` together cover the child from
entry to dump; the parent's wall time adds only interpreter start
before entry and exit after the dump.  The call into a wrapper before
its first clock reading and the return after its last one fall inside
the caller's span, so they count in the caller's self time.  Hit ratios
of `lru_cache`d functions come from `cache_info()` deltas in `dump()`.

Spans are kept in memory as tuples and written as JSONL by `dump()`.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import types
from time import perf_counter

LAYERS = ("partitions", "intpoly", "cyclotomic", "reduction", "verify", "cli")

# Parameters recorded in a span's "args"; everything else (polynomials,
# mappings, prime tuples) is too large to log per call.
_ARG_NAMES = ("n", "pclass", "engine", "p", "max_n", "m", "d", "i", "e", "what")

_JSON = json.JSONEncoder(separators=(",", ":"))

# Span tuple layout, kept flat to make a span cheap to record.
_ID, _PARENT, _NAME, _START, _DUR, _SELF, _ARGS, _OUT, _EXTRA = range(9)


class Tracer:
    """Collects spans for one child invocation."""

    def __init__(self, run_id: str, entry: float):
        """`entry` is the perf_counter() reading taken when the child began."""
        self.run_id = run_id
        self.spans: list[tuple] = []
        # Open spans as [span id, time covered by wrapped children]; the
        # sentinel at the bottom collects the time of root spans.
        self.stack: list[list] = [[0, 0.0]]
        self.bookkeeping = 0.0
        self.origin = entry
        self.caches: dict[str, tuple] = {}
        self._next_id = 1

    def _charge(self, enter: float, t0: float, t1: float) -> None:
        """Book the wrapper's own time outside [t0, t1] and credit [enter, now] to the caller."""
        exit_ = perf_counter()
        self.bookkeeping += (t0 - enter) + (exit_ - t1)
        self.stack[-1][1] += exit_ - enter

    def wrap(self, qualname: str, fn):
        argspec = _arg_spec(fn)
        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn)):
            return self._wrap_generator(qualname, fn, argspec)
        sizer = _mul_packed_bits if qualname == "intpoly.mul" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = tracer.stack[-1][0]
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                extra = {} if sizer is None else {"packed_bits": sizer(*args)}
                tracer.spans.append((
                    span_id, parent_id, qualname, t0 - tracer.origin, t1 - t0, t1 - t0 - frame[1],
                    _args(argspec, args, kwargs), _size(result), extra,
                ))
                tracer._charge(enter, t0, t1)
            return result

        return wrapper

    def _wrap_generator(self, qualname: str, fn, argspec):
        """Time a generator only inside next(); one span per generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = tracer.stack[-1][0]
            start = enter - tracer.origin
            dur = self_s = 0.0
            items = 0
            gen = fn(*args, **kwargs)
            tracer._charge(enter, enter, enter)
            try:
                while True:
                    enter = perf_counter()
                    frame = [span_id, 0.0]
                    tracer.stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        tracer.stack.pop()
                        dur += t1 - t0
                        self_s += t1 - t0 - frame[1]
                        tracer._charge(enter, t0, t1)
                    items += 1
                    yield item
            finally:
                enter = perf_counter()
                gen.close()
                tracer.spans.append((
                    span_id, parent_id, qualname, start, dur, self_s,
                    _args(argspec, args, kwargs), {"items": items}, {},
                ))
                tracer._charge(enter, enter, enter)

        return wrapper

    # -- installation and output ------------------------------------------

    def install(self, modules: dict[str, types.ModuleType], package: types.ModuleType) -> None:
        """Wrap every public function of each layer and rebind it everywhere.

        `package` re-exports layer functions by name, so it is rebound too.
        """
        wrappers: dict[int, object] = {}  # id of the original -> its wrapper
        for layer, mod in modules.items():
            for name, value in list(vars(mod).items()):
                if name.startswith("_") or not _is_own_function(value, mod):
                    continue
                wrappers[id(value)] = self.wrap(f"{layer}.{name}", value)
                if hasattr(value, "cache_info"):
                    self.caches[f"{layer}.{name}"] = (value, value.cache_info())
        for mod in [package, *modules.values()]:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(_JSON.encode({
                    "run": self.run_id, "id": span[_ID], "parent": span[_PARENT] or None,
                    "name": span[_NAME], "start": span[_START], "dur": span[_DUR],
                    "self": span[_SELF], "args": span[_ARGS], "out": span[_OUT], **span[_EXTRA],
                }) + "\n")
            for name, (fn, start) in self.caches.items():
                now = fn.cache_info()
                fh.write(json.dumps({
                    "run": self.run_id, "kind": "cache", "name": name,
                    "hits": now.hits - start.hits, "misses": now.misses - start.misses,
                }) + "\n")
            # Time since entry not covered by root spans: imports, argument
            # parsing and the writing of this file so far.
            unwrapped = perf_counter() - self.origin - self.stack[0][1]
            fh.write(json.dumps({
                "run": self.run_id, "kind": "summary", "bookkeeping_s": self.bookkeeping,
                "unwrapped_s": unwrapped, "spans": len(self.spans),
            }) + "\n")


def _is_own_function(value, mod) -> bool:
    target = getattr(value, "__wrapped__", value)
    return isinstance(target, types.FunctionType) and target.__module__ == mod.__name__


def _arg_spec(fn):
    """(names, defaults) of the recorded parameters, or None if it has none."""
    params = list(inspect.signature(fn).parameters.values())
    if not any(p.name in _ARG_NAMES for p in params):
        return None
    names = tuple(p.name for p in params)
    defaults = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}
    return names, defaults


def _args(argspec, args, kwargs) -> dict | None:
    if argspec is None:
        return None
    names, defaults = argspec
    bound = dict(defaults)
    bound.update(zip(names, args))
    bound.update(kwargs)
    out = {}
    for name in _ARG_NAMES:
        if name in bound:
            value = bound[name]
            if isinstance(value, enum.Enum):
                value = value.value
            if isinstance(value, (int, str)):
                out["class" if name == "pclass" else name] = value
    return out


def _poly_size(coeffs) -> dict:
    return {
        "degree": len(coeffs) - 1,
        "bits": max((abs(c).bit_length() for c in coeffs), default=0),
    }


def _size(result):
    """Output size: degree and max coefficient bits for a polynomial."""
    if isinstance(result, tuple) and all(type(c) is int for c in result):
        return _poly_size(result)
    num = getattr(result, "num", None)  # reduction.ReducedPair
    if isinstance(num, tuple):
        return _poly_size(num)
    if isinstance(result, bool):
        return {"value": result}
    if isinstance(result, int):
        return {"bits": result.bit_length()}
    if isinstance(result, enum.Enum):
        return {"value": result.value}
    if isinstance(result, (dict, list)):
        return {"len": len(result)}
    return None


def _mul_packed_bits(a, b) -> int:
    """Kronecker digit width times packed length, for inputs `mul` packs.

    Defined on the inputs alone, so it counts the size of the products
    the program asks for, not how fast it packs them.
    """
    if len(a) < 2 or len(b) < 2:
        return 0
    bound = max(abs(c) for c in a) * max(abs(c) for c in b) * min(len(a), len(b))
    return (bound.bit_length() + 2) * (len(a) + len(b))

"""Run one `subsum` CLI invocation in this process, optionally traced.

    python3 -I bench/child.py SRC -- ARGV...
    python3 -I bench/child.py SRC --trace FILE RUN_ID -- ARGV...

SRC is the `src/` directory of the checkout under test; it is put first
on `sys.path` and the imported package must come from it.  Without
`--trace` this does what the `subsum` console script does.  With it, the
tracer wraps every layer's public functions before `subsum.cli.main`
runs, and writes the spans to FILE as JSONL when the invocation ends.
"""

from time import perf_counter

ENTRY = perf_counter()  # before any other import, so imports count as unwrapped time

import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    sep = args.index("--")
    opts, argv = args[:sep], args[sep + 1 :]
    src = os.path.realpath(opts[0])
    sys.path.insert(0, src)
    import subsum
    import subsum.cli

    if not os.path.realpath(subsum.__file__).startswith(src + os.sep):
        print(f"subsum imported from {subsum.__file__}, not from {src}", file=sys.stderr)
        return 3
    if len(opts) == 1:
        return subsum.cli.main(argv)

    _, _, trace_path, run_id = opts
    sys.path.insert(0, os.path.dirname(os.path.realpath(__file__)))
    from tracer import LAYERS, Tracer

    tracer = Tracer(run_id, ENTRY)
    modules = {layer: importlib.import_module(f"subsum.{layer}") for layer in LAYERS}
    tracer.install(modules, subsum)
    try:
        return modules["cli"].main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())

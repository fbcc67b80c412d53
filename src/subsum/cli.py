"""Command-line front end: compute objects, run verifications, emit tables.

`_COMMANDS` is the one flag table: for each command its runner, its
help and its flags, each with a parse function and a default.
`parse_args` reads `<command> --flag value` or `--flag=value` against
it; a flag is named in full, a repeated flag keeps its last value, and
-h or --help is help only where a flag stands: a flag's value is a value.
`compute` and `table` dispatch through one table each: `_WHAT` maps a
`--what` to its builder and its form, and `cmd_compute`'s `--expand`
rule reads the form; `_SEQUENCES` maps a `--sequence` to its rows.
`verify` takes its conjecture ids from `verify.CONJECTURES` and runs
each through `verify.run`.  Every command reads num* by its dynamic
program alone.  `verify --conjecture <id>` prints the one report asked
for.  `main` only parses, runs the command and maps internal errors.

Exit codes: 0 success, or help; 1 any failure record in a report
whose registry entry is proved, or an internal error (the library
raised ValueError or ArithmeticError on input the parser accepted); 2
bad flags, each reported by `_usage_error` before any work: an unknown
command or flag, a missing or bad value, a missing required flag, a
stray argument, a `verify` that the one conjecture requested refuses
by its registry entry's `refusal` (`--max-n` below its lowest n;
`--conjecture all` skips what the rule refuses with a warning),
`--expand` where nothing is factored (`--what num|num-star|spol-list`),
and an `--out` that is empty, holds a NUL byte, is a directory, or whose
directory is missing or not writable.
A payload write that fails later exits 1 with one line, "cannot write
output: ...".  WitnessOnly verdicts never affect the exit code.  stdout
carries data and help, stderr diagnostics and the lines "LEVEL subsum:
message" that `_log` prints for SUBSUM_LOG itself.
All big integers are serialized as decimal strings; coefficient lists
ascend from x^0.
"""

from __future__ import annotations

import json
import os
import sys
import types

from . import cyclotomic, reduction, verify
from .partitions import PartitionClass, enumerate_partitions

# The standard logging levels by name; SUBSUM_LOG names the threshold.
# `_log` prints its lines itself: `logging` would hand them to a host's setup.
_LEVELS = {"CRITICAL": 50, "FATAL": 50, "ERROR": 40, "WARNING": 30, "WARN": 30, "INFO": 20, "DEBUG": 10, "NOTSET": 0}
_HELP = ("-h", "--help")

_CLASSES = [c.value for c in PartitionClass]

# Each --what, in choice order: (builder(n, pclass), form).  --expand
# applies only to the factored forms "cyclotomic" and "binomial".
# Builders look their function up at call time, so a patched module
# attribute reaches them.
_WHAT = {
    "num": (lambda n, c: reduction.num(n, c), "polynomial"),
    "den": (lambda n, c: reduction.den(n, c), "cyclotomic"),
    "g": (lambda n, c: reduction.big_g(n, c), "cyclotomic"),
    "num-star": (lambda n, c: reduction.num_star(n, c), "polynomial"),
    "den-star": (lambda n, c: reduction.den_star(n, c), "binomial"),
    "spol-list": (lambda n, c: [(p, reduction.spol(p)) for p in enumerate_partitions(n, c)], "list"),
}


def _per_n(value):
    """Rows (n, value(n)) for n = 1 .. top."""
    return lambda top: [(n, value(n)) for n in range(1, top + 1)]


# Each --sequence, in choice order: its rows up to a top n.  t comes
# from one coin DP and starts at n = 0.
_SEQUENCES = {
    "t": lambda top: list(enumerate(reduction.t_values(top))),
    "s": _per_n(lambda n: reduction.num_at(n, PartitionClass.TERNARY, -1)),
    "o-part": _per_n(lambda n: verify.odd_factorial_part(n)),
    "g-degree": _per_n(lambda n: cyclotomic.cyclo_degree(reduction.big_g(n, PartitionClass.ORDINARY))),
}


class _BadValue(Exception):
    """A flag value that its parse function rejects."""


def _int_at_least(lowest: int):
    """Parse an integer >= lowest, so a bad value exits 2 like any bad flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lowest:
            raise _BadValue(f"expected an integer >= {lowest}, got {text!r}")
        return value

    return parse


def _choice(options):
    """Parse one of options; the table's help lists them from `parse.choices`."""

    def parse(text: str) -> str:
        if text not in options:
            raise _BadValue(f"invalid choice: {text!r} (choose from {', '.join(options)})")
        return text

    parse.choices = options
    return parse


def _out_path(text: str) -> str:
    """Parse --out: a nonempty file path with no NUL in a writable directory, so a bad path exits 2."""
    directory = os.path.dirname(text) or os.curdir
    bad = not text or "\0" in text or os.path.isdir(text)
    if bad or not os.path.isdir(directory) or not os.access(directory, os.W_OK):
        raise _BadValue(f"{text!r} is empty, a directory, in a missing or unwritable directory, or holds a NUL byte")
    return text


_REQUIRED = object()

# Each command: (runner, help, {flag: (parse, default or _REQUIRED)}).
# parse None marks a switch.  A flag's attribute is its name with "-" as
# "_", except --class, which is pclass.  Runners look cmd_* up at call
# time, so a patched module attribute reaches them.
_COMMANDS = {
    "compute": (lambda args: cmd_compute(args), "compute num/den/G and friends for one n", {
        "--class": (_choice(_CLASSES), _REQUIRED),
        "--n": (_int_at_least(0), _REQUIRED),
        "--what": (_choice(list(_WHAT)), _REQUIRED),
        "--format": (_choice(["json", "text"]), "text"),
        "--expand": (None, False),
        "--out": (_out_path, None),
    }),
    "verify": (lambda args: cmd_verify(args), "run conjecture checks over 1..max-n", {
        "--conjecture": (_choice([*verify.CONJECTURES, "all"]), _REQUIRED),
        "--max-n": (_int_at_least(1), _REQUIRED),
        "--format": (_choice(["json", "text"]), "text"),
        "--jobs": (_int_at_least(1), 1),
        "--out": (_out_path, None),
    }),
    "table": (lambda args: cmd_table(args), "emit a sequence, one row per n", {
        "--sequence": (_choice(list(_SEQUENCES)), _REQUIRED),
        "--max-n": (_int_at_least(0), _REQUIRED),
        "--format": (_choice(["csv", "json"]), "csv"),
        "--out": (_out_path, None),
    }),
}


def _usage(command: str | None) -> str:
    """The usage line and help of one command, or of every command if command is None."""
    lines = []
    for name in [command] if command else _COMMANDS:
        _, summary, flags = _COMMANDS[name]
        words = ["[-h]"]
        for flag, (parse, default) in flags.items():
            word = flag
            if parse is not None:
                choices = getattr(parse, "choices", None)
                word += " " + ("{" + ",".join(choices) + "}" if choices else flag[2:].upper())
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines += [f"usage: subsum {name} {' '.join(words)}", f"  {summary}"]
    return "\n".join(lines)


def _usage_error(command: str | None, message: str):
    """Print the usage and the error to stderr and exit 2: the one path for every bad flag."""
    print(_usage(command), file=sys.stderr)
    print(f"subsum{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]):
    """Parse `<command> --flag value|--flag=value ...` by `_COMMANDS`; exit 2 on any bad flag.

    A repeated flag keeps its last value.  A flag is named in full: no
    prefix stands for it.  -h or --help as the first token or in place of
    a flag prints the usage and exits 0; a bad token before it exits 2.
    """
    if argv and argv[0] in _HELP:
        _help(None)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is None:
        _usage_error(None, f"unknown command {argv[0]!r}" if argv else "a command is required")
    func, _, flags = _COMMANDS[command]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            _help(command)
        flag, eq, text = token.partition("=")
        if flag not in flags:
            _usage_error(command, f"unrecognized argument {token!r}")
        parse = flags[flag][0]
        if parse is None:
            if eq:
                _usage_error(command, f"{flag} takes no value")
            values[flag] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                _usage_error(command, f"{flag} expects a value")
        try:
            values[flag] = parse(text)
        except _BadValue as exc:
            _usage_error(command, f"{flag}: {exc}")
    missing = [flag for flag, (_, default) in flags.items() if default is _REQUIRED and flag not in values]
    if missing:
        _usage_error(command, f"the following flags are required: {', '.join(missing)}")
    args = {"pclass" if f == "--class" else f[2:].replace("-", "_"): values.get(f, d) for f, (_, d) in flags.items()}
    return types.SimpleNamespace(command=command, func=func, **args)


def _help(command: str | None):
    """Print the usage of command, or of every command if None, to stdout and exit 0."""
    _emit(_usage(command), None)
    raise SystemExit(0)


def _log(level: str, msg: str, *, exc_info: bool = False) -> None:
    """Print "level subsum: msg", and with exc_info the traceback, to stderr if level reaches SUBSUM_LOG (default WARNING)."""
    if _LEVELS[level] < _LEVELS.get(os.environ.get("SUBSUM_LOG", "WARNING").upper(), _LEVELS["WARNING"]):
        return
    print(f"{level} subsum: {msg}", file=sys.stderr)
    if exc_info:
        import traceback  # only here: the import costs every start-up milliseconds

        traceback.print_exc()


def main(argv=None) -> int:
    # Reports carry big integers as decimal strings; Python >= 3.10.7
    # refuses str() of an int past 4300 digits unless the limit is lifted.
    # Workers forked by --jobs inherit the setting.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        # The parser has checked every flag, so these come from the
        # library's own consistency checks (inexact division, a signed
        # log-concavity input, a non-monic modulus, ...): a bug, not bad input.
        _log("DEBUG", "internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}; this is a pipeline bug", file=sys.stderr)
        return 1


def _emit(payload: str, out: str | None) -> None:
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)
            sys.stdout.flush()
    except OSError as exc:
        if not out:
            # What stdout still buffers would fail again in the flush at exit.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # SystemExit with a message prints it to stderr and exits 1.
        raise SystemExit(f"cannot write output: {exc}") from exc


# --- compute ---


def format_poly(coeffs) -> str:
    """Human-readable ascending-power rendering: 5 + 8x + 15x^2 + ..."""
    if not coeffs:
        return "0"
    pieces = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            body = f"{mag}x" if k == 1 else f"{mag}x^{k}"
        pieces.append((c < 0, body))
    first_neg, first_body = pieces[0]
    text = ("-" if first_neg else "") + first_body
    for negative, body in pieces[1:]:
        text += (" - " if negative else " + ") + body
    return text


def _format_factored(base: str, factors: list[tuple[int, int]]) -> str:
    if not factors:
        return "1"
    out = []
    for i, e in factors:
        head = f"Phi_{i}" if base == "cyclotomic" else f"(1+x^{i})"
        out.append(head if e == 1 else f"{head}^{e}")
    return " ".join(out)


def cmd_compute(args) -> int:
    pclass = PartitionClass(args.pclass)
    n, what = args.n, args.what
    build, form = _WHAT[what]
    if args.expand and form not in ("cyclotomic", "binomial"):
        _usage_error("compute", f"--expand: --what {what} has no factored form")
    value = build(n, pclass)
    if args.expand:
        expand = cyclotomic.expand_cyclotomics if form == "cyclotomic" else cyclotomic.expand_binomials
        value, form = expand(value), "polynomial"
    head = {"class": pclass.value, "n": n}
    label = f"{what}({n}, {pclass.value}) = "
    if form == "polynomial":
        record = {"kind": "polynomial", **head, "what": what, "coeffs": [str(c) for c in value]}
        text = label + format_poly(value)
    elif form == "list":
        items = [{"partition": list(p), "coeffs": [str(c) for c in s]} for p, s in value]
        record = {"kind": "polynomial-list", **head, "items": items}
        text = "\n".join(f"({','.join(map(str, p))}): {format_poly(s)}" for p, s in value) or "(no partitions)"
    else:
        factors = sorted((2 * d if form == "cyclotomic" else d, e) for d, e in value.items())
        record = {"kind": "factored", **head, "what": what, "base": form, "factors": [list(f) for f in factors]}
        text = label + _format_factored(form, factors)
    _emit(json.dumps(record, indent=2) if args.format == "json" else text, args.out)
    return 0


# --- verify ---

def cmd_verify(args) -> int:
    ids = list(verify.CONJECTURES) if args.conjecture == "all" else [args.conjecture]
    reports = []
    for cid in ids:
        refusal = verify.CONJECTURES[cid].refusal(args.max_n)
        if refusal:
            if args.conjecture != "all":
                _usage_error("verify", f"--conjecture {cid} {refusal}")
            _log("WARNING", f"skipping conjecture {cid}: {refusal}")
            continue
        report = verify.run(cid, args.max_n, jobs=args.jobs)
        _log("INFO", f"conjecture {cid}: {report.verdict} in {report.elapsed:.2f}s")
        reports.append(report)

    if args.format == "json":
        payload = [_report_json(r) for r in reports]
        _emit(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2), args.out)
    else:
        _emit("\n".join(_report_text(r) for r in reports), args.out)

    return 1 if any(r.verdict == verify.FAILURES_FOUND for r in reports) else 0


def _report_json(r: verify.ConjectureReport) -> dict:
    return {
        "kind": "report",
        "conjecture": r.conjecture_id,
        "n_range": list(r.n_range),
        "verdict": r.verdict,
        "failures": r.failures,
        "witnesses": r.witnesses,
        "elapsed_seconds": round(r.elapsed, 6),
    }


def _report_text(r: verify.ConjectureReport) -> str:
    lo, hi = r.n_range
    head = f"conjecture {r.conjecture_id} [n={lo}..{hi}]: {r.verdict}"
    head += f" ({len(r.failures)} failures, {len(r.witnesses)} witnesses, {r.elapsed:.2f}s)"
    lines = [head]
    for f in r.failures:
        lines.append(f"  FAIL n={f.get('n', '?')}: {f.get('detail', f)}")
    if r.verdict == verify.WITNESS_ONLY and not r.failures:
        lines.append("  (open conjecture: pass is evidence, not proof)")
    return "\n".join(lines)


# --- table ---


def cmd_table(args) -> int:
    seq = args.sequence
    rows = _SEQUENCES[seq](args.max_n)
    if args.format == "json":
        payload = [{"kind": "scalar", "sequence": seq, "n": n, "value": str(v)} for n, v in rows]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"n,{seq}"] + [f"{n},{v}" for n, v in rows]
        _emit("\n".join(lines), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

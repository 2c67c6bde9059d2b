"""Command-line front end.

Every command reads JSON (from --input FILE or standard input), dispatches to
the library, and writes deterministic JSON (or best-effort SVG) to --output
or standard output.  Exit codes: 0 success, 1 domain error, 2 usage error.

The command line is read against one table, ``COMMANDS``: each command's
handler and its flags with their type, choices and default, beside
``POSITIONALS``, the positionals of ``gen``.  A flag is given in full, as
``--flag value`` or ``--flag=value``, anywhere after the command, and a
repeated flag keeps its last value; after ``--`` every token is a
positional.  ``-h`` or ``--help`` prints the table.
"""

from __future__ import annotations

import json
import sys

# Only ``core``, which every command reads and writes with, is imported
# here; each handler imports the other library names it calls, and the
# SVG paths import ``svg``, so a cold process compiles only the modules its
# command runs.
from .core import DomainError, TropMatrix, dumps, matrix_from_json, matrix_to_json, vector_from_json


def _read_input(args):
    path = args.input or "-"
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an integer past the int/str digit limit
        raise UsageError(f"invalid JSON input: {exc}")


class UsageError(Exception):
    pass


def _matrix_and_vector(obj):
    if not isinstance(obj, dict) or "matrix" not in obj or "vector" not in obj:
        raise UsageError("expected {'matrix': ..., 'vector': ...}")
    return matrix_from_json(obj["matrix"]), vector_from_json(obj["vector"])


def _budget_kwargs(args):
    return {} if args.budget is None else {"budget": args.budget}


# ---------------------------------------------------------------------------
# Command handlers: each returns SVG text as a str, or a JSON payload
# ---------------------------------------------------------------------------

def cmd_stiefel(args):
    from .plucker import plucker_to_json, stiefel_map
    A = matrix_from_json(_read_input(args))
    return plucker_to_json(stiefel_map(A))


def cmd_plucker_check(args):
    from .plucker import check_plucker, plucker_from_json
    p = plucker_from_json(_read_input(args))
    return {"is_plucker": check_plucker(p)}


def cmd_multifield(args):
    from .bipartite import matching_multifield, multifield_to_json
    A = matrix_from_json(_read_input(args))
    return multifield_to_json(matching_multifield(A))


def cmd_coherent(args):
    from .bipartite import is_coherent, multifield_from_json
    witness = is_coherent(multifield_from_json(_read_input(args)))
    return {"coherent": False} if witness is None else {"coherent": True, "witness": matrix_to_json(witness)}


def cmd_support_set(args):
    from .bipartite import graph_from_json, is_support_set, support_face_dimension
    d, n, edges = graph_from_json(_read_input(args))
    return {"is_support_set": is_support_set(d, n, edges), "h1": support_face_dimension(edges)}


def cmd_covectors(args):
    from .arrangement import complex_to_json, enumerate_covectors
    A = matrix_from_json(_read_input(args))
    return complex_to_json(enumerate_covectors(A, **_budget_kwargs(args)))


def cmd_facets(args):
    from .arrangement import facets_of_D, facets_to_json
    A = matrix_from_json(_read_input(args))
    return facets_to_json(facets_of_D(A))


def cmd_member(args):
    from .linspace import in_L
    A, y = _matrix_and_vector(_read_input(args))
    return {"in_L": in_L(A, y)}


def cmd_decompose(args):
    from .linspace import certificate_to_json, decompose
    cert = decompose(*_matrix_and_vector(_read_input(args)))
    return {"in_L": False} if cert is None else {"in_L": True, "certificate": certificate_to_json(cert)}


def cmd_bounded(args):
    from .linspace import in_bounded_part
    obj = _read_input(args)
    if args.format == "svg":
        from .svg import _svg_tree
        A = matrix_from_json(obj["matrix"] if isinstance(obj, dict) and "matrix" in obj else obj)
        return _svg_tree(A)  # the default cell budget: bounded has no --budget
    A, y = _matrix_and_vector(obj)
    return {"in_bounded_part": in_bounded_part(A, y)}


def cmd_recover(args):
    from .bipartite import graph_from_json
    from .plucker import plucker_from_json, recover_matrix
    obj = _read_input(args)
    if not isinstance(obj, dict) or "plucker" not in obj or "support" not in obj:
        raise UsageError("expected {'plucker': ..., 'support': ...}")
    p = plucker_from_json(obj["plucker"])
    d, n, edges = graph_from_json(obj["support"])
    return matrix_to_json(recover_matrix(p, d, n, edges))


GEN_BUDGET = 10 ** 6  # d·n entries gen may draw, or d³n, the work of one support-set draw


def cmd_gen(args):
    import random
    from .bipartite import random_support_set
    if args.d < 1 or args.n < args.d:
        raise DomainError("BAD_SHAPE", "need 1 <= d <= n")
    rng = random.Random(args.seed)
    lo, hi = args.min, args.max
    if lo > hi:
        raise UsageError("--min must not exceed --max")
    d, n = args.d, args.n
    size = d ** 3 * n if args.mode == "support-set" else d * n
    if size > GEN_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", f"gen --mode {args.mode} on {d}x{n} has size {size}, budget {GEN_BUDGET}")
    if args.mode == "support-set":
        edges = random_support_set(rng, d, n, **_budget_kwargs(args))
        finite = lambda i, j: (i, j) in edges
    else:  # dense, or pointed: an identity block on columns [d], dense on the rest
        finite = lambda i, j: args.mode == "dense" or j == i or j > d
    entries = [[rng.randint(lo, hi) if finite(i, j) else "inf" for j in range(1, n + 1)] for i in range(1, d + 1)]
    return matrix_to_json(TropMatrix(entries))


def cmd_render(args):
    from .svg import _svg_arrangement, _svg_tree
    A = matrix_from_json(_read_input(args))
    return (_svg_tree if args.kind == "tree" else _svg_arrangement)(A, **_budget_kwargs(args))


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

# Each command's handler and its flags as {flag: (type, choices, default)};
# every value is one token of argv, converted by its type and checked
# against its choices.
_IO = {"--input": (str, None, "-"), "--output": (str, None, None)}
_BUDGET = {"--budget": (int, None, None)}
COMMANDS = {
    "stiefel": (cmd_stiefel, _IO),
    "plucker-check": (cmd_plucker_check, _IO),
    "multifield": (cmd_multifield, _IO),
    "coherent": (cmd_coherent, _IO),
    "support-set": (cmd_support_set, _IO),
    "covectors": (cmd_covectors, {**_IO, **_BUDGET}),
    "facets": (cmd_facets, _IO),
    "member": (cmd_member, _IO),
    "decompose": (cmd_decompose, _IO),
    "bounded": (cmd_bounded, {**_IO, "--format": (str, ("json", "svg"), "json")}),
    "recover": (cmd_recover, _IO),
    "gen": (cmd_gen, {
        "--output": (str, None, None),
        **_BUDGET,
        "--seed": (int, None, 0),
        "--mode": (str, ("dense", "support-set", "pointed"), "dense"),
        "--min": (int, None, 0),
        "--max": (int, None, 9),
    }),
    "render": (cmd_render, {**_IO, **_BUDGET, "--kind": (str, ("arrangement", "tree"), "arrangement")}),
}
POSITIONALS = {"gen": ("d", "n")}  # ints, in this order
HELP = ("-h", "--help")


class Args:
    """A parsed command line: ``command`` and one attribute per flag (its
    name without the dashes) and positional of that command."""

    def __init__(self, values):
        self.__dict__.update(values)


def _value(command, name, kind, choices, text):
    try:
        value = kind(text)
    except ValueError:  # int() also refuses past the int/str digit limit
        raise UsageError(f"{command} {name}: invalid {kind.__name__} value {text!r}")
    if choices and value not in choices:
        raise UsageError(f"{command} {name}: {text!r} is not one of {', '.join(choices)}")
    return value


def parse_args(argv):
    """The ``Args`` of ``argv``, a command and its flags and positionals,
    or None when it asks for help.  UsageError on an unknown command or
    flag, a flag with no value, a value its type or choices refuse, or the
    wrong number of positionals."""
    if argv and argv[0] in HELP:
        return None
    if not argv or argv[0] not in COMMANDS:
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}; got {argv[0] if argv else 'none'}")
    command, tokens = argv[0], iter(argv[1:])
    options, names = COMMANDS[command][1], POSITIONALS.get(command, ())
    values = {flag[2:]: default for flag, (_, _, default) in options.items()}
    positionals = []
    for token in tokens:
        if token == "--":  # the rest are positionals
            positionals += tokens
            break
        if token in HELP:
            return None
        if not token.startswith("--"):  # a positional, or a negative number
            positionals.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in options:
            raise UsageError(f"{command}: unknown flag {flag}")
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise UsageError(f"{command}: {flag} expects a value")
        kind, choices, _ = options[flag]
        values[flag[2:]] = _value(command, flag, kind, choices, text)
    if len(positionals) != len(names):
        raise UsageError(f"{command}: expected {len(names)} positional arguments, got {len(positionals)}")
    values.update((name, _value(command, name, int, None, text)) for name, text in zip(names, positionals))
    return Args({"command": command, **values})


def usage():
    """The listing ``--help`` prints: every command with its positionals and
    flags, each flag with its choices or type and its default."""
    lines = ["usage: tropstiefel COMMAND [--flag VALUE | --flag=VALUE] ...", "", "commands:"]
    for command, (_, options) in COMMANDS.items():
        words = [command, *POSITIONALS.get(command, ())]
        for flag, (kind, choices, default) in options.items():
            shown = "|".join(choices) if choices else kind.__name__.upper()
            words.append(f"[{flag} {shown}]" if default is None else f"[{flag} {shown} (default {default})]")
        lines.append("  " + " ".join(words))
    lines += ["", "Flags are given in full.  -h, --help prints this listing."]
    return "\n".join(lines) + "\n"


def _emit(args, payload):
    text = payload if isinstance(payload, str) else dumps(payload)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(usage())
            return 0
        try:
            payload, code = COMMANDS[args.command][0](args), 0
        except DomainError as exc:
            payload, code = {"error": exc.code}, 1
        _emit(args, payload)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

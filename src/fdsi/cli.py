"""Command-line front end.

Subcommands: ``check`` (verdict for an allocation), ``solve`` (find an
allocation, each solver called from ``_solve_with`` alone), ``gen`` (write
the instance one row of ``generators._GENERATORS`` builds; its flags live in
that module), ``brute`` (oracle scan).
Exit codes: 0 fair/found, 1 unfair/none, 2 validation error, 3 resource
budget exceeded or memory exhausted, 4 internal error (an answer failed its
own re-check, or any other crash: a crash never exits 1).  All randomness is
seeded explicitly and output is deterministic; the FDSI_STATE_BUDGET
environment variable overrides the default state budget of the exact solver.
"""

from __future__ import annotations

import atexit
import gc
import io
import os
import sys
from types import SimpleNamespace

from . import serialize
from .fairness import BASES, SA_EMPTY, Notion, Verdict, certify, is_sim
from .fairness import check as check_notion
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    InternalError,
    ValidationError,
    exact_rational,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _witness_obj(inst: Instance, verdict: Verdict):
    w = verdict.witness
    if w is None:
        return None
    out = {"reason": w.reason}
    if w.observer is not None:
        out["observer"] = inst.agents[w.observer]
    if w.target is not None:
        out["target"] = inst.agents[w.target]
    if w.item is not None:
        out["item"] = inst.items[w.item]
    return out


def _notion_from_args(args) -> Notion:
    """The spec's notion (``Notion.parse``) with the awareness mode of
    ``--sa``, ``--alpha`` or ``--wsa``: one mode at most, from either."""
    # an empty --alpha is a bad rational, not a missing one
    alpha = None if args.alpha is None else exact_rational(args.alpha, "rational")
    notion = Notion.parse(args.notion)
    flags = (("sa", args.sa), ("alpha", alpha is not None), ("wsa", args.wsa))
    modes = [mode for mode, on in flags if on]
    if not modes:
        return notion
    if len(modes) > 1 or notion.awareness:
        raise ValidationError("awareness modifiers are mutually exclusive")
    return Notion(notion.base, modes[0], alpha)


def _positive_int(text: str) -> int:
    """argparse type of the budgets and caps: a budget below 1 is invalid
    input, not a budget that runs out."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    import argparse  # a refused value falls back to argparse, which reports it

    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _cmd_check(args) -> int:
    inst = serialize.load_instance(args.instance)
    alloc = serialize.load_allocation(inst, args.allocation)
    sim = is_sim(inst, alloc)  # rejects an incomplete allocation first
    notion = _notion_from_args(args)
    verdict = check_notion(inst, alloc, notion)
    out = {"sim": sim.fair, "fair": verdict.fair, "witness": _witness_obj(inst, verdict)}
    print(serialize.dumps(out), end="")
    ok = verdict.fair and (sim.fair or not args.require_sim)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _solve_with(method, inst: Instance, notion: Notion, args) -> Allocation | None:
    """The one call of each solver, for ``--method`` and ``auto`` alike; each
    is read off its module, imported here, at call time.  Picking weighs the
    agents by the notion's weights (``Notion.weights``)."""
    if method == "exact":
        from . import search

        return search.exact_solve(inst, notion, state_budget=args.state_budget)
    if method == "brute":
        from . import oracle

        return oracle.brute_force_solve(inst, notion, cap=args.brute_cap)
    if method == "sa-empty":
        from . import sa_empty

        return sa_empty.solve_sa_empty(inst, node_budget=args.node_budget)
    from . import allocators

    if method == "efl":
        return allocators.sa_efl_allocate(inst)
    return allocators.sa_weighted_picking(inst, weights=notion.weights(inst))


def _certified(method, inst: Instance, notion: Notion, args) -> Allocation | None:
    """A polynomial method's answer if ``certify`` accepts it, else None."""
    alloc = _solve_with(method, inst, notion, args)
    return alloc if certify(inst, alloc, notion).fair else None


# auto's polynomial candidates in the order it tries them: (the bases a row
# applies to, the ``_solve_with`` method).  No row reads the awareness, as
# ``certify`` decides every answer.  With every agent aware the envy graph is
# fair under efl and picking under every other base but ef; picking is fair on
# binary valuations equal to the impacts, whatever the awareness, and often
# on unaware random instances, where the problem is NP-hard.
_CANDIDATES = ((("efl",), "efl"), (BASES, "picking"))


def _solve_auto(inst: Instance, notion: Notion, args) -> Allocation | None:
    """The first certified answer of the ``_CANDIDATES`` rows whose bases
    hold the notion's, whatever the agents' awareness, else the final
    solver: the type solver for ``sa-empty``, the brute-force oracle for the
    relaxed overrides (alpha, wsa), the exact state search for the rest."""
    for bases, method in _CANDIDATES:
        if notion.base in bases:
            alloc = _certified(method, inst, notion, args)
            if alloc is not None:
                return alloc
    relaxed = notion.awareness in ("alpha", "wsa")
    final = "sa-empty" if notion.base == SA_EMPTY else "brute" if relaxed else "exact"
    return _solve_with(final, inst, notion, args)


def _cmd_solve(args) -> int:
    inst = serialize.load_instance(args.instance)
    notion = _notion_from_args(args)
    method = args.method
    if method == "sa-empty" and notion.base != SA_EMPTY:
        raise ValidationError("method sa-empty only solves the sa-empty notion")
    if method == "auto":
        alloc = _solve_auto(inst, notion, args)
    elif method in ("picking", "efl"):
        alloc = _certified(method, inst, notion, args)
        if alloc is None:
            raise ValidationError(
                f"method {method} does not certify {notion.label()} on this "
                "instance; use the exact or brute method"
            )
    else:
        alloc = _solve_with(method, inst, notion, args)
    if alloc is None:
        return EXIT_NEGATIVE
    print(serialize.dumps(serialize.allocation_to_obj(inst, alloc)), end="")
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .generators import CannedExample  # loaded already: it built the parser

    built = args.build(args)
    inst = built.instance if isinstance(built, CannedExample) else built
    text = serialize.dumps(serialize.instance_to_obj(inst))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    if getattr(args, "allocation_out", None):  # only an example has the flag
        with open(args.allocation_out, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(serialize.allocation_to_obj(inst, built.allocation)))
    return EXIT_OK


def _cmd_brute(args) -> int:
    from . import oracle

    inst = serialize.load_instance(args.instance)
    # "any" accepts every candidate, so it needs no scan and takes no modifier
    notion = None if args.notion == "any" else _notion_from_args(args)
    if notion is None and (args.sa or args.wsa or args.alpha is not None):
        raise ValidationError("notion any takes no awareness modifier")
    if args.count:
        total = oracle.brute_force_count(
            inst, notion, require_sim=args.require_sim, cap=args.cap
        )
        print(serialize.dumps({"count": total}), end="")
        return EXIT_OK
    alloc = oracle.brute_force_solve(inst, notion, require_sim=args.require_sim, cap=args.cap)
    if alloc is None:
        return EXIT_NEGATIVE
    print(serialize.dumps(serialize.allocation_to_obj(inst, alloc)), end="")
    return EXIT_OK


_NOTION_FLAGS = [
    ("--sa", {"action": "store_true", "help": "awareness override"}),
    ("--alpha", {"metavar": "P/Q", "help": "alpha-scaled awareness"}),
    ("--wsa", {"action": "store_true", "help": "proportional awareness"}),
]
_NOTION = {"help": "a notion spec: <base>, sa-<base>, wsa-<base> or <p/q>-sa-<base>"}
_BUDGET = {"type": _positive_int, "default": None}

# command -> (its help line; its handler; its arguments in help order, each a
# name and its add_argument keywords).  ``gen``'s flags live in
# ``generators._GENERATORS``.
_COMMANDS = {
    "check": (
        "verdict for an instance + allocation",
        _cmd_check,
        [
            ("instance", {}),
            ("allocation", {}),
            ("notion", _NOTION),
            *_NOTION_FLAGS,
            ("--require-sim", {
                "action": "store_true",
                "help": "also require impact maximization for exit code 0",
            }),
        ],
    ),
    "solve": (
        "find a fair impact-maximizing allocation",
        _cmd_solve,
        [
            ("instance", {}),
            ("notion", _NOTION),
            *_NOTION_FLAGS,
            ("--method", {
                "choices": ("auto", "picking", "efl", "exact", "brute", "sa-empty"),
                "default": "auto",
            }),
            *((flag, _BUDGET) for flag in ("--state-budget", "--brute-cap", "--node-budget")),
        ],
    ),
    "brute": (
        "oracle scan over candidate allocations",
        _cmd_brute,
        [
            ("instance", {}),
            ("notion", {"help": 'a notion spec or "any"'}),
            *_NOTION_FLAGS,
            ("--count", {"action": "store_true"}),
            ("--cap", _BUDGET),
            ("--no-require-sim", {"dest": "require_sim", "action": "store_false"}),
        ],
    ),
}


def _read_argv(argv):
    """The namespace that argparse builds from ``argv`` when it is a
    well-formed ``check``, ``solve`` or ``brute`` call, read off
    ``_COMMANDS`` without loading argparse; else None, and argparse reads
    it.  Only exact long flags and the exact positional count are read: a
    token that starts with "-" and is no flag of the command (``-h``,
    ``--``, an abbreviation, ``--flag=value``, a negative number), a value
    that starts with "-" or that ``type`` or ``choices`` refuses, is None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    values, flags, positionals = {}, {}, []
    for name, keywords in arguments:
        dest = keywords.get("dest", name.lstrip("-").replace("-", "_"))
        # argparse's defaults: False for store_true, True for store_false
        implied = {"store_true": False, "store_false": True}.get(keywords.get("action"))
        values[dest] = keywords.get("default", implied)
        if name.startswith("-"):
            flags[name] = dest, keywords
        else:
            positionals.append(dest)
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in flags:
            return None
        dest, keywords = flags[token]
        action = keywords.get("action")
        if action:
            values[dest] = action == "store_true"
            continue
        text = next(tokens, "-")  # a missing value reads as one that starts with "-"
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse reports it
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(command=argv[0], func=func, **values)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, ``gen``'s from
    ``generators._GENERATORS``, for the calls that ``_read_argv`` cannot
    read: help, usage errors, abbreviations, ``--flag=value`` and ``gen``."""
    import argparse

    from . import generators

    parser = argparse.ArgumentParser(
        prog="fdsi",
        description="Fair division with social impact: checkers, solvers, gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "solve", "gen", "brute"):
        if name == "gen":
            generators.add_gen_parser(sub, _cmd_gen)
            continue
        help_line, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _report(code: int, message: str) -> int:
    """Print ``message`` on stderr and return ``code``, also when stderr
    cannot be written (read-only, a bad descriptor): a failed report is no
    reason for another exit code, least of all 1."""
    try:
        print(message, file=sys.stderr)
    except (OSError, ValueError):
        pass
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        return _report(EXIT_BUDGET, f"error: {exc}")
    except InternalError as exc:
        return _report(EXIT_INTERNAL, f"internal error: {exc}")
    except (ValidationError, OSError) as exc:
        return _report(EXIT_INVALID, f"error: {exc}")
    except MemoryError:
        pass  # reported after the handler, whose traceback holds the call's memory
    except Exception as exc:  # a crash is no verdict: exit 1 would read "none"
        return _report(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}")
    return _report(EXIT_BUDGET, "error: out of memory")


def _watched() -> bool:
    """Does the interpreter still have work after the script: a trace or
    profile hook, or on 3.12+ a ``sys.monitoring`` tool (cProfile, coverage),
    that writes its results at exit, or ``-i``, which then goes interactive?"""
    monitoring = getattr(sys, "monitoring", None)
    return bool(
        sys.gettrace()
        or sys.getprofile()
        or sys.flags.inspect
        or monitoring and any(monitoring.get_tool(i) for i in range(6))
    )


def entry() -> None:
    """The ``fdsi`` script and ``python -m fdsi``.  What is loaded by now
    lives until exit, so it is frozen: the collections during the call do
    not walk it again.  ``main`` never freezes, because a long-lived caller
    would then never collect what it froze.

    Once the answer is flushed, the ``atexit`` callbacks run and the process
    ends at once, without tearing down its modules.  The normal exit stays
    when a flush fails (so a reader that has gone away sees the usual exit
    code and message) and when ``_watched``.

    Under ``python -u`` or ``PYTHONUNBUFFERED`` stdout's text layer writes
    straight to the file and drops the short count of a write that a
    closing reader cut off, so a cut answer would exit 0.  Its writes then
    go through a buffered writer of one byte, which writes the rest or
    raises, as buffered stdout does."""
    out = sys.stdout
    if out is not None and isinstance(getattr(out, "buffer", None), io.FileIO):
        raw = io.FileIO(out.fileno(), "w", closefd=False)  # the fd stays stdout's
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(raw, 1), out.encoding, out.errors, write_through=True
        )
    gc.freeze()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: the descriptor was closed at startup
                stream.flush()
    except (OSError, ValueError):  # a reader that has gone, a closed stream
        raise SystemExit(code)
    if _watched():
        raise SystemExit(code)
    atexit._run_exitfuncs()
    os._exit(code)

"""Command line front end with deterministic JSON input and output.

All numbers cross the interface as exact rational strings; output objects
are serialized with fixed key order and separators, so identical inputs
give byte-identical output.  Evaluation runs in one process; --jobs is
accepted for compatibility and discarded by main.

Exit codes: 0 success (--help too, printed on stdout), 2 malformed input
or usage (options parsed by argparse, spelled in full), 3 acyclicity
violation, 4 failed check or internal error; errors are one JSON object
on stdout.  Failed checks still print their report before exiting.  The
invariant cache directory comes from --cache or the QUIVERINV_CACHE
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .invariants import (
    DEFAULT_MAX_SIZE,
    SELFTEST_MAX_SIZE,
    CacheStore,
    _factorial_weight,
    check_morphism_identity,
    decomposition_coefficients,
    invariant,
    pair_invariant_report,
    pl_class_json,
    selftest,
    wallcross_sides,
)
from .quiver import CycleError, DimVector, Quiver, QuiverMorphism, all_decompositions
from .quiver import clipped, shown
from .stability import fraction_str, slope_stability
from .vertexalg import pl_equal
from .wallcoeff import LieElementError, lie_normalize


# what json raises on a malformed text: bad syntax, bytes that are not
# UTF-8, and nesting deeper than the interpreter's recursion limit
_JSON_ERRORS = (json.JSONDecodeError, UnicodeDecodeError, RecursionError)


def _load_json_file(path: str, what: str) -> object:
    try:
        with open(path, "r") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {shown(path)}: {clipped(str(exc))}") from exc
    except _JSON_ERRORS as exc:
        raise ValueError(f"{what} file {shown(path)} is not valid JSON: {exc}") from exc


def _parse_inline(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except _JSON_ERRORS as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc


def _quiver_from(path: str) -> Quiver:
    return Quiver.from_json(_load_json_file(path, "quiver"))


def _dimvec_from(text: str) -> DimVector:
    return DimVector.from_json(_parse_inline(text, "dimension vector"))


def _slope_from(q: Quiver, text: str, what: str = "slope"):
    obj = _parse_inline(text, what)
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object of vertex weights")
    return slope_stability(q, obj)


def _cache_from(path: str | None) -> CacheStore | None:
    path = path or os.environ.get("QUIVERINV_CACHE")
    return CacheStore(path) if path else None


def euler(quiver_path: str, dimvec: str, dimvec2: str | None) -> tuple[dict, int]:
    """Euler pairing, its symmetrization, and the sign twist."""
    from .quiver import euler_form, sign_epsilon, sym_euler_form

    q = _quiver_from(quiver_path)
    d = q.check_dimvec(_dimvec_from(dimvec))
    e = q.check_dimvec(_dimvec_from(dimvec2)) if dimvec2 else d
    return {
        "chi_Q": str(euler_form(q, d, e)),
        "chi": str(sym_euler_form(q, d, e)),
        "epsilon": str(sign_epsilon(q, d, e)),
    }, 0


def ucoeff(quiver_path: str, dimvec: str, slope: str, slope2: str, max_size: int) -> tuple[dict, int]:
    """Coefficient table over the ordered decompositions of a class.

    For each ordered decomposition of --dimvec, the sign coefficient and
    the transformation coefficient for the pair (--slope, --slope2), plus
    the whole weighted sum written as left-nested bracket words, those that
    begin with their largest part once (the first-letter Dynkin identity).
    """
    q = _quiver_from(quiver_path)
    d = q.check_dimvec(_dimvec_from(dimvec))
    if d.is_zero():
        raise ValueError("coefficients are defined for nonzero classes only")
    if d.total() > max_size:
        raise ValueError(f"|d| = {d.total()} exceeds the size cap {max_size}")
    from_stab = _slope_from(q, slope, "slope")
    to_stab = _slope_from(q, slope2, "slope2")

    entries = []
    words = {}
    ss, us = decomposition_coefficients(d, from_stab, to_stab)
    for parts in all_decompositions(d):
        u = us.get(parts, 0)
        entries.append(
            {
                "tuple": [p.to_json() for p in parts],
                "S": str(ss.get(parts, 0)),
                "U": fraction_str(u),
            }
        )
        if u:
            words[parts] = u
    lie_words = [
        {"letters": [p.to_json() for p in lw.letters], "coefficient": fraction_str(lw.coefficient)}
        for lw in lie_normalize(words)
    ]
    return {"entries": entries, "lie_words": lie_words}, 0


def invariant_cmd(
    quiver_path: str, dimvec: str, slope: str, cache_path: str | None, max_size: int
) -> tuple[dict, int]:
    """Invariant class of the semistable moduli, as canonical coordinates."""
    q = _quiver_from(quiver_path)
    d = _dimvec_from(dimvec)
    tau = _slope_from(q, slope)
    cls = invariant(q, tau, d, cache=_cache_from(cache_path), max_size=max_size)
    return pl_class_json(cls), 0


def wallcross_check_cmd(
    quiver_path: str, dimvec: str, slope: str, slope2: str, cache_path: str | None, max_size: int
) -> tuple[dict, int]:
    """Transform invariants from --slope to --slope2 and compare."""
    q = _quiver_from(quiver_path)
    d = _dimvec_from(dimvec)
    from_stab = _slope_from(q, slope, "slope")
    to_stab = _slope_from(q, slope2, "slope2")
    cache = _cache_from(cache_path)
    lhs, rhs = wallcross_sides(q, from_stab, to_stab, d, cache=cache, max_size=max_size)
    equal = pl_equal(lhs, rhs)
    return {
        "equal": equal,
        "dimvec": d.to_json(),
        "from": from_stab.to_json(),
        "to": to_stab.to_json(),
        "class": pl_class_json(rhs),
    }, 0 if equal else 4


def morphism_check_cmd(
    morphism_path: str, dimvec: str, slope: str, cache_path: str | None, max_size: int
) -> tuple[dict, int]:
    """Factorial identity for a quiver morphism; --slope lives on the target."""
    lam = QuiverMorphism.from_json(_load_json_file(morphism_path, "morphism"))
    d = lam.source.check_dimvec(_dimvec_from(dimvec))
    tau = _slope_from(lam.target, slope)
    equal = check_morphism_identity(lam, tau, d, cache=_cache_from(cache_path), max_size=max_size)
    dprime = lam.pushforward(d)
    return {
        "equal": equal,
        "dimvec": d.to_json(),
        "pushforward": dprime.to_json(),
        "source_factor": str(_factorial_weight(d)),
        "target_factor": str(_factorial_weight(dprime)),
    }, 0 if equal else 4


def pair_check_cmd(
    quiver_path: str, dimvec: str, slope: str, framing: str, cache_path: str | None, max_size: int
) -> tuple[dict, int]:
    """Framed-moduli identity and leading-term injectivity."""
    q = _quiver_from(quiver_path)
    d = _dimvec_from(dimvec)
    mu = _slope_from(q, slope)
    framing_obj = _parse_inline(framing, "framing")
    if not isinstance(framing_obj, dict):
        raise ValueError("framing must be a JSON object of vertex multiplicities")
    report = pair_invariant_report(
        q, mu, d, framing_obj, cache=_cache_from(cache_path), max_size=max_size
    )
    return {
        "equal": report["equal"],
        "injective": report["injective"],
        "ok": report["ok"],
        "dimvec": d.to_json(),
        "framed_class": report["framed_class"].to_json(),
        "epsilon": fraction_str(report["epsilon"]),
        "framed_slope": report["framed_slope"].to_json(),
    }, 0 if report["ok"] else 4


def selftest_cmd(cache_path: str | None, max_size: int) -> tuple[dict, int]:
    """Run the property battery at a size budget."""
    report = selftest(max_size=max_size, cache=_cache_from(cache_path))
    return report, 0 if report["ok"] else 4


_OPTIONS = {
    "--quiver": dict(dest="quiver_path", required=True, metavar="FILE"),
    "--morphism": dict(dest="morphism_path", required=True, metavar="FILE"),
    "--dimvec": dict(required=True, metavar="JSON"),
    "--dimvec2": dict(metavar="JSON", help="Second argument; defaults to --dimvec."),
    "--slope": dict(required=True, metavar="JSON"),
    "--slope2": dict(required=True, metavar="JSON"),
    "--framing": dict(required=True, metavar="JSON"),
    "--cache": dict(dest="cache_path", metavar="DIR"),
    "--jobs": dict(
        type=int, default=1, metavar="N",
        help="Accepted for compatibility; evaluation is sequential. [default: %(default)s]",
    ),
    "--max-size": dict(type=int, default=DEFAULT_MAX_SIZE, metavar="K", help="[default: %(default)s]"),
}

_COMPUTE = ("--cache", "--jobs", "--max-size")  # the commands that compute invariants
_COMMANDS = (
    ("euler", euler, ("--quiver", "--dimvec", "--dimvec2")),
    ("ucoeff", ucoeff, ("--quiver", "--dimvec", "--slope", "--slope2", "--max-size")),
    ("invariant", invariant_cmd, ("--quiver", "--dimvec", "--slope", *_COMPUTE)),
    (
        "wallcross-check", wallcross_check_cmd,
        ("--quiver", "--dimvec", "--slope", "--slope2", *_COMPUTE),
    ),
    ("morphism-check", morphism_check_cmd, ("--morphism", "--dimvec", "--slope", *_COMPUTE)),
    ("pair-check", pair_check_cmd, ("--quiver", "--dimvec", "--slope", "--framing", *_COMPUTE)),
    ("selftest", selftest_cmd, _COMPUTE),
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError (exit 2 in
    main) instead of printing to stderr; options must be spelled in full,
    and unknown options are reported before missing required ones."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except ValueError:
            # a missing required option hides an unknown one: parse again
            # without the requirement and leave the unknown ones to parse_args
            required = [a for a in self._actions if a.required]
            for action in required:
                action.required = False
            try:
                found = super().parse_known_args(args, namespace)
            except ValueError:
                found = None
            finally:
                for action in required:
                    action.required = True
            if found and found[1]:
                return found
            raise

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {clipped(message, 300)}")


def _parser(command: str | None) -> _Parser:
    """The parser for one command; the others are listed but get no options."""
    parser = _Parser(
        prog="quiverinv",
        description="Exact invariant classes of quiver moduli and their wall-crossing.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, run, options in _COMMANDS:
        doc = run.__doc__ or ""
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc)
        if name == command:
            for flag in options:
                sub.add_argument(flag, **_OPTIONS[flag])
            sub.set_defaults(run=run)
    commands.choices["selftest"].set_defaults(max_size=SELFTEST_MAX_SIZE)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point with error-to-exit-code mapping: prints the command's
    report, or the error, as one JSON line and returns the exit code,
    which a reader that closed stdout early does not change."""
    try:
        try:
            argv = sys.argv[1:] if argv is None else list(argv)
            # the top level takes no option values: the command is the first operand
            command = next((a for a in argv if not a.startswith("-")), None)
            args = vars(_parser(command).parse_args(argv))
        except SystemExit:  # --help has printed its text
            return 0
        args.pop("jobs", None)  # accepted for compatibility, no effect
        report, code = args.pop("run")(**args)
    except CycleError as exc:
        report, code = {"error": str(exc), "kind": "acyclicity"}, 3
    except (LieElementError, AssertionError, ArithmeticError) as exc:
        report, code = {"error": str(exc), "kind": "internal"}, 4
    except (ValueError, KeyError) as exc:
        report, code = {"error": str(exc), "kind": "input"}, 2
    try:
        print(json.dumps(report, separators=(",", ":")), flush=True)
    except BrokenPipeError:  # the Python docs' advice: then the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

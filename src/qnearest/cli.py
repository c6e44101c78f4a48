"""Command-line surface: run a search, the built-in example, or a validation sweep.

Machine output is a line-delimited ``key = value`` document with stable key
names and shortest-round-trip float formatting, so identical flags plus seed
give byte-identical stdout. Timing goes to stderr to keep it that way.

Exit codes: 0 success, 1 invalid input, 2 internal numeric error (norm
drift, or the example check failing), 3 state exceeds the amplitude cap
(including a bit width beyond it).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace

from .builder import Mode, SearchProblem, run
from .errors import CapacityError, InvalidInputError, NormDriftError
from .measure import ShotCounts, check_shots, decide, index_distribution, sample
from .oracle import OracleReport, agreement_sweep, classical_nearest, sweep_table

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERIC = 2
EXIT_CAPACITY = 3

# Built-in example instance and its frozen regression baseline.
EXAMPLE_BITS = 3
EXAMPLE_TARGET = 5
EXAMPLE_ARRAY = (2, 6)
EXAMPLE_BASELINE_P0 = 0.3647
EXAMPLE_BASELINE_TOLERANCE = 5e-3
MODE_AGREEMENT_TOLERANCE = 1e-10


# Exit code of each error ``main`` reports on stderr instead of a traceback.
EXIT_CODES = {
    InvalidInputError: EXIT_INVALID_INPUT,
    NormDriftError: EXIT_NUMERIC,
    CapacityError: EXIT_CAPACITY,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InvalidInputError(message)


@dataclass(frozen=True)
class SearchRequest:
    n: int
    b: int
    a: tuple[int, ...]
    mode: Mode = Mode.GENERAL
    shots: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class SearchResponse:
    request: SearchRequest
    probabilities: tuple[float, ...]
    argmax: int
    is_tie: bool
    oracle: OracleReport
    postselect_probability: float
    counts: ShotCounts | None
    elapsed: float

    @property
    def agreement(self) -> bool:
        return bool(self.oracle.agreement)


def run_search(request: SearchRequest) -> SearchResponse:
    """Full pipeline for one request; the API behind the ``search`` command."""
    if request.shots is not None:
        check_shots(request.shots)
    started = time.perf_counter()
    problem = SearchProblem(request.n, request.a, request.b, request.mode)
    dist = index_distribution(run(problem), problem)
    chosen, is_tie = decide(dist)
    report = classical_nearest(request.a, request.b)
    report = replace(report, agreement=chosen in report.tied_indices)
    counts = None
    if request.shots is not None:
        counts = sample(dist, request.shots, request.seed if request.seed is not None else 0)
    return SearchResponse(
        request=request,
        probabilities=dist.probabilities,
        argmax=chosen,
        is_tie=is_tie,
        oracle=report,
        postselect_probability=dist.postselect_probability,
        counts=counts,
        elapsed=time.perf_counter() - started,
    )


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def render_search_document(resp: SearchResponse) -> str:
    """The machine-readable result document (schema documented in the README)."""
    req = resp.request
    lines = [
        f"n = {req.n}",
        f"b = {req.b}",
        f"a = {','.join(str(v) for v in req.a)}",
        f"mode = {req.mode.value}",
    ]
    if req.shots is not None:
        lines.append(f"shots = {req.shots}")
        lines.append(f"seed = {req.seed if req.seed is not None else 0}")
    lines += [
        f"probabilities = {_fmt_floats(resp.probabilities)}",
        f"argmax = {resp.argmax}",
        f"is_tie = {_fmt_bool(resp.is_tie)}",
        f"classical_nearest = {resp.oracle.nearest_index}",
        f"agreement = {_fmt_bool(resp.agreement)}",
        f"postselect_probability = {resp.postselect_probability!r}",
    ]
    if resp.counts is not None:
        joined = ",".join(f"{j}:{c}" for j, c in sorted(resp.counts.counts.items()))
        lines.append(f"counts = {joined}")
        lines.append(f"rejected = {resp.counts.rejected}")
    return "\n".join(lines) + "\n"


def render_pretty(resp: SearchResponse) -> str:
    req = resp.request
    lines = [
        f"nearest-element search ({req.mode.value} mode, {req.n} bits)",
        f"  reference {req.b}, array [{', '.join(str(v) for v in req.a)}]",
        "  index probabilities:",
    ]
    for j, p in enumerate(resp.probabilities):
        mark = "  <- decision" if j == resp.argmax else ""
        lines.append(f"    [{j}] value {req.a[j]}: {p:.6f}{mark}")
    tie = " (tie, lowest index reported)" if resp.is_tie else ""
    lines.append(f"  decision: index {resp.argmax}{tie}")
    lines.append(
        f"  classical nearest: index {resp.oracle.nearest_index} "
        f"(distance {resp.oracle.distance}), agreement: {_fmt_bool(resp.agreement)}"
    )
    lines.append(f"  post-selection probability: {resp.postselect_probability:.6f}")
    if resp.counts is not None:
        joined = " ".join(f"{j}:{c}" for j, c in sorted(resp.counts.counts.items()))
        lines.append(
            f"  counts over {resp.counts.shots} kept shots "
            f"(seed {resp.counts.seed}, rejected {resp.counts.rejected}): {joined}"
        )
    return "\n".join(lines) + "\n"


def parse_request_document(text: str) -> dict[str, str]:
    """Read a ``key = value`` document; blank lines and # comments are skipped."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidInputError(f"line {lineno}: expected 'key = value', got {raw!r}")
        fields[key.strip()] = value.strip()
    return fields


def _parse_int(value: str, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None


def _parse_array(value: str) -> tuple[int, ...]:
    items = [s.strip() for s in value.split(",") if s.strip()]
    if not items:
        raise InvalidInputError("array must contain at least one value")
    return tuple(_parse_int(s, "array entry") for s in items)


def _parse_mode(value: str) -> Mode:
    try:
        return Mode(value)
    except ValueError:
        raise InvalidInputError(
            f"mode must be one of paper, general, full; got {value!r}"
        ) from None


def _request_from_args(args: argparse.Namespace) -> SearchRequest:
    fields: dict[str, str] = {}
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as fh:
                fields = parse_request_document(fh.read())
        except OSError as exc:
            raise InvalidInputError(f"cannot read {args.input}: {exc}") from None
    if args.bits is not None:
        fields["n"] = str(args.bits)
    if args.target is not None:
        fields["b"] = str(args.target)
    if args.array is not None:
        fields["a"] = args.array
    if args.mode is not None:
        fields["mode"] = args.mode
    if args.shots is not None:
        fields["shots"] = str(args.shots)
    if args.seed is not None:
        fields["seed"] = str(args.seed)
    for key in ("n", "b", "a"):
        if key not in fields:
            raise InvalidInputError(f"missing required field {key!r} (flag or input file)")
    return SearchRequest(
        n=_parse_int(fields["n"], "n"),
        b=_parse_int(fields["b"], "b"),
        a=_parse_array(fields["a"]),
        mode=_parse_mode(fields.get("mode", Mode.GENERAL.value)),
        shots=_parse_int(fields["shots"], "shots") if "shots" in fields else None,
        seed=_parse_int(fields["seed"], "seed") if "seed" in fields else None,
    )


def cmd_search(args: argparse.Namespace) -> int:
    resp = run_search(_request_from_args(args))
    document = render_search_document(resp)
    sys.stdout.write(render_pretty(resp) if args.pretty else document)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(document)
    print(f"elapsed = {resp.elapsed:.6f}", file=sys.stderr)
    return EXIT_OK


def cmd_example(args: argparse.Namespace) -> int:
    """Run the built-in instance in paper and full modes and cross-check them."""
    paper = SearchProblem(EXAMPLE_BITS, EXAMPLE_ARRAY, EXAMPLE_TARGET, Mode.PAPER)
    full = SearchProblem(EXAMPLE_BITS, EXAMPLE_ARRAY, EXAMPLE_TARGET, Mode.FULL)
    dist_paper = index_distribution(run(paper), paper)
    dist_full = index_distribution(run(full), full)
    deviation = max(
        abs(p - q) for p, q in zip(dist_paper.probabilities, dist_full.probabilities)
    )
    baseline_error = abs(dist_paper.probabilities[0] - EXAMPLE_BASELINE_P0)
    ok = baseline_error <= EXAMPLE_BASELINE_TOLERANCE and deviation <= MODE_AGREEMENT_TOLERANCE
    chosen, _ = decide(dist_paper)
    lines = [
        f"n = {EXAMPLE_BITS}",
        f"b = {EXAMPLE_TARGET}",
        f"a = {','.join(str(v) for v in EXAMPLE_ARRAY)}",
        f"probabilities_paper = {_fmt_floats(dist_paper.probabilities)}",
        f"probabilities_full = {_fmt_floats(dist_full.probabilities)}",
        f"max_mode_deviation = {deviation!r}",
        f"argmax = {chosen}",
        f"status = {'ok' if ok else 'failed'}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    if not ok:
        print(
            f"example check failed: baseline error {baseline_error!r}, "
            f"mode deviation {deviation!r}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = agreement_sweep(args.max_bits, args.max_m, args.count, args.seed)
    sys.stdout.write(sweep_table(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qnearest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run one nearest-element search")
    search.add_argument("--bits", type=int, help="element bit width n")
    search.add_argument("--target", type=int, help="reference value b")
    search.add_argument("--array", help="comma-separated array values, e.g. 2,6")
    search.add_argument("--mode", choices=[m.value for m in Mode], help="execution mode")
    search.add_argument("--shots", type=int, help="also sample this many shots")
    search.add_argument("--seed", type=int, help="sampling seed (default 0)")
    search.add_argument("--input", help="read request fields from a key = value file")
    search.add_argument("--output", help="write the result document to this file")
    search.add_argument("--pretty", action="store_true", help="human-readable stdout")
    search.set_defaults(func=cmd_search)

    example = sub.add_parser(
        "example", help="run the built-in two-element instance and verify it"
    )
    example.set_defaults(func=cmd_example)

    sweep = sub.add_parser("sweep", help="agreement sweep against the classical scan")
    sweep.add_argument("--max-bits", type=int, default=3)
    sweep.add_argument("--max-m", type=int, default=4)
    sweep.add_argument("--count", type=int, default=50, help="instances per (n, m) cell")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

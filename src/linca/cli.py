"""Command-line front end.

Exit codes follow the certification contract: 0 for a certified positive
answer (or a plain successful transformation), 10 for a certified negative
answer with an enclosed witness, 20 for inconclusive-at-cutoff and for
a computation that ran out of memory (one stderr line names the allocation
that failed).  Usage errors exit 2 (argparse), malformed files and JSON
arguments (including numbers that are not exact integers) exit 3,
incompatible data exits 4 (including a ``demo --p`` that is not a prime
below 2^20 and a ``demo sigma-prime --depth`` above
``gallery.MAX_FORCED_DEPTH``), and a ``demo`` whose gallery witness fails
its own check exits 1 after writing the certificate.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import gallery, jsonio, solver, transfer
from .ca import LinearCA, compose
from .groups import subgroup_generated
from .jsonio import FormatError
from .linalg import require_prime

EXIT_OK = 0
EXIT_DEMO_FAILED = 1
EXIT_NEGATIVE = 10
EXIT_UNKNOWN = 20
EXIT_PARSE = 3
EXIT_DOMAIN = 4


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return jsonio.loads(text)


def _json_arg(value: str):
    """Inline JSON, or @path to read it from a file."""
    if value.startswith("@"):
        return _read_json(value[1:])
    return jsonio.loads(value)


def _emit(obj, out: str | None) -> None:
    text = jsonio.dumps(obj)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_ca(path: str) -> LinearCA:
    return jsonio.decode_ca(_read_json(path))


def cmd_eval(args) -> int:
    ca = _load_ca(args.ca)
    data = _read_json(args.input)
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt == jsonio.CONFIG_FORMAT:
        config = jsonio.decode_config(ca.group, ca.p, ca.dim_v, data)
        _emit(jsonio.encode_config(ca.group, ca.apply_config(config)), args.out)
        return EXIT_OK
    if fmt == jsonio.PATTERN_FORMAT:
        pattern = jsonio.decode_pattern(ca.group, ca.p, ca.dim_v, data)
        _emit(jsonio.encode_pattern(ca.group, ca.apply_pattern(pattern)), args.out)
        return EXIT_OK
    raise FormatError("input must be a configuration or pattern file")


def cmd_compose(args) -> int:
    outer = _load_ca(args.outer)
    inner = _load_ca(args.inner)
    _emit(jsonio.encode_ca(compose(outer, inner)), args.out)
    return EXIT_OK


def cmd_invert(args) -> int:
    ca = _load_ca(args.ca)
    result = solver.invert_ca(ca, max_radius=args.max_radius)
    if isinstance(result, solver.ReversibilityCertificate):
        _emit(jsonio.reversible_certificate(result), args.out)
        return EXIT_OK
    if isinstance(result, solver.NotInvertible):
        witness = result.witness
        if isinstance(witness, solver.KernelWitness):
            _emit(jsonio.kernel_witness_certificate(witness), args.out)
        else:
            _emit(jsonio.empty_fiber_certificate(witness), args.out)
        return EXIT_NEGATIVE
    print(f"unknown: {result.reason}")
    return EXIT_UNKNOWN


def cmd_kernel_witness(args) -> int:
    ca = _load_ca(args.ca)
    witness = solver.kernel_witness(
        ca, support_bound=args.support_bound, period_bound=args.period_bound
    )
    if witness is None:
        print("none-found: no kernel witness within the bounds (inconclusive)")
        return EXIT_UNKNOWN
    _emit(
        jsonio.kernel_witness_certificate(solver.KernelWitness(ca, witness)),
        args.out,
    )
    return EXIT_NEGATIVE


def cmd_preimage(args) -> int:
    ca = _load_ca(args.ca)
    target = jsonio.decode_config(ca.group, ca.p, ca.dim_v, _read_json(args.target))
    result = solver.preimage_extract(
        ca,
        target,
        window_index=args.window,
        cutoff=args.cutoff,
        plateau_k=args.plateau_k,
    )
    if result.status == "ok":
        _emit(
            jsonio.preimage_certificate(ca, target, result, args.window, args.cutoff),
            args.out,
        )
        return EXIT_OK
    if result.status == "not-in-image":
        _emit(jsonio.empty_fiber_certificate(result.witness, target=target), args.out)
        return EXIT_NEGATIVE
    print(f"unknown: {result.detail}")
    return EXIT_UNKNOWN


def cmd_restrict(args) -> int:
    ca = _load_ca(args.ca)
    if args.generators is None:
        gens = list(ca.memory)
    else:
        gens = jsonio.decode_elements(ca.group, _json_arg(args.generators))
    sub = subgroup_generated(ca.group, gens)
    _emit(jsonio.encode_ca(transfer.restrict(ca, sub)), args.out)
    return EXIT_OK


def cmd_induce(args) -> int:
    ca = _load_ca(args.ca)
    parent = jsonio.decode_group(_json_arg(args.group))
    gens = jsonio.decode_elements(parent, _json_arg(args.generators))
    sub = subgroup_generated(parent, gens)
    _emit(jsonio.encode_ca(transfer.induce(ca, sub)), args.out)
    return EXIT_OK


def _sigma_round_trips(p: int, j0: int, seed: int, count: int = 3) -> list:
    """Seeded sparse configurations for the certificate's round-trip checks."""
    rng = random.Random(seed)
    trips = []
    top = gallery.block_end(j0 + 1)
    for _ in range(count):
        cells = {}
        for n in rng.sample(range(-4, 5), rng.randint(1, 4)):
            entries = {
                rng.randint(1, top): rng.randint(1, p - 1)
                for _ in range(rng.randint(1, 3))
            }
            cells[n] = gallery.sparse_vector(p, entries)
        trips.append(gallery.lazy_config(p, cells))
    return trips


def cmd_demo(args) -> int:
    require_prime(args.p)
    if args.which == "sigma":
        window = max(args.j0, 1) if args.window is None else args.window
        witness = gallery.sigma_nonreversibility_witness(args.j0, window, p=args.p)
        trips = _sigma_round_trips(args.p, args.j0, args.seed)
        cert = jsonio.sigma_witness_certificate(witness, trips)
        _emit(cert, args.out)
        trips_ok = all(t["ok"] for t in cert["transcript"]["round_trips"])
        if not witness.ok or not trips_ok:
            return EXIT_DEMO_FAILED
        return EXIT_OK
    closure = gallery.sigma_prime_closure_witness(
        8 if args.window is None else args.window, p=args.p
    )
    forced = gallery.sigma_prime_forced_support(args.depth, p=args.p)
    cert = jsonio.sigma_prime_certificate(closure, forced)
    _emit(cert, args.out)
    return EXIT_OK if closure.ok and forced.ok else EXIT_DEMO_FAILED


def cmd_verify(args) -> int:
    cert = _read_json(args.certificate)
    ok, detail = jsonio.verify_certificate(cert)
    print(("valid: " if ok else "INVALID: ") + detail)
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linca",
        description="Exact linear cellular automata over groups: evaluation, "
        "inverse synthesis, preimage extraction, transfer, and witness demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="apply a CA to a configuration or pattern")
    p.add_argument("ca")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compose", help="compose two CAs (outer after inner)")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("invert", help="synthesize and certify an inverse rule")
    p.add_argument("ca")
    p.add_argument("--max-radius", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("kernel-witness", help="search for a nonzero kernel configuration")
    p.add_argument("ca")
    p.add_argument("--support-bound", type=int, default=4)
    p.add_argument("--period-bound", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernel_witness)

    p = sub.add_parser("preimage", help="extract a window preimage of a target")
    p.add_argument("ca")
    p.add_argument("target")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--plateau-k", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_preimage)

    p = sub.add_parser("restrict", help="restrict a CA to the subgroup generated by its memory")
    p.add_argument("ca")
    p.add_argument(
        "--generators",
        help="JSON list of generating elements (or @file); default: the memory set",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("induce", help="induce a CA along a subgroup embedding")
    p.add_argument("ca")
    p.add_argument("--group", required=True, help="ambient group JSON (or @file)")
    p.add_argument(
        "--generators",
        required=True,
        help="JSON list of ambient elements generating the embedded copy (or @file)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("demo", help="emit infinite-dimensional witness certificates")
    p.add_argument("which", choices=["sigma", "sigma-prime"])
    p.add_argument("--j0", type=int, default=3)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--window", type=int)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        # GroupError, CAError, LinalgError, GalleryError and plain misuse.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        # An allocation failed before any answer: neither yes nor no.
        print(f"unknown: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return EXIT_UNKNOWN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

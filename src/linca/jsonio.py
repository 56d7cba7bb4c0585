"""JSON interchange formats and self-verifying certificates.

All files are written in one canonical byte form: sorted keys, no
whitespace between tokens, one trailing newline.  orjson's encoder writes
it, called only in ``_encode``: ``canonical_json`` returns those bytes as
text, ``dumps`` adds the newline, and ``sha256_of`` hashes the same bytes,
so a certificate's ``ca_sha256`` is the sha256 of its CA file without the
newline.  Identical inputs produce identical bytes, and re-serialization
round-trips exactly.

The form is what stdlib ``json.dumps`` writes with ``sort_keys=True`` and
``separators=(",", ":")``, byte for byte, on the domain every encoder here
writes: ints in the signed 64-bit range, bools, None, lists, dicts with
str keys, and strings over chr(0)..chr(126).  Outside it the two differ:
orjson writes DEL and non-ASCII text raw, where json escapes them, and it
raises TypeError, rather than write anything, on a non-str key or an int
that does not fit in 64 bits (below -2^63, or from 2^64 on).

Reading stays on stdlib ``json.loads``, which accepts any JSON layout, so
indented files written before the compact form still read and verify.
orjson's parser is faster, but on first use it allocates an 8 MiB buffer
that the process keeps.

Element encodings per group kind: integers as numbers, lattice points as
arrays, finite-group elements as table ids, free-group words as strings
over a..z (generators) and A..Z (their inverses).

Formats:
  linca-ca/1       {"group", "p", "dimV", "memory", "blocks"}
  linca-config/1   {"kind": "finite-support"|"periodic"|"constant", ...}
  linca-pattern/1  {"cells": [[element, vector], ...]}
  linca-cert/1     {"kind", "ca", "ca_sha256"?, "payload", "transcript"}

Decoding rule: JSON becomes library objects only through the ``decode_*``
functions here, and each either returns objects or raises FormatError; the
``_decoder`` wrapper turns any error raised while reading into one.  Every
number must be an exact integer in the int64 range: ``1``, ``1.0`` and
``true`` all read as 1 (a float counts below 2^53, where it is exact), while
``1.5``, ``"1"``, ``null`` and ``2**70`` are rejected.  Scalars go through
``_int``, vectors and matrices through ``linalg.as_vector``/``as_matrix``,
which apply the same rule.  A cell (or sparse index) listed twice is an
error, not a silent overwrite.

A certificate stores everything needed to re-check it from scratch.  The
verifier decodes the payload into the library's own objects, checks the
claim with their own check, rebuilds the whole certificate from them with
the same builder that wrote it, and compares the two as parsed JSON with
``==``.  That comparison equates ``1``, ``1.0`` and ``true``, exactly as the
decoding rule does; every other difference rejects the certificate.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Optional

import numpy as np
import orjson

from . import gallery, linalg, solver
from .ca import (
    ConstantConfig,
    FiniteSupportConfig,
    LinearCA,
    Pattern,
    PeriodicConfig,
    check_on_group,
    constant,
    finite_support,
    periodic,
    value_vector,
)
from .groups import FiniteGroup, FreeGroup, Group, IntegerGroup, LatticeGroup

CA_FORMAT = "linca-ca/1"
CONFIG_FORMAT = "linca-config/1"
PATTERN_FORMAT = "linca-pattern/1"
CERT_FORMAT = "linca-cert/1"


class FormatError(ValueError):
    """Malformed or unsupported file content."""


def _encode(obj, option: int = 0) -> bytes:
    """The canonical bytes of ``obj``; the one call of the encoder."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS | option)


def canonical_json(obj) -> str:
    return _encode(obj).decode()


def dumps(obj) -> str:
    return _encode(obj, orjson.OPT_APPEND_NEWLINE).decode()


def loads(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise FormatError(f"invalid JSON: {exc}") from exc


def sha256_of(obj) -> str:
    return hashlib.sha256(_encode(obj)).hexdigest()


# -- decoding ----------------------------------------------------------------

# What malformed data raises while it is read; ValueError covers FormatError
# and the library's GroupError, CAError, LinalgError and GalleryError.
_DATA_ERRORS = (ArithmeticError, AttributeError, LookupError, TypeError, ValueError)


def _decoder(what: str):
    """Make a decoder raise only FormatError: any data error raised inside
    becomes 'bad <what>: ...', and a nested decoder's FormatError passes
    through unchanged."""

    def wrap(decode):
        @functools.wraps(decode)
        def checked(*args, **kwargs):
            try:
                return decode(*args, **kwargs)
            except FormatError:
                raise
            except _DATA_ERRORS as exc:
                raise FormatError(f"bad {what}: {exc}") from exc

        return checked

    return wrap


def _int(x) -> int:
    """A JSON number as an int, by the rule of ``linalg.as_vector``: 1, 1.0
    and true read as 1; a fraction, a float from 2^53 on, a string, null, a
    list or an integer outside int64 is rejected."""
    if isinstance(x, int):  # bool included
        if -linalg.INT64_BOUND <= x < linalg.INT64_BOUND:
            return int(x)
    elif isinstance(x, float) and x.is_integer() and abs(x) < linalg.FLOAT_EXACT_BOUND:
        return int(x)
    raise FormatError(f"expected an integer in the int64 range, got {x!r}")


def _expect_format(data, fmt: str) -> None:
    if not isinstance(data, dict) or data.get("format") != fmt:
        raise FormatError(f"expected a {fmt} object")


def _pairs(data, key) -> dict:
    """A list of [key, value] pairs as {key(k): value}; a key listed twice
    is an error, not a silent overwrite."""
    if not isinstance(data, list):
        raise FormatError("expected a list of [key, value] pairs")
    out = {}
    for k, v in data:
        k = key(k)
        if k in out:
            raise FormatError(f"key {k!r} is listed twice")
        out[k] = v
    return out


# -- groups and elements -----------------------------------------------------


def encode_group(group: Group) -> dict:
    return group.descriptor()


@_decoder("group descriptor")
def decode_group(data) -> Group:
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("group descriptor must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "integers":
        return IntegerGroup()
    if kind == "lattice":
        dim = _int(data["dim"])
        if dim > 26:
            raise FormatError("lattice dimension must be <= 26, the bound of the free rank")
        return LatticeGroup(dim)
    if kind == "finite":
        gens = data.get("generators")
        return FiniteGroup(
            [[_int(x) for x in row] for row in data["table"]],
            None if gens is None else [_int(g) for g in gens],
        )
    if kind == "free":
        rank = _int(data["rank"])
        if rank > 26:
            raise FormatError("elements are written in a..z, so free rank must be <= 26")
        return FreeGroup(rank)
    raise FormatError(f"unknown group kind {kind!r}")


def encode_element(group: Group, g):
    if isinstance(group, (IntegerGroup, FiniteGroup)):
        return int(g)
    if isinstance(group, LatticeGroup):
        return [int(x) for x in g]
    if isinstance(group, FreeGroup):
        if group.rank > 26:
            raise FormatError("string encoding supports free rank <= 26")
        out = []
        for x in g:
            base = "a" if x > 0 else "A"
            out.append(chr(ord(base) + abs(x) - 1))
        return "".join(out)
    raise FormatError(f"unsupported group kind {group.kind!r}")


@_decoder("element encoding")
def decode_element(group: Group, data):
    if isinstance(group, (IntegerGroup, FiniteGroup)):
        return group.check(_int(data))
    if isinstance(group, LatticeGroup):
        return group.check(tuple(_int(x) for x in data))
    if isinstance(group, FreeGroup):
        if not isinstance(data, str):
            raise FormatError(f"free-group elements are strings, got {data!r}")
        letters = []
        for ch in data:
            if "a" <= ch <= "z":
                letters.append(ord(ch) - ord("a") + 1)
            elif "A" <= ch <= "Z":
                letters.append(-(ord(ch) - ord("A") + 1))
            else:
                raise FormatError(f"bad free-group letter {ch!r}")
        return group.check(tuple(letters))
    raise FormatError(f"unsupported group kind {group.kind!r}")


@_decoder("element list")
def decode_elements(group: Group, data) -> list:
    if not isinstance(data, list):
        raise FormatError(f"expected a list of elements, got {data!r}")
    return [decode_element(group, g) for g in data]


def _ints(a) -> list:
    """A vector or matrix as (nested) lists of Python ints."""
    return np.asarray(a, dtype=np.int64).tolist()


# -- automata -----------------------------------------------------------------


def _rule_json(ca: LinearCA) -> dict:
    return {
        "memory": [encode_element(ca.group, m) for m in ca.memory],
        "blocks": [_ints(b) for b in ca.blocks],
    }


def encode_ca(ca: LinearCA) -> dict:
    return {
        "format": CA_FORMAT,
        "group": encode_group(ca.group),
        "p": ca.p,
        "dimV": ca.dim_v,
        **_rule_json(ca),
    }


@_decoder("CA definition")
def decode_ca(data) -> LinearCA:
    _expect_format(data, CA_FORMAT)
    group = decode_group(data["group"])
    memory = decode_elements(group, data["memory"])
    return LinearCA(group, _int(data["p"]), _int(data["dimV"]), memory, data["blocks"])


# -- configurations and patterns ----------------------------------------------


def _encode_cells(group: Group, cells: dict) -> list:
    """[element, vector] pairs, sorted by the element encoding's repr."""
    pairs = [[encode_element(group, g), _ints(v)] for g, v in cells.items()]
    return sorted(pairs, key=lambda pair: repr(pair[0]))


def encode_config(group: Group, config) -> dict:
    if isinstance(config, FiniteSupportConfig):
        return {
            "format": CONFIG_FORMAT,
            "kind": "finite-support",
            "cells": _encode_cells(group, config.cells),
        }
    if isinstance(config, PeriodicConfig):
        return {
            "format": CONFIG_FORMAT,
            "kind": "periodic",
            "values": [_ints(v) for v in config.values],
        }
    if isinstance(config, ConstantConfig):
        return {"format": CONFIG_FORMAT, "kind": "constant", "value": _ints(config.value)}
    raise FormatError(f"unsupported configuration {type(config).__name__}")


@_decoder("configuration")
def decode_config(group: Group, p: int, dim_v: int, data):
    _expect_format(data, CONFIG_FORMAT)
    kind = data.get("kind")
    if kind == "finite-support":
        cells = _pairs(data.get("cells", []), functools.partial(decode_element, group))
        config = finite_support(p, dim_v, cells)
    elif kind == "periodic":
        config = periodic(p, dim_v, data["values"])
    elif kind == "constant":
        config = constant(p, dim_v, data["value"])
    else:
        raise FormatError(f"unknown configuration kind {kind!r}")
    check_on_group(group, config)
    return config


def encode_pattern(group: Group, pattern: Pattern) -> dict:
    return {"format": PATTERN_FORMAT, "cells": _encode_cells(group, pattern.cells)}


@_decoder("pattern")
def decode_pattern(group: Group, p: int, dim_v: int, data) -> Pattern:
    _expect_format(data, PATTERN_FORMAT)
    cells = _pairs(data.get("cells", []), functools.partial(decode_element, group))
    return Pattern({g: value_vector(p, dim_v, v) for g, v in cells.items()})


# -- sparse vectors and lazy configurations ------------------------------------


def encode_sparse_vector(v: gallery.SparseVector) -> list:
    return [[i, c] for i, c in sorted(v.entries.items())]


@_decoder("sparse vector")
def decode_sparse_vector(p: int, data) -> gallery.SparseVector:
    return gallery.sparse_vector(p, {i: _int(c) for i, c in _pairs(data, _int).items()})


def encode_sparse_config(x: gallery.LazySparseConfig) -> dict:
    out = {
        "cells": [
            [n, encode_sparse_vector(v)] for n, v in sorted(x.cells.items())
        ],
        "tail": None,
    }
    if x.tail is not None:
        tail = {"kind": x.tail.kind, "start": x.tail.start}
        if x.tail.value is not None:
            tail["value"] = encode_sparse_vector(x.tail.value)
        out["tail"] = tail
    return out


@_decoder("sparse configuration")
def decode_sparse_config(p: int, data) -> gallery.LazySparseConfig:
    cells = _pairs(data.get("cells", []), _int)
    tail, t = None, data.get("tail")
    if t is not None:
        value = decode_sparse_vector(p, t["value"]) if "value" in t else None
        tail = gallery.Tail(t["kind"], _int(t["start"]), value)
    return gallery.lazy_config(
        p, {n: decode_sparse_vector(p, v) for n, v in cells.items()}, tail
    )


# -- certificates ---------------------------------------------------------------


class CertificateError(ValueError):
    """A certificate's claim does not hold."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CertificateError(reason)


def _cert(kind: str, ca_obj, payload: dict, transcript: dict) -> dict:
    cert = {
        "format": CERT_FORMAT,
        "kind": kind,
        "ca": ca_obj,
        "payload": payload,
        "transcript": transcript,
    }
    if isinstance(ca_obj, dict) and ca_obj.get("format") == CA_FORMAT:
        cert["ca_sha256"] = sha256_of(ca_obj)
    return cert


def reversible_certificate(cert: solver.ReversibilityCertificate) -> dict:
    ca = cert.automaton
    payload = {"radius": cert.radius, "inverse": _rule_json(cert.inverse)}
    transcript = {
        "left": _rule_json(cert.left_composition),
        "right": _rule_json(cert.right_composition),
    }
    return _cert("reversible", encode_ca(ca), payload, transcript)


def kernel_witness_certificate(witness: solver.KernelWitness) -> dict:
    ca = witness.automaton
    payload = {"witness": encode_config(ca.group, witness.config)}
    transcript = {"image": encode_config(ca.group, witness.image)}
    return _cert("kernel-witness", encode_ca(ca), payload, transcript)


def empty_fiber_certificate(
    witness: solver.EmptyFiberWitness, target=None
) -> dict:
    """Raises CertificateError if a given target does not restrict to the
    witness pattern on its window."""
    ca = witness.automaton
    payload = {
        "level": witness.level,
        "window": [encode_element(ca.group, g) for g in witness.window_cells],
        "pattern": encode_pattern(ca.group, witness.pattern),
    }
    if target is not None:
        _require(
            all(
                np.array_equal(target.value_at(g, ca.dim_v), witness.pattern.cells[g])
                for g in witness.window_cells
            ),
            "pattern does not restrict the target",
        )
        payload["target"] = encode_config(ca.group, target)
    r_plain, r_aug = witness.ranks
    transcript = {"rank": r_plain, "rank_augmented": r_aug}
    return _cert("empty-fiber", encode_ca(ca), payload, transcript)


def preimage_certificate(
    ca: LinearCA, target, result: solver.PreimageResult, window: int, cutoff: int
) -> dict:
    """Raises CertificateError, with the reason ``solver.window_preimage``
    gives, unless the pattern passes that one check of a window preimage.
    The transcript records the cells B_window the check matched and the
    image it computed there.  The check runs on the result's own window
    system when it was computed for ``ca``, and on a fresh one otherwise,
    as in the rebuild of ``verify_certificate``."""
    ws = result.windows
    if ws is None or ws.ca is not ca:
        ws = solver.WindowSystem(ca)
    failure, image = solver.window_preimage(ws, target, window, result.pattern)
    _require(failure is None, failure)
    payload = {
        "window": window,
        "cutoff": cutoff,
        "target": encode_config(ca.group, target),
        "pattern": encode_pattern(ca.group, result.pattern),
    }
    transcript = {
        "matched_cells": [encode_element(ca.group, g) for g in image.cells],
        "image": encode_pattern(ca.group, image),
    }
    return _cert("preimage", encode_ca(ca), payload, transcript)


def sigma_witness_certificate(
    witness: gallery.NonreversibilityWitness, round_trips: Optional[list] = None
) -> dict:
    """``round_trips`` are sparse configurations x on which sigma and its
    inverse are spot-checked in both orders; each is recorded with its
    result.  A round trip costs time in its largest basis index, so it is
    held to block j0 + 1 before any is computed."""
    limit = gallery.block_end(witness.j0 + 1)
    _require(
        all(
            v.max_index() <= limit
            for x in round_trips or ()
            for v in x.cells.values()
        ),
        "a round trip reaches past block j0 + 1",
    )
    payload = {
        "j0": witness.j0,
        "window_radius": witness.window_radius,
        "z": encode_sparse_config(witness.z),
        "preimage_of_z": encode_sparse_config(witness.preimage_of_z),
        "value_at_zero": encode_sparse_vector(witness.value_at_zero),
    }
    transcript = {
        "agree_cells": list(witness.agree_cells),
        "sigma_of_preimage": encode_sparse_config(
            gallery.sigma_apply(witness.preimage_of_z)
        ),
        "expected_index": gallery.block_start(witness.j0),
        "checks": witness.checks(),
        "note": witness.note,
    }
    if round_trips is not None:
        transcript["round_trips"] = [
            {
                "config": encode_sparse_config(x),
                "ok": gallery.sigma_inverse_apply(gallery.sigma_apply(x)) == x
                and gallery.sigma_apply(gallery.sigma_inverse_apply(x)) == x,
            }
            for x in round_trips
        ]
    return _cert(
        "sigma-nonreversibility",
        {"automaton": "sigma", "p": witness.p},
        payload,
        transcript,
    )


def _sigma_prime_cert(
    closure: gallery.ClosureWitness, forced: gallery.ForcedSupportReport, transcript
) -> dict:
    payload = {
        "window": closure.m,
        "tail_start": closure.tail_start,
        "approximant": encode_sparse_config(closure.approximant),
        "depth": forced.depth,
    }
    return _cert(
        "sigma-prime-nonclosedness",
        {"automaton": "sigma-prime", "p": closure.p},
        payload,
        transcript,
    )


def sigma_prime_certificate(
    closure: gallery.ClosureWitness, forced: gallery.ForcedSupportReport
) -> dict:
    transcript = {
        "window_values": [
            [n, encode_sparse_vector(v)] for n, v in closure.window_values
        ],
        "forced": [[t, val] for t, val in sorted(forced.forced.items())],
        "forced_unit_coordinates": forced.forced_unit_coordinates,
        "solution_dim": forced.solution_dim,
    }
    return _sigma_prime_cert(closure, forced, transcript)


# -- verification ---------------------------------------------------------------
#
# Each decoder turns a certificate's payload into the library's own objects,
# checks the claim once with their own check (raising CertificateError), and
# returns the certificate rebuilt from them by the builder that wrote it.

_ABSENT = object()  # equal to nothing but itself: a field not computed


def _rebuild_reversible(cert) -> dict:
    ca = decode_ca(cert["ca"])
    inverse = cert["payload"]["inverse"]
    memory = decode_elements(ca.group, inverse["memory"])
    nu = LinearCA(ca.group, ca.p, ca.dim_v, memory, inverse["blocks"])
    found = solver.ReversibilityCertificate(ca, nu)
    _require(found.verify(), "compositions are not the identity")
    return reversible_certificate(found)


def _rebuild_kernel_witness(cert) -> dict:
    ca = decode_ca(cert["ca"])
    config = decode_config(ca.group, ca.p, ca.dim_v, cert["payload"]["witness"])
    witness = solver.KernelWitness(ca, config)
    _require(witness.verify(), "witness is zero or its image is not zero")
    return kernel_witness_certificate(witness)


def _rebuild_empty_fiber(cert) -> dict:
    ca = decode_ca(cert["ca"])
    payload = cert["payload"]
    witness = solver.EmptyFiberWitness(
        ca,
        _int(payload["level"]),
        tuple(decode_elements(ca.group, payload["window"])),
        decode_pattern(ca.group, ca.p, ca.dim_v, payload["pattern"]),
    )
    failure = witness.failure()
    _require(failure is None, failure)
    target = None
    if "target" in payload:
        target = decode_config(ca.group, ca.p, ca.dim_v, payload["target"])
    return empty_fiber_certificate(witness, target)


def _rebuild_preimage(cert) -> dict:
    ca = decode_ca(cert["ca"])
    payload = cert["payload"]
    target = decode_config(ca.group, ca.p, ca.dim_v, payload["target"])
    pattern = decode_pattern(ca.group, ca.p, ca.dim_v, payload["pattern"])
    return preimage_certificate(
        ca,
        target,
        solver.PreimageResult("ok", pattern=pattern),
        _int(payload["window"]),
        _int(payload["cutoff"]),
    )


def _gallery_p(cert) -> int:
    return linalg.require_prime(_int(cert["ca"]["p"]))


def _rebuild_sigma(cert) -> dict:
    """The witness costs time in j0 and window_radius, so each is first held
    to the certificate's own size: the preimage of z has j0 cells and the
    transcript lists window_radius + j0 - 1 agreeing cells.  The builder
    holds the round trips to block j0 + 1."""
    p = _gallery_p(cert)
    payload, transcript = cert["payload"], cert["transcript"]
    j0, radius = _int(payload["j0"]), _int(payload["window_radius"])
    _require(len(payload["preimage_of_z"]["cells"]) == j0, "j0 is not the cell count of preimage_of_z")
    _require(
        len(transcript["agree_cells"]) == radius + j0 - 1,
        "window_radius does not match the count of agree_cells",
    )
    trips = transcript.get("round_trips")
    if trips is not None:
        trips = [decode_sparse_config(p, rt["config"]) for rt in trips]
    witness = gallery.sigma_nonreversibility_witness(j0, radius, p)
    _require(witness.ok, "non-reversibility witness fails its checks")
    fresh = sigma_witness_certificate(witness, trips)
    _require(
        all(rt["ok"] for rt in fresh["transcript"].get("round_trips", ())),
        "round-trip spot check failed",
    )
    return fresh


def _rebuild_sigma_prime(cert) -> dict:
    """Listing the 2 window + 1 window values costs time in the window.  When
    the transcript lists another number of them they cannot match, so the
    rebuild lists none: its transcript is a placeholder equal to nothing,
    and the comparison names the first differing field as usual.  The depth
    is held to ``gallery.MAX_FORCED_DEPTH`` by the report itself."""
    p = _gallery_p(cert)
    payload = cert["payload"]
    window = _int(payload["window"])
    closure = gallery.sigma_prime_closure_witness(window, p)
    forced = gallery.sigma_prime_forced_support(_int(payload["depth"]), p)
    if len(cert["transcript"]["window_values"]) != 2 * window + 1:
        return _sigma_prime_cert(closure, forced, _ABSENT)
    _require(closure.ok, "approximant image is not v_1 on the window")
    _require(forced.ok, "forced coordinates are not 1..depth")
    return sigma_prime_certificate(closure, forced)


_REBUILDERS = {
    "reversible": (_rebuild_reversible, "inverse verified by exact composition"),
    "kernel-witness": (_rebuild_kernel_witness, "nonzero kernel configuration verified"),
    "empty-fiber": (_rebuild_empty_fiber, "empty window fiber verified"),
    "preimage": (_rebuild_preimage, "window preimage verified"),
    "sigma-nonreversibility": (_rebuild_sigma, "non-reversibility witness verified"),
    "sigma-prime-nonclosedness": (
        _rebuild_sigma_prime,
        "non-closedness witnesses verified",
    ),
}


def verify_certificate(cert) -> tuple[bool, str]:
    """Re-check a certificate from scratch; returns (ok, detail).

    The payload is decoded into the library's objects, the claim is checked
    by their own check, and the whole certificate is rebuilt from them by
    the builder that wrote it.  The certificate is valid only if it equals
    the rebuild as parsed JSON, compared with ``==``: like the decoding
    rule, that equates ``1``, ``1.0`` and ``true``.  On a mismatch the
    detail names the first top-level key, in sorted order, that differs."""
    if not isinstance(cert, dict) or cert.get("format") != CERT_FORMAT:
        return False, f"not a {CERT_FORMAT} object"
    kind = cert.get("kind")
    if not isinstance(kind, str) or kind not in _REBUILDERS:
        return False, f"unknown certificate kind {kind!r}"
    rebuild, detail = _REBUILDERS[kind]
    try:
        fresh = rebuild(cert)
    except CertificateError as exc:
        return False, str(exc)
    except _DATA_ERRORS as exc:
        return False, f"malformed certificate: {exc}"
    for key in sorted(set(cert) | set(fresh)):
        if cert.get(key, _ABSENT) != fresh.get(key, _ABSENT):
            return False, f"certificate field {key!r} does not match its recomputation"
    return True, detail

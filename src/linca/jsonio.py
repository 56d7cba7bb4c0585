"""JSON interchange formats and self-verifying certificates.

All files are JSON with sorted keys; writing is canonical (two-space
indent, trailing newline), so identical inputs always produce byte
identical outputs and re-serialization round-trips exactly.

Element encodings per group kind: integers as numbers, lattice points as
arrays, finite-group elements as table ids, free-group words as strings
over a..z (generators) and A..Z (their inverses).

Formats:
  linca-ca/1       {"group", "p", "dimV", "memory", "blocks"}
  linca-config/1   {"kind": "finite-support"|"periodic"|"constant", ...}
  linca-pattern/1  {"cells": [[element, vector], ...]}
  linca-cert/1     {"kind", "ca", "ca_sha256"?, "payload", "transcript"}

A certificate stores everything needed to re-check it from scratch; the
verifier recomputes the transcript with the library's own operations and
compares byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import numpy as np

from . import gallery, linalg, solver
from .ca import (
    ConstantConfig,
    FiniteSupportConfig,
    LinearCA,
    Pattern,
    PeriodicConfig,
    compose,
    config_equal,
    constant,
    equals_identity,
    finite_support,
    pattern_to_vec,
    periodic,
    vec_to_pattern,
    zero_config,
)
from .groups import (
    FiniteGroup,
    FreeGroup,
    Group,
    GroupError,
    IntegerGroup,
    LatticeGroup,
)

CA_FORMAT = "linca-ca/1"
CONFIG_FORMAT = "linca-config/1"
PATTERN_FORMAT = "linca-pattern/1"
CERT_FORMAT = "linca-cert/1"


class FormatError(ValueError):
    """Malformed or unsupported file content."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# -- groups and elements -----------------------------------------------------


def encode_group(group: Group) -> dict:
    return group.descriptor()


def decode_group(data) -> Group:
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("group descriptor must be an object with a 'kind'")
    kind = data["kind"]
    try:
        if kind == "integers":
            return IntegerGroup()
        if kind == "lattice":
            return LatticeGroup(int(data["dim"]))
        if kind == "finite":
            return FiniteGroup(data["table"], data.get("generators"))
        if kind == "free":
            return FreeGroup(int(data["rank"]))
    except (KeyError, TypeError, GroupError) as exc:
        raise FormatError(f"bad group descriptor: {exc}") from exc
    raise FormatError(f"unknown group kind {kind!r}")


def encode_element(group: Group, g):
    if isinstance(group, IntegerGroup):
        return int(g)
    if isinstance(group, LatticeGroup):
        return [int(x) for x in g]
    if isinstance(group, FiniteGroup):
        return int(g)
    if isinstance(group, FreeGroup):
        if group.rank > 26:
            raise FormatError("string encoding supports free rank <= 26")
        out = []
        for x in g:
            base = "a" if x > 0 else "A"
            out.append(chr(ord(base) + abs(x) - 1))
        return "".join(out)
    raise FormatError(f"unsupported group kind {group.kind!r}")


def decode_element(group: Group, data):
    try:
        if isinstance(group, IntegerGroup):
            return group.check(int(data))
        if isinstance(group, LatticeGroup):
            return group.check(tuple(int(x) for x in data))
        if isinstance(group, FiniteGroup):
            return group.check(int(data))
        if isinstance(group, FreeGroup):
            letters = []
            for ch in str(data):
                if "a" <= ch <= "z":
                    letters.append(ord(ch) - ord("a") + 1)
                elif "A" <= ch <= "Z":
                    letters.append(-(ord(ch) - ord("A") + 1))
                else:
                    raise FormatError(f"bad free-group letter {ch!r}")
            return group.check(tuple(letters))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad element encoding {data!r}: {exc}") from exc
    raise FormatError(f"unsupported group kind {group.kind!r}")


def _vec(v) -> list:
    return [int(x) for x in v]


def _mat(m) -> list:
    return [[int(x) for x in row] for row in m]


# -- automata -----------------------------------------------------------------


def encode_ca(ca: LinearCA) -> dict:
    return {
        "format": CA_FORMAT,
        "group": encode_group(ca.group),
        "p": ca.p,
        "dimV": ca.dim_v,
        "memory": [encode_element(ca.group, m) for m in ca.memory],
        "blocks": [_mat(b) for b in ca.blocks],
    }


def decode_ca(data) -> LinearCA:
    if not isinstance(data, dict) or data.get("format") != CA_FORMAT:
        raise FormatError(f"expected a {CA_FORMAT} object")
    group = decode_group(data["group"])
    try:
        memory = [decode_element(group, m) for m in data["memory"]]
        return LinearCA(group, int(data["p"]), int(data["dimV"]), memory, data["blocks"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad CA definition: {exc}") from exc


def ca_hash(ca: LinearCA) -> str:
    return sha256_of(encode_ca(ca))


# -- configurations and patterns ----------------------------------------------


def encode_config(group: Group, config) -> dict:
    if isinstance(config, FiniteSupportConfig):
        cells = sorted(
            ((encode_element(group, g), _vec(v)) for g, v in config.cells.items()),
            key=lambda pair: repr(pair[0]),
        )
        return {
            "format": CONFIG_FORMAT,
            "kind": "finite-support",
            "cells": [list(pair) for pair in cells],
        }
    if isinstance(config, PeriodicConfig):
        return {
            "format": CONFIG_FORMAT,
            "kind": "periodic",
            "values": [_vec(v) for v in config.values],
        }
    if isinstance(config, ConstantConfig):
        return {"format": CONFIG_FORMAT, "kind": "constant", "value": _vec(config.value)}
    raise FormatError(f"unsupported configuration {type(config).__name__}")


def decode_config(group: Group, p: int, dim_v: int, data):
    if not isinstance(data, dict) or data.get("format") != CONFIG_FORMAT:
        raise FormatError(f"expected a {CONFIG_FORMAT} object")
    kind = data.get("kind")
    try:
        if kind == "finite-support":
            cells = {
                decode_element(group, g): v for g, v in data.get("cells", [])
            }
            return finite_support(p, dim_v, cells)
        if kind == "periodic":
            if not isinstance(group, IntegerGroup):
                raise FormatError("periodic configurations require the integer group")
            return periodic(p, dim_v, data["values"])
        if kind == "constant":
            return constant(p, dim_v, data["value"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad configuration: {exc}") from exc
    raise FormatError(f"unknown configuration kind {kind!r}")


def encode_pattern(group: Group, pattern: Pattern) -> dict:
    cells = sorted(
        ((encode_element(group, g), _vec(v)) for g, v in pattern.cells.items()),
        key=lambda pair: repr(pair[0]),
    )
    return {"format": PATTERN_FORMAT, "cells": [list(pair) for pair in cells]}


def decode_pattern(group: Group, p: int, dim_v: int, data) -> Pattern:
    if not isinstance(data, dict) or data.get("format") != PATTERN_FORMAT:
        raise FormatError(f"expected a {PATTERN_FORMAT} object")
    cells = {}
    for g, v in data.get("cells", []):
        vec = np.array(v, dtype=np.int64) % p
        if vec.shape != (dim_v,):
            raise FormatError(f"pattern value of wrong length at {g!r}")
        cells[decode_element(group, g)] = vec
    return Pattern(cells)


# -- sparse vectors and lazy configurations ------------------------------------


def encode_sparse_vector(v: gallery.SparseVector) -> list:
    return [[i, c] for i, c in sorted(v.entries.items())]


def decode_sparse_vector(p: int, data) -> gallery.SparseVector:
    try:
        return gallery.sparse_vector(p, {int(i): int(c) for i, c in data})
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad sparse vector: {exc}") from exc


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


def decode_sparse_config(p: int, data) -> gallery.LazySparseConfig:
    try:
        cells = {
            int(n): decode_sparse_vector(p, v) for n, v in data.get("cells", [])
        }
        tail = None
        if data.get("tail") is not None:
            t = data["tail"]
            value = (
                decode_sparse_vector(p, t["value"]) if "value" in t else None
            )
            tail = gallery.Tail(t["kind"], int(t["start"]), value)
        return gallery.lazy_config(p, cells, tail)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad sparse configuration: {exc}") from exc


# -- certificates ---------------------------------------------------------------


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


def _rule_json(ca: LinearCA) -> dict:
    return {
        "memory": [encode_element(ca.group, m) for m in ca.memory],
        "blocks": [_mat(b) for b in ca.blocks],
    }


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
    image = ca.apply_config(witness.config)
    payload = {"witness": encode_config(ca.group, witness.config)}
    transcript = {"image": encode_config(ca.group, image)}
    return _cert("kernel-witness", encode_ca(ca), payload, transcript)


def empty_fiber_certificate(
    witness: solver.EmptyFiberWitness, target=None
) -> dict:
    ca = witness.automaton
    ws = solver.WindowSystem(ca)
    w = ws.window(witness.level)
    vec = pattern_to_vec(witness.pattern, w.target, ca.dim_v, ca.p)
    r_plain = linalg.rank(w.matrix, ca.p)
    r_aug = linalg.rank(np.hstack([w.matrix, vec.reshape(-1, 1)]), ca.p)
    payload = {
        "level": witness.level,
        "window": [encode_element(ca.group, g) for g in witness.window_cells],
        "pattern": encode_pattern(ca.group, witness.pattern),
    }
    if target is not None:
        payload["target"] = encode_config(ca.group, target)
    transcript = {"rank": r_plain, "rank_augmented": r_aug}
    return _cert("empty-fiber", encode_ca(ca), payload, transcript)


def preimage_certificate(
    ca: LinearCA, target, result: solver.PreimageResult, window: int, cutoff: int
) -> dict:
    ws = solver.WindowSystem(ca)
    w = ws.window(window)
    vec = pattern_to_vec(result.pattern, w.source, ca.dim_v, ca.p)
    # Plain int64 product on purpose: independent of matmul's float64 path.
    image_vec = (w.matrix @ vec) % ca.p
    image = vec_to_pattern(image_vec, w.target, ca.dim_v)
    payload = {
        "window": window,
        "cutoff": cutoff,
        "target": encode_config(ca.group, target),
        "pattern": encode_pattern(ca.group, result.pattern),
    }
    transcript = {
        "matched_cells": [encode_element(ca.group, g) for g in w.target],
        "image": encode_pattern(ca.group, image),
    }
    return _cert("preimage", encode_ca(ca), payload, transcript)


def sigma_witness_certificate(
    witness: gallery.NonreversibilityWitness, round_trips: Optional[list] = None
) -> dict:
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
        transcript["round_trips"] = round_trips
    return _cert(
        "sigma-nonreversibility",
        {"automaton": "sigma", "p": witness.p},
        payload,
        transcript,
    )


def sigma_prime_certificate(
    closure: gallery.ClosureWitness, forced: gallery.ForcedSupportReport
) -> dict:
    payload = {
        "window": closure.m,
        "tail_start": closure.tail_start,
        "approximant": encode_sparse_config(closure.approximant),
        "depth": forced.depth,
    }
    transcript = {
        "window_values": [
            [n, encode_sparse_vector(v)] for n, v in closure.window_values
        ],
        "forced": [[t, val] for t, val in sorted(forced.forced.items())],
        "forced_unit_coordinates": forced.forced_unit_coordinates,
        "solution_dim": forced.solution_dim,
    }
    return _cert(
        "sigma-prime-nonclosedness",
        {"automaton": "sigma-prime", "p": closure.p},
        payload,
        transcript,
    )


# -- verification ---------------------------------------------------------------


def verify_certificate(cert) -> tuple[bool, str]:
    """Re-check a certificate from scratch; returns (ok, detail)."""
    if not isinstance(cert, dict) or cert.get("format") != CERT_FORMAT:
        return False, f"not a {CERT_FORMAT} object"
    kind = cert.get("kind")
    try:
        if kind == "reversible":
            return _verify_reversible(cert)
        if kind == "kernel-witness":
            return _verify_kernel_witness(cert)
        if kind == "empty-fiber":
            return _verify_empty_fiber(cert)
        if kind == "preimage":
            return _verify_preimage(cert)
        if kind == "sigma-nonreversibility":
            return _verify_sigma(cert)
        if kind == "sigma-prime-nonclosedness":
            return _verify_sigma_prime(cert)
    except (FormatError, KeyError, TypeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    return False, f"unknown certificate kind {kind!r}"


def _decode_cert_ca(cert) -> LinearCA:
    ca = decode_ca(cert["ca"])
    stored = cert.get("ca_sha256")
    if stored is not None and stored != sha256_of(cert["ca"]):
        raise FormatError("stored content hash does not match the definition")
    return ca


def _verify_reversible(cert) -> tuple[bool, str]:
    ca = _decode_cert_ca(cert)
    inv_data = cert["payload"]["inverse"]
    memory = [decode_element(ca.group, m) for m in inv_data["memory"]]
    nu = LinearCA(ca.group, ca.p, ca.dim_v, memory, inv_data["blocks"])
    left = compose(nu, ca)
    right = compose(ca, nu)
    if not (equals_identity(left) and equals_identity(right)):
        return False, "compositions are not the identity"
    transcript = {"left": _rule_json(left), "right": _rule_json(right)}
    if canonical_json(transcript) != canonical_json(cert["transcript"]):
        return False, "transcript mismatch"
    return True, "inverse verified by exact composition"


def _verify_kernel_witness(cert) -> tuple[bool, str]:
    ca = _decode_cert_ca(cert)
    witness = decode_config(ca.group, ca.p, ca.dim_v, cert["payload"]["witness"])
    if config_equal(ca.group, ca.dim_v, witness, zero_config()):
        return False, "witness is the zero configuration"
    image = ca.apply_config(witness)
    if not config_equal(ca.group, ca.dim_v, image, zero_config()):
        return False, "witness image is not zero"
    transcript = {"image": encode_config(ca.group, image)}
    if canonical_json(transcript) != canonical_json(cert["transcript"]):
        return False, "transcript mismatch"
    return True, "nonzero kernel configuration verified"


def _verify_empty_fiber(cert) -> tuple[bool, str]:
    ca = _decode_cert_ca(cert)
    payload = cert["payload"]
    level = int(payload["level"])
    ws = solver.WindowSystem(ca)
    w = ws.window(level)
    window = tuple(decode_element(ca.group, g) for g in payload["window"])
    if window != w.target:
        return False, "stored window does not match the level's interior"
    pattern = decode_pattern(ca.group, ca.p, ca.dim_v, payload["pattern"])
    if set(pattern.cells) != set(window):
        return False, "pattern domain does not match the window"
    if "target" in payload:
        target = decode_config(ca.group, ca.p, ca.dim_v, payload["target"])
        for g in window:
            if not np.array_equal(target.value_at(g, ca.dim_v), pattern.cells[g]):
                return False, "pattern does not restrict the target"
    vec = pattern_to_vec(pattern, w.target, ca.dim_v, ca.p)
    fiber = linalg.solve_affine(w.matrix, vec, ca.p)
    r_plain = linalg.rank(w.matrix, ca.p)
    r_aug = linalg.rank(np.hstack([w.matrix, vec.reshape(-1, 1)]), ca.p)
    if not fiber.is_empty or r_aug != r_plain + 1:
        return False, "fiber is not empty"
    transcript = {"rank": r_plain, "rank_augmented": r_aug}
    if canonical_json(transcript) != canonical_json(cert["transcript"]):
        return False, "transcript mismatch"
    return True, "empty window fiber verified"


def _verify_preimage(cert) -> tuple[bool, str]:
    ca = _decode_cert_ca(cert)
    payload = cert["payload"]
    window = int(payload["window"])
    target = decode_config(ca.group, ca.p, ca.dim_v, payload["target"])
    pattern = decode_pattern(ca.group, ca.p, ca.dim_v, payload["pattern"])
    ws = solver.WindowSystem(ca)
    w = ws.window(window)
    if set(pattern.cells) != set(w.source):
        return False, "pattern domain does not match the window"
    vec = pattern_to_vec(pattern, w.source, ca.dim_v, ca.p)
    # Plain int64 product on purpose: independent of matmul's float64 path.
    image_vec = (w.matrix @ vec) % ca.p
    if not np.array_equal(image_vec, ws.target_vec(target, window)):
        return False, "pattern image does not match the target"
    image = vec_to_pattern(image_vec, w.target, ca.dim_v)
    transcript = {
        "matched_cells": [encode_element(ca.group, g) for g in w.target],
        "image": encode_pattern(ca.group, image),
    }
    if canonical_json(transcript) != canonical_json(cert["transcript"]):
        return False, "transcript mismatch"
    return True, "window preimage verified"


def _verify_sigma(cert) -> tuple[bool, str]:
    p = int(cert["ca"]["p"])
    payload = cert["payload"]
    z = decode_sparse_config(p, payload["z"])
    preimage = decode_sparse_config(p, payload["preimage_of_z"])
    value = decode_sparse_vector(p, payload["value_at_zero"])
    if gallery.sigma_apply(preimage) != z:
        return False, "stored preimage does not map onto z"
    if value.is_zero() or preimage.value_at(0) != value:
        return False, "value at cell 0 does not separate the pair"
    j0 = int(payload["j0"])
    if value != gallery.basis(p, gallery.block_start(j0)):
        return False, "value at cell 0 is not the block-bottom basis vector"
    stored = dict(cert["transcript"])
    round_trips = stored.pop("round_trips", [])
    for n in stored["agree_cells"]:
        if not z.value_at(int(n)).is_zero():
            return False, "pair does not agree on the stated window"
    for rt in round_trips:
        x = decode_sparse_config(p, rt["config"])
        if gallery.sigma_inverse_apply(gallery.sigma_apply(x)) != x:
            return False, "round-trip spot check failed"
        if gallery.sigma_apply(gallery.sigma_inverse_apply(x)) != x:
            return False, "round-trip spot check failed"
    fresh = sigma_witness_certificate(
        gallery.sigma_nonreversibility_witness(
            j0, int(payload["window_radius"]), p
        )
    )
    if canonical_json(fresh["transcript"]) != canonical_json(stored):
        return False, "transcript mismatch"
    return True, "non-reversibility witness verified"


def _verify_sigma_prime(cert) -> tuple[bool, str]:
    p = int(cert["ca"]["p"])
    payload = cert["payload"]
    approximant = decode_sparse_config(p, payload["approximant"])
    image = gallery.sigma_prime_apply(approximant)
    v1 = gallery.basis(p, 1)
    for n, v in cert["transcript"]["window_values"]:
        want = decode_sparse_vector(p, v)
        if want != v1 or image.value_at(int(n)) != want:
            return False, f"image is not v_1 at cell {n}"
    forced = gallery.sigma_prime_forced_support(int(payload["depth"]), p)
    expected = {
        "forced": [[t, val] for t, val in sorted(forced.forced.items())],
        "forced_unit_coordinates": forced.forced_unit_coordinates,
        "solution_dim": forced.solution_dim,
    }
    stored = {
        "forced": cert["transcript"]["forced"],
        "forced_unit_coordinates": cert["transcript"]["forced_unit_coordinates"],
        "solution_dim": cert["transcript"]["solution_dim"],
    }
    if canonical_json(expected) != canonical_json(stored):
        return False, "forced-support transcript mismatch"
    if forced.forced_unit_coordinates != list(range(1, forced.depth + 1)):
        return False, "forced coordinates are not 1..depth"
    return True, "non-closedness witnesses verified"

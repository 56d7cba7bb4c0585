"""Every certificate kind verifies as built, and tampered copies are
rejected: the verifier rebuilds the whole certificate from its payload with
the builder that wrote it, so no field can be forged or dropped."""

import copy
import functools
import hashlib
import operator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linca import (
    IntegerGroup,
    LinearCA,
    finite_support,
    gallery,
    jsonio,
    solver,
    symmetric_group_3,
)
from linca.cli import main

Z = IntegerGroup()
CA_KINDS = ["reversible", "kernel-witness", "empty-fiber", "preimage"]
KINDS = CA_KINDS + ["sigma-nonreversibility", "sigma-prime-nonclosedness"]
# (kind, with_target): empty-fiber certificates come with and without the
# target configuration they refute.
CASES = [(kind, False) for kind in KINDS] + [("empty-fiber", True)]
CA_CASES = [case for case in CASES if case[0] in CA_KINDS]


def shift_ca():
    return LinearCA(Z, 2, 1, (1,), ([[1]],))


def add_ca():
    return LinearCA(Z, 2, 1, (0, 1), ([[1]], [[1]]))


def projection_ca():
    return LinearCA(Z, 2, 2, (0,), ([[1, 0], [0, 0]],))


@functools.lru_cache(maxsize=None)
def _certificate_text(kind: str, with_target: bool = False) -> str:
    if kind == "reversible":
        result = solver.invert_ca(shift_ca())
        cert = jsonio.reversible_certificate(result)
    elif kind == "kernel-witness":
        result = solver.invert_ca(add_ca())
        cert = jsonio.kernel_witness_certificate(result.witness)
    elif kind == "empty-fiber" and with_target:
        ca = projection_ca()
        target = finite_support(2, 2, {0: [0, 1]})
        result = solver.preimage_extract(ca, target, window_index=1, cutoff=4)
        assert result.status == "not-in-image"
        cert = jsonio.empty_fiber_certificate(result.witness, target)
    elif kind == "empty-fiber":
        witness = solver.surjectivity_counterexample(projection_ca())
        cert = jsonio.empty_fiber_certificate(witness)
    elif kind == "preimage":
        ca = add_ca()
        target = finite_support(2, 1, {0: [1]})
        result = solver.preimage_extract(ca, target, window_index=2, cutoff=8)
        assert result.status == "ok"
        cert = jsonio.preimage_certificate(ca, target, result, 2, 8)
    elif kind == "sigma-nonreversibility":
        witness = gallery.sigma_nonreversibility_witness(3, 3, 2)
        trips = [
            gallery.lazy_config(2, {0: gallery.basis(2, 2)}),
            gallery.lazy_config(2, {-1: gallery.basis(2, 1), 2: gallery.basis(2, 5)}),
        ]
        cert = jsonio.sigma_witness_certificate(witness, trips)
    else:
        closure = gallery.sigma_prime_closure_witness(5, 2)
        forced = gallery.sigma_prime_forced_support(4, 2)
        cert = jsonio.sigma_prime_certificate(closure, forced)
    return jsonio.dumps(cert)


def certificate(kind: str, with_target: bool = False) -> dict:
    """A fresh parsed copy of a library-built certificate of this kind."""
    return jsonio.loads(_certificate_text(kind, with_target))


def rejected(cert) -> str:
    ok, detail = jsonio.verify_certificate(cert)
    assert ok is False, detail
    return detail


@pytest.mark.parametrize("kind, with_target", CASES)
def test_library_certificates_verify(kind, with_target):
    ok, detail = jsonio.verify_certificate(certificate(kind, with_target))
    assert ok, detail


@pytest.mark.parametrize("kind, with_target", CASES)
def test_extra_payload_key_is_rejected(kind, with_target):
    cert = certificate(kind, with_target)
    cert["payload"]["comment"] = "trust me"
    assert rejected(cert) == (
        "certificate field 'payload' does not match its recomputation"
    )


@pytest.mark.parametrize("kind, with_target", CASES)
def test_missing_payload_key_is_rejected(kind, with_target):
    cert = certificate(kind, with_target)
    del cert["payload"][sorted(cert["payload"])[0]]
    rejected(cert)


@pytest.mark.parametrize("kind, with_target", CASES)
def test_payload_or_transcript_of_the_wrong_type_is_rejected(kind, with_target):
    for field in ("payload", "transcript"):
        cert = certificate(kind, with_target)
        cert[field] = []
        rejected(cert)


@pytest.mark.parametrize("kind, with_target", CA_CASES)
def test_removed_ca_hash_is_rejected(kind, with_target):
    cert = certificate(kind, with_target)
    del cert["ca_sha256"]
    assert rejected(cert) == (
        "certificate field 'ca_sha256' does not match its recomputation"
    )


def test_unknown_kind_is_rejected():
    cert = certificate("reversible")
    cert["kind"] = "surjective"
    assert rejected(cert) == "unknown certificate kind 'surjective'"
    cert["kind"] = ["reversible"]
    rejected(cert)


def test_sigma_prime_window_values_emptied_is_rejected():
    cert = certificate("sigma-prime-nonclosedness")
    cert["transcript"]["window_values"] = []
    assert "'transcript'" in rejected(cert)


def test_sigma_prime_truncated_window_with_swapped_approximant_is_rejected():
    cert = certificate("sigma-prime-nonclosedness")
    first_cell, v1 = cert["transcript"]["window_values"][0]
    # sigma'(x)(n) = x(n+1) - psi(x(n)): a lone v_1 at n+1 maps to v_1 at n
    # and to -v_2 at n+1, so the image is v_1 on the first cell only.
    fake = gallery.lazy_config(2, {first_cell + 1: gallery.basis(2, 1)})
    image = gallery.sigma_prime_apply(fake)
    assert image.value_at(first_cell) == gallery.basis(2, 1)
    assert image.value_at(first_cell + 1) != gallery.basis(2, 1)
    cert["payload"]["approximant"] = jsonio.encode_sparse_config(fake)
    cert["transcript"]["window_values"] = [[first_cell, v1]]
    assert "'payload'" in rejected(cert)


@pytest.mark.parametrize("radius", [0, -5, 2])
def test_reversible_radius_changed_is_rejected(radius):
    cert = certificate("reversible")
    assert cert["payload"]["radius"] == 1
    cert["payload"]["radius"] = radius
    assert "'payload'" in rejected(cert)


def test_sigma_round_trip_marked_failed_is_rejected():
    cert = certificate("sigma-nonreversibility")
    assert all(rt["ok"] is True for rt in cert["transcript"]["round_trips"])
    cert["transcript"]["round_trips"][0]["ok"] = False
    assert "'transcript'" in rejected(cert)


def test_preimage_pattern_entry_changed_is_rejected():
    cert = certificate("preimage")
    cells = cert["payload"]["pattern"]["cells"]
    value = next(v for g, v in cells if g == 0)
    value[0] = 1 - value[0]
    assert rejected(cert) == "pattern image does not match the target"


@pytest.mark.parametrize("with_target", [False, True])
def test_empty_fiber_pattern_entry_changed_is_rejected(with_target):
    cert = certificate("empty-fiber", with_target)
    cells = cert["payload"]["pattern"]["cells"]
    value = next(v for _, v in cells if any(v))
    value[value.index(1)] = 0
    rejected(cert)


def test_empty_fiber_rejection_names_its_reason():
    """The level-0 empty-fiber certificate of a projection over Z (dimV 2,
    p = 3), edited, is rejected with the reason its check found."""
    ca = LinearCA(Z, 3, 2, (0,), ([[1, 0], [0, 0]],))
    text = jsonio.dumps(jsonio.empty_fiber_certificate(solver.surjectivity_counterexample(ca)))

    def edited(**payload):
        cert = jsonio.loads(text)
        assert cert["payload"]["window"] == [0] and cert["payload"]["level"] == 0
        cert["payload"].update(payload)
        return rejected(cert)

    def pattern(cell, value):
        return {"format": jsonio.PATTERN_FORMAT, "cells": [[cell, value]]}

    assert edited(level=5000) == "the window has fewer cells than ball(level)"
    assert edited(window=[0, 0]) == "the window lists a cell twice"
    assert edited(window=[1]) == "the pattern is not on the window's cells"
    assert edited(window=[1], pattern=pattern(1, [0, 1])) == "the window is not B_level"
    assert edited(pattern=pattern(0, [1, 0])) == "window fiber is not empty"


def test_kernel_witness_replaced_by_zero_is_rejected():
    cert = certificate("kernel-witness")
    zero = {"format": jsonio.CONFIG_FORMAT, "kind": "finite-support", "cells": []}
    cert["payload"]["witness"] = zero
    cert["transcript"]["image"] = zero
    assert rejected(cert) == "witness is zero or its image is not zero"


def test_mismatch_detail_names_the_first_differing_field():
    cert = certificate("reversible")
    cert["transcript"]["left"]["memory"] = []
    cert["transcript"]["right"]["memory"] = []
    assert rejected(cert) == (
        "certificate field 'transcript' does not match its recomputation"
    )
    cert["payload"]["radius"] = 7
    assert "'payload'" in rejected(cert)


def test_verify_cli_exits_10_on_a_forgery(tmp_path, capsys):
    cert = certificate("sigma-prime-nonclosedness")
    cert["transcript"]["window_values"] = []
    path = tmp_path / "forged.json"
    path.write_text(jsonio.dumps(cert))
    assert main(["verify", str(path)]) == 10
    assert "INVALID: certificate field 'transcript'" in capsys.readouterr().out


def _pinned_certificate(kind: str) -> dict:
    """One small certificate of each kind, built from fixed inputs."""
    sigma = gallery.sigma_truncated_ca(3, 3)
    if kind == "reversible":
        return jsonio.reversible_certificate(solver.invert_ca(sigma))
    if kind == "preimage":
        d = sigma.dim_v
        target = finite_support(3, d, {0: [1, 0, 2, 0, 1, 1], 2: [0, 2, 0, 1, 0, 0]})
        result = solver.preimage_extract(sigma, target, window_index=2, cutoff=6)
        return jsonio.preimage_certificate(sigma, target, result, 2, 6)
    if kind == "empty-fiber":
        return jsonio.empty_fiber_certificate(
            solver.surjectivity_counterexample(projection_ca())
        )
    if kind == "kernel-witness":
        ca = LinearCA(symmetric_group_3(), 2, 1, (0, 1), ([[1]], [[1]]))
        return jsonio.kernel_witness_certificate(solver.invert_ca(ca).witness)
    return certificate(kind)


# sha256 of jsonio.dumps(certificate): certificate bytes are part of the
# interface, so a refactor that changes them must update these on purpose.
PINNED_SHA256 = {
    "reversible": "ca60ff83877a1d5eee726c51a604d5cd5b67e8d3038b7ff3cc63d6a0fc37ae1f",
    "preimage": "eea906f5f28707ccb6edb80421aa3fa4a1c8fc4a31061586c3b2a1b3bd99ee77",
    "empty-fiber": "d0b49bf6b06a126866dcd14a8b26687e0e0e41beb3beba060dd6e95e304f0866",
    "kernel-witness": "825f7c00d65fab0b2803a67b1c87b0a80ebb7db222d3b04d9c2d08f815de8140",
    "sigma-nonreversibility": "e32d49add348512a3271894fb33e28ffc0ac8c5decf7fc04b02baff17ef20b72",
    "sigma-prime-nonclosedness": "159da7b7588ae1e507793bdaf444aa82bd569860116155d674a98abf36f45047",
}


@pytest.mark.parametrize("kind", KINDS)
def test_certificate_bytes_are_pinned(kind):
    cert = _pinned_certificate(kind)
    assert cert["kind"] == kind
    text = jsonio.dumps(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[kind]


# -- every malformed document fails the same way ------------------------------


def _documents() -> list:
    """(original, reader) pairs: every certificate of CASES, read by
    ``verify_certificate``, and the CA, configuration, pattern and sparse
    documents inside them, each read by its decoder."""
    docs = []
    for kind, with_target in CASES:
        cert = certificate(kind, with_target)
        docs.append((cert, jsonio.verify_certificate))
        parts = list(cert["payload"].items()) + list(cert["transcript"].items())
        if kind in CA_KINDS:
            ca = jsonio.decode_ca(cert["ca"])
            docs.append((cert["ca"], jsonio.decode_ca))
            readers = {
                jsonio.CONFIG_FORMAT: jsonio.decode_config,
                jsonio.PATTERN_FORMAT: jsonio.decode_pattern,
            }
            for _, doc in parts:
                fmt = doc.get("format") if isinstance(doc, dict) else None
                if fmt in readers:
                    read = functools.partial(readers[fmt], ca.group, ca.p, ca.dim_v)
                    docs.append((doc, read))
        else:
            p = cert["ca"]["p"]
            for key, doc in parts:
                if key in ("z", "preimage_of_z", "approximant"):
                    docs.append((doc, functools.partial(jsonio.decode_sparse_config, p)))
                if key == "value_at_zero":
                    docs.append((doc, functools.partial(jsonio.decode_sparse_vector, p)))
    return docs


DOCUMENTS = _documents()
DELETE = "delete"
# Replacements for one value: not an integer, not a number, the wrong
# shape, missing, and beyond int64.
REPLACEMENTS = [1.5, "1", [1], None, 2**70]
# Deleting these leaves a true, weaker certificate: an empty fiber without
# the target it refutes, a sigma witness without its spot checks.
OPTIONAL = {("payload", "target"), ("transcript", "round_trips")}


def _paths(doc, prefix=()):
    """The path of every value below ``doc``, as a tuple of keys/indices."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A valid document with one value replaced, or one key deleted."""
    original, read = draw(st.sampled_from(DOCUMENTS))
    how = draw(st.sampled_from(REPLACEMENTS + [DELETE]))
    paths = [path for path in _paths(original) if how != DELETE or isinstance(path[-1], str)]
    assume(paths)
    path = draw(st.sampled_from(paths))
    doc = copy.deepcopy(original)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if how == DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(how)
    assume(doc != original)
    return read, doc, how == DELETE and path in OPTIONAL


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(mutated_documents())
def test_mutated_documents_are_format_errors_or_invalid(case):
    """Decoders raise nothing but FormatError, and verify_certificate
    rejects every mutated certificate rather than raising."""
    read, doc, weaker_claim = case
    if read is jsonio.verify_certificate:
        ok, detail = jsonio.verify_certificate(doc)
        assert not ok or weaker_claim, detail
    else:
        try:
            read(doc)
        except jsonio.FormatError:
            pass

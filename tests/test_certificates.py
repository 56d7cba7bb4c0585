"""Every certificate kind verifies as built, and tampered copies are
rejected: the verifier rebuilds the whole certificate from its payload with
the builder that wrote it, so no field can be forged or dropped."""

import copy
import functools
import hashlib
import json
import operator
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linca import (
    FiniteGroup,
    FreeGroup,
    IntegerGroup,
    LatticeGroup,
    LinearCA,
    Pattern,
    constant,
    cyclic_group,
    finite_support,
    gallery,
    jsonio,
    periodic,
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


# Every group kind, for the one window-preimage check.  Each finite group
# gets a small generating set, so that A_1 is not yet the whole group: a
# cell can be added to it, and a far larger window lists more cells.
PREIMAGE_GROUPS = {
    "Z": IntegerGroup(),
    "Z2": LatticeGroup(2),
    "F2": FreeGroup(2),
    "S3": FiniteGroup(symmetric_group_3().descriptor()["table"], [1, 2]),
    "Z6": FiniteGroup(cyclic_group(6).descriptor()["table"], [1]),
}
DOMAIN = "pattern domain does not match the window"
IMAGE = "pattern image does not match the target"


@functools.lru_cache(maxsize=None)
def _group_preimage_text(name: str) -> str:
    """The window-1 preimage certificate of a rule with identity block I and
    two more blocks on ball(1), for a target in its image."""
    group, rng, p, d = PREIMAGE_GROUPS[name], random.Random(5), 3, 2
    e = group.identity()
    memory = [e] + rng.sample([g for g in group.ball(1) if g != e], 2)
    blocks = [np.eye(d, dtype=np.int64)]
    blocks += [[[rng.randrange(p) for _ in range(d)] for _ in range(d)] for _ in memory[1:]]
    ca = LinearCA(group, p, d, memory, blocks)
    source = {g: [rng.randrange(p) for _ in range(d)] for g in group.ball(1)}
    target = ca.apply_config(finite_support(p, d, source))
    result = solver.preimage_extract(ca, target, window_index=1, cutoff=4)
    assert result.status == "ok"
    return jsonio.dumps(jsonio.preimage_certificate(ca, target, result, 1, 4))


@pytest.mark.parametrize("name", PREIMAGE_GROUPS)
def test_preimage_certificates_verify_on_every_group_kind(name):
    ok, detail = jsonio.verify_certificate(jsonio.loads(_group_preimage_text(name)))
    assert ok, detail


def _missing_cell(cert, group):
    cert["payload"]["pattern"]["cells"].pop()


def _extra_cell(cert, group):
    """A cell of ball(r0 + 2) outside A_1, with a nonzero value."""
    source = solver.WindowSystem(jsonio.decode_ca(cert["ca"])).cells(1)[0]
    extra = next(g for g in group.ball(3) if g not in source)
    cert["payload"]["pattern"]["cells"].append([jsonio.encode_element(group, extra), [1, 0]])


def _flipped_entry(cert, group):
    """The identity's block is I, so a changed value at the identity, a cell
    of B_1, changes the image there."""
    e = jsonio.encode_element(group, group.identity())
    value = next(v for g, v in cert["payload"]["pattern"]["cells"] if g == e)
    value[0] = (value[0] + 1) % cert["ca"]["p"]


def _far_window(cert, group):
    cert["payload"]["window"] = 10**4


@pytest.mark.parametrize("name", PREIMAGE_GROUPS)
@pytest.mark.parametrize(
    "tamper, reason",
    [(_missing_cell, DOMAIN), (_extra_cell, DOMAIN), (_flipped_entry, IMAGE), (_far_window, DOMAIN)],
    ids=["missing-cell", "extra-cell", "flipped-entry", "far-window"],
)
def test_tampered_preimage_is_rejected_with_the_checks_reason(name, tamper, reason):
    cert = jsonio.loads(_group_preimage_text(name))
    tamper(cert, PREIMAGE_GROUPS[name])
    assert rejected(cert) == reason


def test_preimage_certificate_reuses_the_result_window_system(monkeypatch):
    """The builder checks the pattern on the window system the extraction
    built; the rebuild in ``verify_certificate`` builds its own, and so
    does the builder for a result without one or one for another rule.
    The window system is left out of the result's repr and equality."""
    ca = LinearCA(Z, 3, 1, (0, 1), ([[1]], [[2]]))
    target = ca.apply_config(finite_support(3, 1, {0: [1], 2: [2]}))
    result = solver.preimage_extract(ca, target, window_index=2, cutoff=8)
    assert result.status == "ok" and result.windows.ca is ca
    built = []
    window_system = solver.WindowSystem

    def counted(*args, **kwargs):
        built.append(args[0])
        return window_system(*args, **kwargs)

    monkeypatch.setattr(solver, "WindowSystem", counted)
    cert = jsonio.preimage_certificate(ca, target, result, 2, 8)
    assert built == []
    assert jsonio.verify_certificate(jsonio.loads(jsonio.dumps(cert)))[0]
    assert len(built) == 1
    bare = solver.PreimageResult("ok", pattern=result.pattern)
    assert jsonio.preimage_certificate(ca, target, bare, 2, 8) == cert
    same = LinearCA(Z, 3, 1, (0, 1), ([[1]], [[2]]))
    assert jsonio.preimage_certificate(same, target, result, 2, 8) == cert
    assert [b is ca for b in built] == [False, True, False]
    twin = solver.PreimageResult(**{**vars(result), "windows": None})
    assert twin == result and repr(twin) == repr(result)


def test_preimage_at_a_negative_window_is_rejected():
    """A forged preimage certificate at window -1 of a rule with r0 = 2:
    its pattern lists ball(r0 - 1) = {-1, 0, 1}, and its transcript is the
    image on interior(ball(1), M) = {-1}, which matches the target.  Every
    field agrees with that window, so only the negative index rejects it."""
    ca = LinearCA(Z, 2, 1, (0, 2), ([[1]], [[1]]))
    source = finite_support(2, 1, {-2: [1], -1: [1], 1: [1], 2: [1]})
    target = ca.apply_config(source)
    ws = solver.WindowSystem(ca)
    assert ws.r0 == 2
    pattern = Pattern({g: source.value_at(g, 1) for g in ws.cells(0)[0]})
    result = solver.PreimageResult("ok", pattern=pattern)
    cert = jsonio.loads(jsonio.dumps(jsonio.preimage_certificate(ca, target, result, 0, 0)))
    assert jsonio.verify_certificate(cert)[0]
    forged = pattern.restrict((-1, 0, 1))
    image = ca.apply_pattern(forged)
    assert list(image.cells) == [-1] and image.cells[-1].tolist() == target.value_at(-1, 1).tolist()
    cert["payload"].update(window=-1, pattern=jsonio.encode_pattern(Z, forged))
    cert["transcript"] = {"matched_cells": [-1], "image": jsonio.encode_pattern(Z, image)}
    assert rejected(cert) == "malformed certificate: window index must be nonnegative"


def test_empty_fiber_at_a_negative_level_is_rejected():
    """A forged empty-fiber certificate at level -1 of a rule with r0 = 2
    that never writes the second coordinate: [0, 1] at B_{-1} = {-1} has an
    empty fiber under the window map of ball(1), and the transcript holds
    that window's ranks.  Only the negative level rejects it."""
    proj = [[1, 0], [0, 0]]
    ca = LinearCA(Z, 3, 2, (0, 2), (proj, proj))
    cert = jsonio.loads(jsonio.dumps(jsonio.empty_fiber_certificate(solver.surjectivity_counterexample(ca))))
    assert jsonio.verify_certificate(cert)[0]
    cert["payload"].update(
        level=-1,
        window=[-1],
        pattern={"format": jsonio.PATTERN_FORMAT, "cells": [[-1, [0, 1]]]},
    )
    cert["transcript"] = {"rank": 1, "rank_augmented": 2}
    reason = rejected(cert)
    assert reason.startswith("malformed certificate:") and "nonnegative" in reason


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
    "reversible": "6cd625735a1cbee1381a27926cfc87d6daabef9d44a3a46c7d9ea7855043e8fa",
    "preimage": "93e80562992f7b9279d820feb10c212aa90863cee2772d5dfb6f0c8631e66d56",
    "empty-fiber": "d2f6a3f5b0142584d7325b4763ed86d9257104205af86f42b9774e57db4f73fc",
    "kernel-witness": "3844ff1dc0c3edbc5382a7920fe74d8974acd9b91b0ee5d442bb0d41d7bd9075",
    "sigma-nonreversibility": "906b873097431ac37e3b07c637de3ef49756769b6777a2dd560b5c70ba308605",
    "sigma-prime-nonclosedness": "b7e3e75fbb216bf9ecc3de9b4827f858b1a725190ab4efebad802a6c38c19018",
}


@pytest.mark.parametrize("kind", KINDS)
def test_certificate_bytes_are_pinned(kind):
    cert = _pinned_certificate(kind)
    assert cert["kind"] == kind
    text = jsonio.dumps(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[kind]


# -- one byte form, and files written before it -------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_files_are_written_in_the_one_canonical_form(kind):
    """Every file is canonical_json plus a newline, on one line, and a
    certificate's ca_sha256 is the hash of its CA file's bytes."""
    cert = _pinned_certificate(kind)
    for doc in (cert, cert["ca"]):
        text = jsonio.dumps(doc)
        assert text == jsonio.canonical_json(doc) + "\n"
        assert text.count("\n") == 1
    if kind in CA_KINDS:
        ca_file = jsonio.dumps(cert["ca"])
        assert cert["ca_sha256"] == hashlib.sha256(ca_file[:-1].encode()).hexdigest()


def test_jsonio_has_one_encoder():
    """orjson.dumps is called once, in jsonio, and stdlib json.dumps
    nowhere; the pattern for the latter does not match "orjson.dumps("."""
    src = Path(__file__).resolve().parents[1] / "src"
    sources = [f for f in src.rglob("*") if f.suffix in (".py", ".pyx", ".c")]
    assert sources
    texts = {f.name: f.read_text() for f in sources}
    calls = {name: t.count("orjson.dumps(") for name, t in texts.items()}
    assert {name: n for name, n in calls.items() if n} == {"jsonio.py": 1}
    assert [name for name, t in texts.items() if re.search(r"(?<!\w)json\.dumps\(", t)] == []
    assert [name for name, t in texts.items() if "indent=" in t] == []


def stdlib_form(obj) -> str:
    """The canonical form as stdlib json writes it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# The domain on which the encoder and stdlib json write the same bytes.
DOMAIN_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=126))
DOMAIN_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**63), 2**63 - 1) | DOMAIN_TEXT,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(DOMAIN_TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(DOMAIN_DOCUMENTS)
def test_canonical_json_is_the_stdlib_form_on_its_domain(doc):
    text = stdlib_form(doc)
    assert jsonio.canonical_json(doc) == text
    assert jsonio.dumps(doc) == text + "\n"
    assert jsonio.sha256_of(doc) == hashlib.sha256(text.encode()).hexdigest()


def _encoded_files() -> list:
    """The file text of every certificate built in this module, and of the
    CA, configuration and pattern encoders on every group kind."""
    texts = [_certificate_text(kind, with_target) for kind, with_target in CASES]
    texts += [jsonio.dumps(_pinned_certificate(kind)) for kind in KINDS]
    texts += [_group_preimage_text(name) for name in PREIMAGE_GROUPS]
    for group in [*PREIMAGE_GROUPS.values(), FreeGroup(26)]:
        cells = {g: [1, 2] for g in group.ball(1)}
        blocks = [np.eye(2, dtype=np.int64)] * len(cells)
        docs = [
            jsonio.encode_ca(LinearCA(group, 3, 2, list(cells), blocks)),
            jsonio.encode_config(group, finite_support(3, 2, cells)),
            jsonio.encode_pattern(group, Pattern(cells)),
        ]
        texts += [jsonio.dumps(doc) for doc in docs]
    for config in (periodic(3, 2, [[1, 2], [0, 1]]), constant(3, 2, [2, 1])):
        texts.append(jsonio.dumps(jsonio.encode_config(Z, config)))
    return texts


def test_encoded_files_are_ascii_without_del():
    """Every encoder writes inside the domain above: the files are ASCII
    with no DEL, and stdlib json writes the same bytes for them."""
    for text in _encoded_files():
        assert text.isascii() and "\x7f" not in text
        assert text == stdlib_form(jsonio.loads(text)) + "\n"


@pytest.mark.parametrize(
    "doc",
    [2**64, -(2**63) - 1, {"blocks": [[[2**70]]]}, {1: "a"}, [{"p": 2, (0, 1): 1}]],
    ids=["2**64", "-2**63-1", "nested 2**70", "int key", "tuple key"],
)
def test_dumps_refuses_values_no_decoder_reads(doc):
    for encode in (jsonio.dumps, jsonio.canonical_json, jsonio.sha256_of):
        with pytest.raises(TypeError):
            encode(doc)


def old_format(obj) -> str:
    """The bytes files were written in before the compact form."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("kind", KINDS)
def test_indented_certificates_still_verify(kind, tmp_path, capsys):
    text = old_format(certificate(kind))
    ok, detail = jsonio.verify_certificate(jsonio.loads(text))
    assert ok, detail
    path = tmp_path / "old.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid: ")


def test_indented_ca_file_is_still_read(tmp_path):
    ca_path = tmp_path / "ca.json"
    ca_path.write_text(old_format(jsonio.encode_ca(shift_ca())))
    out = tmp_path / "cert.json"
    assert main(["invert", str(ca_path), "--out", str(out)]) == 0
    cert = jsonio.loads(out.read_text())
    assert cert["kind"] == "reversible"
    assert out.read_text() == jsonio.dumps(cert)


def test_tampered_indented_certificate_is_invalid(tmp_path, capsys):
    cert = certificate("reversible")
    cert["payload"]["inverse"]["blocks"][0][0][0] ^= 1
    path = tmp_path / "tampered.json"
    path.write_text(old_format(cert))
    assert main(["verify", str(path)]) == 10
    assert capsys.readouterr().out.startswith("INVALID: ")


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

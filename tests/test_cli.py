"""End-to-end command-line flows: formats, exit codes, determinism."""

import subprocess
import sys

import numpy as np

from linca import IntegerGroup, LinearCA, cyclic_group, finite_support
from linca import jsonio
from linca.cli import main

Z = IntegerGroup()


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jsonio.dumps(obj))
    return str(path)


def shift_ca_json():
    return jsonio.encode_ca(LinearCA(Z, 2, 1, (1,), ([[1]],)))


def add_rule_json():
    return jsonio.encode_ca(LinearCA(Z, 2, 1, (0, 1), ([[1]], [[1]])))


def delta_json():
    return jsonio.encode_config(Z, finite_support(2, 1, {0: [1]}))


def test_ca_json_round_trip_is_byte_identical(tmp_path):
    data = shift_ca_json()
    text = jsonio.dumps(data)
    again = jsonio.dumps(jsonio.encode_ca(jsonio.decode_ca(jsonio.loads(text))))
    assert text == again


def test_free_group_element_encoding():
    from linca import FreeGroup

    f = FreeGroup(2)
    word = f.word([1, -2, 1, 1])
    enc = jsonio.encode_element(f, word)
    assert enc == "aBaa"
    assert jsonio.decode_element(f, enc) == word


def test_eval_shift_on_delta(tmp_path, capsys):
    ca = write(tmp_path, "ca.json", shift_ca_json())
    cfg = write(tmp_path, "x.json", delta_json())
    out = str(tmp_path / "y.json")
    assert main(["eval", ca, cfg, "--out", out]) == 0
    result = jsonio.loads((tmp_path / "y.json").read_text())
    assert result["cells"] == [[-1, [1]]]


def test_eval_identity_pattern(tmp_path):
    ca = write(
        tmp_path, "ca.json", jsonio.encode_ca(LinearCA(Z, 3, 1, (0,), ([[1]],)))
    )
    pattern = write(
        tmp_path,
        "pat.json",
        {"format": jsonio.PATTERN_FORMAT, "cells": [[0, [2]], [1, [1]]]},
    )
    out = str(tmp_path / "out.json")
    assert main(["eval", ca, pattern, "--out", out]) == 0
    got = jsonio.loads((tmp_path / "out.json").read_text())
    assert got["cells"] == [[0, [2]], [1, [1]]]


def test_compose_cli(tmp_path):
    ca = write(tmp_path, "ca.json", shift_ca_json())
    out = str(tmp_path / "c.json")
    assert main(["compose", ca, ca, "--out", out]) == 0
    composed = jsonio.decode_ca(jsonio.loads((tmp_path / "c.json").read_text()))
    assert composed.memory == (0, 2)


def test_invert_positive_negative_unknown(tmp_path):
    shift = write(tmp_path, "shift.json", shift_ca_json())
    add = write(tmp_path, "add.json", add_rule_json())
    cert_path = str(tmp_path / "cert.json")
    assert main(["invert", shift, "--out", cert_path]) == 0
    cert = jsonio.loads((tmp_path / "cert.json").read_text())
    assert cert["kind"] == "reversible"
    assert main(["verify", cert_path]) == 0

    neg_path = str(tmp_path / "neg.json")
    assert main(["invert", add, "--out", neg_path]) == 10
    neg = jsonio.loads((tmp_path / "neg.json").read_text())
    assert neg["kind"] == "kernel-witness"
    assert main(["verify", neg_path]) == 0

    from linca.gallery import sigma_truncated_ca

    deep = write(tmp_path, "deep.json", jsonio.encode_ca(sigma_truncated_ca(4, 2)))
    assert main(["invert", deep, "--max-radius", "1"]) == 20


def test_kernel_witness_cli(tmp_path):
    add = write(tmp_path, "add.json", add_rule_json())
    out = str(tmp_path / "w.json")
    assert main(["kernel-witness", add, "--out", out]) == 10
    assert main(["verify", out]) == 0
    shift = write(tmp_path, "shift.json", shift_ca_json())
    assert main(["kernel-witness", shift]) == 20


def test_preimage_cli(tmp_path):
    shift = write(tmp_path, "shift.json", shift_ca_json())
    target = write(tmp_path, "y.json", delta_json())
    out = str(tmp_path / "pre.json")
    assert main(["preimage", shift, target, "--window", "3", "--out", out]) == 0
    assert main(["verify", out]) == 0
    cert = jsonio.loads((tmp_path / "pre.json").read_text())
    assert cert["kind"] == "preimage"

    proj = write(
        tmp_path,
        "proj.json",
        jsonio.encode_ca(LinearCA(Z, 2, 2, (0,), (np.diag([1, 0]),))),
    )
    bad_target = write(
        tmp_path,
        "bad.json",
        jsonio.encode_config(Z, finite_support(2, 2, {0: [0, 1]})),
    )
    neg_out = str(tmp_path / "noim.json")
    assert main(["preimage", proj, bad_target, "--out", neg_out]) == 10
    assert jsonio.loads((tmp_path / "noim.json").read_text())["kind"] == "empty-fiber"
    assert main(["verify", neg_out]) == 0


def test_restrict_induce_cli(tmp_path):
    ca = write(
        tmp_path,
        "even.json",
        jsonio.encode_ca(LinearCA(Z, 2, 1, (0, 2), ([[1]], [[1]]))),
    )
    restricted = str(tmp_path / "res.json")
    assert main(["restrict", ca, "--out", restricted]) == 0
    res = jsonio.decode_ca(jsonio.loads((tmp_path / "res.json").read_text()))
    assert res.memory == (0, 1)

    induced = str(tmp_path / "ind.json")
    assert (
        main(
            [
                "induce",
                restricted,
                "--group",
                '{"kind": "lattice", "dim": 2}',
                "--generators",
                "[[1, 0]]",
                "--out",
                induced,
            ]
        )
        == 0
    )
    ind = jsonio.decode_ca(jsonio.loads((tmp_path / "ind.json").read_text()))
    assert ind.memory == ((0, 0), (1, 0))


def test_demo_certificates_round_trip(tmp_path):
    sig = str(tmp_path / "sigma.json")
    assert main(["demo", "sigma", "--j0", "4", "--seed", "5", "--out", sig]) == 0
    assert main(["verify", sig]) == 0
    sp = str(tmp_path / "sp.json")
    assert main(["demo", "sigma-prime", "--depth", "4", "--window", "5", "--out", sp]) == 0
    assert main(["verify", sp]) == 0


def test_demo_sigma_prime_window_zero_is_kept(tmp_path):
    """m = 0 is a valid window, so --window 0 must not fall back to 8."""
    out = tmp_path / "sp0.json"
    assert main(["demo", "sigma-prime", "--window", "0", "--out", str(out)]) == 0
    assert jsonio.loads(out.read_text())["payload"]["window"] == 0
    assert main(["verify", str(out)]) == 0


def test_verify_rejects_tampered_certificate(tmp_path):
    shift = write(tmp_path, "shift.json", shift_ca_json())
    cert_path = str(tmp_path / "cert.json")
    assert main(["invert", shift, "--out", cert_path]) == 0
    cert = jsonio.loads((tmp_path / "cert.json").read_text())
    cert["payload"]["inverse"]["blocks"][0] = [[1]]
    cert["payload"]["inverse"]["blocks"][-1] = [[1]]
    bad = write(tmp_path, "bad.json", cert)
    assert main(["verify", bad]) == 10


def test_verify_rejects_hash_mismatch(tmp_path):
    shift = write(tmp_path, "shift.json", shift_ca_json())
    cert_path = str(tmp_path / "cert.json")
    main(["invert", shift, "--out", cert_path])
    cert = jsonio.loads((tmp_path / "cert.json").read_text())
    cert["ca"]["p"] = 3
    bad = write(tmp_path, "bad.json", cert)
    assert main(["verify", bad]) == 10


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["invert", str(bad)]) == 3
    valid_ca = write(tmp_path, "ca.json", shift_ca_json())
    not_a_config = write(tmp_path, "x.json", {"format": "nope"})
    assert main(["eval", valid_ca, not_a_config]) == 3
    # The smallest prime above 2^20 is outside the exact int64 range.
    big_p = write(tmp_path, "big_p.json", dict(shift_ca_json(), p=1048583))
    assert main(["invert", big_p]) == 3


def test_domain_error_exit_code(tmp_path):
    ca = write(tmp_path, "ca.json", add_rule_json())
    assert main(["restrict", ca, "--generators", "[2]"]) == 4
    # demo --p must be a prime below 2^20; nothing is written otherwise.
    for which, p in (("sigma", "4"), ("sigma-prime", "1048583")):
        out = tmp_path / f"{which}.json"
        assert main(["demo", which, "--p", p, "--out", str(out)]) == 4
        assert not out.exists()
    # An explicit --window 0 is used, not replaced by the default: for
    # sigma it is below j0, which the gallery rejects.
    out = tmp_path / "sigma-window0.json"
    assert main(["demo", "sigma", "--j0", "3", "--window", "0", "--out", str(out)]) == 4
    assert not out.exists()
    # Negative windows, radii and search bounds are domain errors, not
    # crashes or Unknowns.
    target = write(tmp_path, "delta.json", delta_json())
    for args in (
        ["preimage", ca, target, "--window", "-1"],
        ["preimage", ca, target, "--window", "-1", "--cutoff", "-3"],
        ["invert", ca, "--max-radius", "-1"],
        ["kernel-witness", ca, "--support-bound", "-1", "--period-bound", "-1"],
        ["kernel-witness", ca, "--support-bound", "-1"],
        ["kernel-witness", ca, "--period-bound", "-3"],
    ):
        out = tmp_path / "negative.json"
        assert main(args + ["--out", str(out)]) == 4
        assert not out.exists()


def test_determinism_byte_identical(tmp_path):
    add = write(tmp_path, "add.json", add_rule_json())
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["invert", add, "--out", out1]) == 10
    assert main(["invert", add, "--out", out2]) == 10
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    d1 = str(tmp_path / "d1.json")
    d2 = str(tmp_path / "d2.json")
    assert main(["demo", "sigma", "--j0", "3", "--seed", "9", "--out", d1]) == 0
    assert main(["demo", "sigma", "--j0", "3", "--seed", "9", "--out", d2]) == 0
    assert (tmp_path / "d1.json").read_bytes() == (tmp_path / "d2.json").read_bytes()


def test_finite_group_ca_file(tmp_path):
    z6 = cyclic_group(6)
    ca = LinearCA(z6, 2, 1, (0, 2), ([[1]], [[1]]))
    path = write(tmp_path, "z6.json", jsonio.encode_ca(ca))
    out = str(tmp_path / "cert.json")
    code = main(["invert", path, "--out", out])
    assert code in (0, 10)
    assert main(["verify", out]) == 0


def test_module_invocation_subprocess(tmp_path):
    """Certificates emitted by one process verify in a fresh one."""
    ca_path = write(tmp_path, "ca.json", shift_ca_json())
    out = str(tmp_path / "cert.json")
    proc = subprocess.run(
        [sys.executable, "-m", "linca", "invert", ca_path, "--out", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    demo_out = str(tmp_path / "demo.json")
    assert main(["demo", "sigma-prime", "--depth", "3", "--out", demo_out]) == 0
    for path in (out, demo_out):
        proc2 = subprocess.run(
            [sys.executable, "-m", "linca", "verify", path],
            capture_output=True,
            text=True,
        )
        assert proc2.returncode == 0
        assert "valid" in proc2.stdout

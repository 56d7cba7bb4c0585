"""End-to-end command-line flows: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from linca import IntegerGroup, LatticeGroup, LinearCA, cyclic_group, finite_support, periodic
from linca import jsonio, solver
from linca.cli import main
from linca.gallery import MAX_FORCED_DEPTH

Z = IntegerGroup()
# The directory holding the package under test: ``python -m linca`` run
# there imports it, installed or not.
SRC = Path(jsonio.__file__).parents[1]


def write(tmp_path, name, obj):
    """Write obj in the canonical form with stdlib json, which also writes
    values the library's encoder refuses, such as 2**70."""
    path = tmp_path / name
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
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


def test_preimage_of_a_periodic_target_off_the_integers_exits_3(tmp_path, capsys):
    """The decoder rejects the target through the same check as the library."""
    lattice = LatticeGroup(2)
    ca = write(
        tmp_path, "z2.json", jsonio.encode_ca(LinearCA(lattice, 2, 1, ((0, 0),), ([[1]],)))
    )
    target = write(tmp_path, "y.json", jsonio.encode_config(Z, periodic(2, 1, [[1], [0]])))
    out = tmp_path / "pre.json"
    assert main(["preimage", ca, target, "--out", str(out)]) == 3
    assert "periodic configurations require the integer group" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("depth", [MAX_FORCED_DEPTH + 1, 300])
def test_demo_sigma_prime_depth_above_the_cap_exits_4(tmp_path, depth):
    out = tmp_path / "sp.json"
    assert main(["demo", "sigma-prime", "--depth", str(depth), "--out", str(out)]) == 4
    assert not out.exists()


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


def test_ragged_blocks_in_a_ca_file_exit_3(tmp_path, capsys):
    """A 3 x 3 block beside a 2 x 2 one with dimV = 2 is a format error,
    reported with the block's shape, not a numpy failure."""
    rule = jsonio.encode_ca(LinearCA(Z, 5, 2, (0, 1), ([[1, 0], [0, 1]], [[1, 1], [0, 1]])))
    rule["blocks"][1] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert main(["invert", write(tmp_path, "ragged.json", rule)]) == 3
    assert "block shape (3, 3) does not match dimV=2" in capsys.readouterr().err


BIG = 2**70


def _malformed_inputs(tmp_path):
    """(label, argv) pairs, each naming input that is not exactly what the
    file formats allow: numbers that are not exact int64 integers, a cell
    listed twice, or JSON of the wrong shape."""
    ca_json = add_rule_json()
    ca = write(tmp_path, "ca.json", ca_json)
    cases = []
    for label, cells in [
        ("cells not pairs", [1]),
        ("cells an object", {"a": 1}),
        ("value a string", [[0, ["x"]]]),
        ("value a fraction", [[0, [1.5]]]),
        ("value beyond int64", [[0, [BIG]]]),
        ("cell listed twice", [[0, [1]], [0, [0]]]),
    ]:
        pattern = write(
            tmp_path, f"{len(cases)}.json", {"format": jsonio.PATTERN_FORMAT, "cells": cells}
        )
        cases.append(("pattern " + label, ["eval", ca, pattern]))
    for label, patch in [
        ("lattice dim", {"group": {"kind": "lattice", "dim": "x"}}),
        ("finite table", {"group": {"kind": "finite", "table": "ab"}}),
        ("free rank", {"group": {"kind": "free", "rank": "x"}}),
        ("p", {"p": 2.9}),
        ("dimV", {"dimV": 1.7}),
        ("memory", {"memory": [0, 1.5]}),
        ("fractional block", {"blocks": [[[1.5]], [[1]]]}),
        ("huge block", {"blocks": [[[BIG]], [[1]]]}),
    ]:
        path = write(tmp_path, f"{len(cases)}.json", dict(ca_json, **patch))
        cases.append(("CA " + label, ["invert", path]))
    for label, cells in [
        ("fraction", [[0, [1.5]]]),
        ("beyond int64", [[0, [BIG]]]),
        ("cell listed twice", [[0, [1]], [0, [1]]]),
    ]:
        config = {"format": jsonio.CONFIG_FORMAT, "kind": "finite-support", "cells": cells}
        path = write(tmp_path, f"{len(cases)}.json", config)
        cases.append(("eval config " + label, ["eval", ca, path]))
        cases.append(("preimage target " + label, ["preimage", ca, path]))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    cases += [
        ("JSON nested too deeply", ["invert", str(deep)]),
        ("restrict --generators 5", ["restrict", ca, "--generators", "5"]),
        ("restrict --generators {}", ["restrict", ca, "--generators", "{}"]),
        (
            "induce --generators 7",
            ["induce", ca, "--group", '{"kind": "integers"}', "--generators", "7"],
        ),
    ]
    return cases


def test_malformed_numbers_and_arguments_exit_3(tmp_path, capsys):
    for i, (label, argv) in enumerate(_malformed_inputs(tmp_path)):
        out = tmp_path / f"out{i}.json"
        assert main(argv + ["--out", str(out)]) == 3, label
        assert "error:" in capsys.readouterr().err, label
        assert not out.exists(), label


def test_integral_floats_and_booleans_read_as_integers(tmp_path):
    ca_json = dict(add_rule_json(), p=2.0, dimV=True, memory=[0.0, 1], blocks=[[[1.0]], [[True]]])
    ca = write(tmp_path, "ca.json", ca_json)
    assert jsonio.decode_ca(jsonio.loads((tmp_path / "ca.json").read_text())) == LinearCA(
        Z, 2, 1, (0, 1), ([[1]], [[1]])
    )
    x = write(tmp_path, "x.json", dict(delta_json(), cells=[[0.0, [1.0]]]))
    out = str(tmp_path / "y.json")
    assert main(["eval", ca, x, "--out", out]) == 0
    assert jsonio.loads((tmp_path / "y.json").read_text())["cells"] == [[-1, [1]], [0, [1]]]


def test_free_rank_above_26_is_rejected_before_any_solve(tmp_path, monkeypatch):
    from linca import solver

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran on an undecodable file")

    monkeypatch.setattr(solver, "invert_ca", no_solve)
    ca_json = dict(shift_ca_json(), group={"kind": "free", "rank": 27}, memory=["a"])
    with pytest.raises(jsonio.FormatError, match="rank"):
        jsonio.decode_ca(ca_json)
    out = tmp_path / "cert.json"
    assert main(["invert", write(tmp_path, "f27.json", ca_json), "--out", str(out)]) == 3
    assert not out.exists()


def test_lattice_dimension_shares_the_free_rank_bound():
    assert jsonio.decode_group({"kind": "lattice", "dim": 26}) == LatticeGroup(26)
    with pytest.raises(jsonio.FormatError, match="lattice dimension"):
        jsonio.decode_group({"kind": "lattice", "dim": 27})


def test_invert_on_a_huge_lattice_dimension_exits_3(tmp_path, capsys):
    """Z^2000 with an empty rule: ball(1) would recurse once per dimension."""
    ca_json = dict(shift_ca_json(), group={"kind": "lattice", "dim": 2000}, memory=[], blocks=[])
    out = tmp_path / "cert.json"
    assert main(["invert", write(tmp_path, "z2000.json", ca_json), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


def test_verify_of_a_huge_lattice_dimension_is_invalid_in_small_memory(tmp_path, capsys):
    """A certificate whose CA claims Z^(10^9) is rejected before any element
    of that length is built: identity() alone would take gigabytes."""
    rule = LinearCA(LatticeGroup(2), 2, 1, ((1, 0),), ([[1]],))
    ca = write(tmp_path, "z2.json", jsonio.encode_ca(rule))
    out = tmp_path / "cert.json"
    assert main(["invert", ca, "--out", str(out)]) == 0
    cert = jsonio.loads(out.read_text())
    cert["ca"]["group"]["dim"] = 10**9
    path = write(tmp_path, "huge.json", cert)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["verify", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 10
    assert capsys.readouterr().out.startswith("INVALID:")
    assert peak < 10 * 2**20, peak


def test_verify_reports_entries_beyond_int64_invalid(tmp_path, capsys):
    add = write(tmp_path, "add.json", add_rule_json())
    shift = write(tmp_path, "shift.json", shift_ca_json())
    for ca, edit in [
        (shift, lambda cert: cert["ca"]["blocks"][0][0].__setitem__(0, BIG)),
        (add, lambda cert: cert["payload"]["witness"]["values"][0].__setitem__(0, BIG)),
    ]:
        out = tmp_path / "cert.json"
        main(["invert", ca, "--out", str(out)])
        cert = jsonio.loads(out.read_text())
        edit(cert)
        assert main(["verify", write(tmp_path, "big.json", cert)]) == 10
        assert capsys.readouterr().out.startswith("INVALID: malformed certificate")


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
        cwd=SRC,
    )
    assert proc.returncode == 0
    demo_out = str(tmp_path / "demo.json")
    assert main(["demo", "sigma-prime", "--depth", "3", "--out", demo_out]) == 0
    for path in (out, demo_out):
        proc2 = subprocess.run(
            [sys.executable, "-m", "linca", "verify", path],
            capture_output=True,
            text=True,
            cwd=SRC,
        )
        assert proc2.returncode == 0
        assert "valid" in proc2.stdout


def test_out_of_memory_is_unknown(tmp_path, monkeypatch, capsys):
    """A preimage whose level does not fit the address space ends as an
    honest Unknown: exit 20, one stderr line naming the allocation, and no
    traceback.  The one-cell shift on Z^26 asks for a level of about 24,000
    coordinates; the limit applies to the child process only.  A
    MemoryError without a message still gets its one line."""
    resource = pytest.importorskip("resource")
    group = LatticeGroup(26)
    ca = LinearCA(group, 2, 1, ((1,) + (0,) * 25,), ([[1]],))
    ca_path = write(tmp_path, "ca.json", jsonio.encode_ca(ca))
    delta = finite_support(2, 1, {(0,) * 26: [1]})
    target = write(tmp_path, "target.json", jsonio.encode_config(group, delta))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "linca", "preimage", ca_path, target],
        capture_output=True,
        text=True,
        cwd=SRC,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 20, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert lines[0].startswith("unknown: out of memory (Unable to allocate")

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver, "preimage_extract", exhausted)
    assert main(["preimage", ca_path, target]) == 20
    out, err = capsys.readouterr()
    assert (out, err) == ("", "unknown: out of memory (allocation failed)\n")

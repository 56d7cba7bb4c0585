"""The benchmark's smoke workloads write the same certificates, byte for
byte.  Between them they cover every group kind and certificate path, so a
refactor that changes any answer or encoding shows here first.  The full
mixed-small batch pins every ``invert`` answer as well, Unknowns included,
so a pruned search that could have succeeded shows too.  A change to the
workload inputs under ``perfbench/`` updates these pins on purpose."""

import hashlib
from pathlib import Path

import pytest

from linca import jsonio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# workload: (certificates written at seed 7, sha256 prefix of their bytes
# concatenated in query order)
PINNED = {
    "invert-sigma": (4, "7e45dea89966fa64"),
    "preimage-plateau": (4, "bd98416b7efb8f50"),
    "mixed-small": (23, "76bc0667735a82fb"),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_smoke_certificate_bytes_are_pinned(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    written = []
    dumps = jsonio.dumps

    def recording_dumps(obj):
        written.append(dumps(obj))
        return written[-1]

    monkeypatch.setattr(jsonio, "dumps", recording_dumps)
    session = workloads.Session()
    for query in workloads.build(workload, 7, smoke=True):
        answer = query.run(session)
        assert answer.verified, (query.label, answer.detail)
    digest = hashlib.sha256("".join(written).encode()).hexdigest()
    assert (len(written), digest[:16]) == PINNED[workload]


def test_mixed_small_invert_catalogue_is_pinned(monkeypatch):
    """Every ``invert`` answer of the full mixed-small batch at seed 7: the
    certificate bytes, or the Unknown reason.  Pruning a search that cannot
    succeed must leave each of them unchanged."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    written = []
    dumps = jsonio.dumps

    def recording_dumps(obj):
        written.append(dumps(obj))
        return written[-1]

    monkeypatch.setattr(jsonio, "dumps", recording_dumps)
    session = workloads.Session()
    answers = []
    for query in workloads.build("mixed-small", 7):
        if not query.label.startswith("invert-"):
            continue
        written.clear()
        answer = query.run(session)
        assert answer.verified, (query.label, answer.detail)
        if answer.status == "certified":
            answers.append(written[-1])
        else:
            answers.append(f"unknown: {answer.result.reason}\n")
    unknown = sum(a.startswith("unknown: ") for a in answers)
    digest = hashlib.sha256("".join(answers).encode()).hexdigest()
    assert (len(answers), unknown, digest[:16]) == (144, 35, "7f4c9a8e7a5ab458")


def test_mixed_small_preimage_catalogue_is_pinned(monkeypatch):
    """Every ``preimage`` answer of the full mixed-small batch at seed 7:
    the certificate bytes, or the extraction's reason for Unknown.  Moving
    the window decision must leave each of them unchanged."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    written = []
    dumps = jsonio.dumps

    def recording_dumps(obj):
        written.append(dumps(obj))
        return written[-1]

    monkeypatch.setattr(jsonio, "dumps", recording_dumps)
    session = workloads.Session()
    answers = []
    for query in workloads.build("mixed-small", 7):
        if not query.label.startswith("preimage-"):
            continue
        written.clear()
        answer = query.run(session)
        assert answer.verified, (query.label, answer.detail)
        if answer.status == "certified":
            answers.append(written[-1])
        else:
            answers.append(f"unknown: {answer.result.detail}\n")
    unknown = sum(a.startswith("unknown: ") for a in answers)
    digest = hashlib.sha256("".join(answers).encode()).hexdigest()
    assert (len(answers), unknown, digest[:16]) == (144, 16, "bfa624f1f55e376b")

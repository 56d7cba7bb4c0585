"""The benchmark's smoke workloads write the same certificates, byte for
byte.  Between them they cover every group kind and certificate path, so a
refactor that changes any answer or encoding shows here first.  The full
invert-sigma and preimage-plateau batches, whose levels are the large
ones, are pinned the same way, and invert-sigma at a second seed too,
whose conjugates and inverse series differ.  The full mixed-small batch pins every
``invert`` answer as well, Unknowns included, so a pruned search that
could have succeeded shows too.  A change to the workload inputs under
``perfbench/`` updates these pins on purpose."""

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
# The same for the full batches whose levels are large, by (workload, seed).
PINNED_FULL = {
    ("invert-sigma", 7): (6, "f8500f852636864b"),
    ("invert-sigma", 8): (6, "d14fcb0ee8b63915"),
    ("preimage-plateau", 7): (6, "3c359eedb71b6517"),
}


@pytest.fixture
def written(monkeypatch):
    """Puts ``perfbench`` on the import path and returns the list that every
    ``jsonio.dumps`` output is appended to, in order."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    out = []
    dumps = jsonio.dumps

    def recording_dumps(obj):
        out.append(dumps(obj))
        return out[-1]

    monkeypatch.setattr(jsonio, "dumps", recording_dumps)
    return out


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_smoke_certificate_bytes_are_pinned(workload, written):
    import workloads

    session = workloads.Session()
    for query in workloads.build(workload, 7, smoke=True):
        answer = query.run(session)
        assert answer.verified, (query.label, answer.detail)
    digest = hashlib.sha256("".join(written).encode()).hexdigest()
    assert (len(written), digest[:16]) == PINNED[workload]


@pytest.mark.parametrize(
    "workload,seed",
    sorted(PINNED_FULL),
    ids=[w if s == 7 else f"{w}-seed{s}" for w, s in sorted(PINNED_FULL)],
)
def test_full_certificate_bytes_are_pinned(workload, seed, written):
    """The full batches, with the large levels the smoke batches shrink
    away."""
    import workloads

    session = workloads.Session()
    for query in workloads.build(workload, seed):
        answer = query.run(session)
        assert answer.verified, (query.label, answer.detail)
    digest = hashlib.sha256("".join(written).encode()).hexdigest()
    assert (len(written), digest[:16]) == PINNED_FULL[workload, seed]


def test_mixed_small_invert_catalogue_is_pinned(written):
    """Every ``invert`` answer of the full mixed-small batch at seed 7: the
    certificate bytes, or the Unknown reason.  Pruning a search that cannot
    succeed must leave each of them unchanged."""
    import workloads

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


def test_mixed_small_preimage_catalogue_is_pinned(written):
    """Every ``preimage`` answer of the full mixed-small batch at seed 7:
    the certificate bytes, or the extraction's reason for Unknown.  Moving
    the window decision must leave each of them unchanged."""
    import workloads

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

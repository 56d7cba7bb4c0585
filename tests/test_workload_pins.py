"""The benchmark's smoke workloads write the same certificates, byte for
byte.  Between them they cover every group kind and certificate path, so a
refactor that changes any answer or encoding shows here first.  A change to
the smoke inputs under ``perfbench/`` updates these pins on purpose."""

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

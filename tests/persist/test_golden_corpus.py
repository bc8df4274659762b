"""Golden-corpus regression: committed state dirs must restore forever.

Three journal+snapshot fixtures live under ``tests/persist/golden/``,
each with a pinned state fingerprint and canonical-encoding digest (see
``regenerate.py`` there).  Any change to the journal codec, snapshot
format, replay semantics, or fingerprint definition that silently alters
what old on-disk state restores to fails here — byte for byte, not just
"it loaded".

A failure means one of two things: an accidental format break (fix the
code), or a deliberate format change (rerun ``regenerate.py`` and commit
the new corpus with the change, noting it in DESIGN.md).  A change to
what the fingerprint or a capture covers, which old state still loads
under, re-pins only ``expected.json``: the committed state dirs then
keep proving that old snapshots load.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.engine.simulator import EngineConfig
from repro.persist.manager import PersistenceManager
from repro.persist.snapshot import dumps_state, state_digest

GOLDEN_ROOT = Path(__file__).resolve().parent / "golden"
FIXTURES = ("announce-only", "churn-checkpoint", "flap-replay")

# Must match regenerate.py: restore rebuilds with an explicit config.
CONFIG = SystemConfig(
    engine=EngineConfig(chip_count=2, dred_capacity=64, queue_capacity=64),
    update_queue_capacity=256,
)


def _expected(name):
    return json.loads(
        (GOLDEN_ROOT / name / "expected.json").read_text(encoding="ascii")
    )


@pytest.fixture(params=FIXTURES)
def fixture(request, tmp_path):
    """One corpus entry, copied aside so restore can never mutate it."""
    name = request.param
    source = GOLDEN_ROOT / name / "state"
    work = tmp_path / name
    shutil.copytree(source, work)
    return name, work


def test_corpus_is_committed():
    for name in FIXTURES:
        state = GOLDEN_ROOT / name / "state"
        assert (state / "journal").is_dir(), f"{name}: journal missing"
        assert (state / "snapshots").is_dir(), f"{name}: snapshots missing"
        assert (GOLDEN_ROOT / name / "expected.json").is_file()


def test_restore_reproduces_pinned_state(fixture):
    name, work = fixture
    expected = _expected(name)
    manager, report = PersistenceManager.restore(work, config=CONFIG)
    try:
        fingerprint = manager.system.state_fingerprint()
        state = manager.system.capture_state()
    finally:
        manager.close()
    assert fingerprint == expected["fingerprint"], (
        f"{name}: restored fingerprint drifted — the on-disk format or "
        f"replay semantics changed"
    )
    assert state_digest(state) == expected["state_sha256"], (
        f"{name}: canonical state encoding drifted byte-for-byte"
    )
    assert len(dumps_state(state)) == expected["state_bytes"]
    assert report.replayed_records >= 0


def test_storage_audit_accepts_the_corpus(fixture):
    name, work = fixture
    expected = _expected(name)
    manager, _report = PersistenceManager.restore(work, config=CONFIG)
    try:
        audit = manager.verify_storage()
    finally:
        manager.close()
    assert audit.ok, f"{name}: {audit.problems}"
    assert audit.journal_records == expected["journal_records"]
    assert audit.valid_snapshots == expected["snapshots"]


def test_corrupting_a_snapshot_byte_is_detected(fixture, tmp_path):
    name, work = fixture
    snapshots = sorted((work / "snapshots").iterdir())
    target = snapshots[-1]
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0x01
    target.write_bytes(bytes(blob))
    try:
        manager, _report = PersistenceManager.restore(work, config=CONFIG)
    except ValueError as exc:
        # Single-snapshot corpus: restore itself must refuse the flip.
        assert "digest mismatch" in str(exc)
        return
    # Multi-snapshot corpus: restore falls back to the predecessor, and
    # the storage audit must still name the damaged file.
    try:
        audit = manager.verify_storage()
    finally:
        manager.close()
    assert audit.corrupt_snapshots, (
        f"{name}: flipped snapshot byte went unnoticed"
    )

"""Cache hardening: checksums, quarantine, eviction, counters, env knob.

The acceptance case lives here too: a hand-corrupted design entry that is
a perfectly valid pickle of the *wrong* machine must be detected on load,
quarantined, and recomputed.
"""

import pickle

import pytest

from repro.automata.moore import MooreMachine
from repro.core.pipeline import design_predictor
from repro.perf import cache as cache_mod
from repro.perf.cache import (
    cache_enabled,
    cache_stats,
    cached,
    digest_of,
    quarantine_dir,
    reset_cache_stats,
    set_cache_enabled,
)
from repro.reliability.faults import inject_faults

TRACE = [int(ch) for ch in "000010001011110111101111"] * 4


def _entry_paths(tmp_cache, category, key):
    pkl = tmp_cache / category / key[:2] / f"{key}.pkl"
    return pkl, pkl.with_suffix(".sha256")


class TestChecksum:
    def test_sidecar_written_alongside_payload(self, tmp_cache):
        key = digest_of("hardening", 1)
        cached("unit", key, lambda: [1, 2, 3])
        pkl, sidecar = _entry_paths(tmp_cache, "unit", key)
        assert pkl.exists() and sidecar.exists()
        import hashlib

        assert sidecar.read_text().strip() == hashlib.sha256(
            pkl.read_bytes()
        ).hexdigest()

    def test_bit_rot_that_still_unpickles_is_caught(self, tmp_cache):
        """Flip a byte inside a payload crafted so the pickle still loads:
        only the checksum can catch it."""
        key = digest_of("hardening", 2)
        cached("unit", key, lambda: b"AAAA-BBBB-CCCC")
        pkl, _sidecar = _entry_paths(tmp_cache, "unit", key)
        payload = bytearray(pkl.read_bytes())
        # Flip one bit inside the bytes literal: still a loadable pickle,
        # but the content silently changed.
        index = payload.index(b"BBBB") + 1
        payload[index] ^= 0x01
        pkl.write_bytes(bytes(payload))
        assert pickle.loads(bytes(payload)) != b"AAAA-BBBB-CCCC"  # loads fine

        reset_cache_stats()
        healed = cached("unit", key, lambda: b"AAAA-BBBB-CCCC")
        assert healed == b"AAAA-BBBB-CCCC"
        assert cache_stats().quarantined == 1
        assert any(quarantine_dir().rglob(f"{key}.pkl"))

    def test_truncation_is_caught_and_quarantined(self, tmp_cache):
        key = digest_of("hardening", 3)
        cached("unit", key, lambda: list(range(100)))
        pkl, _ = _entry_paths(tmp_cache, "unit", key)
        pkl.write_bytes(pkl.read_bytes()[: 10])
        reset_cache_stats()
        assert cached("unit", key, lambda: list(range(100))) == list(range(100))
        assert cache_stats().quarantined == 1

    def test_missing_sidecar_is_a_plain_miss(self, tmp_cache):
        """Legacy entries (pre-checksum) are recomputed, not quarantined."""
        key = digest_of("hardening", 4)
        cached("unit", key, lambda: "value")
        _pkl, sidecar = _entry_paths(tmp_cache, "unit", key)
        sidecar.unlink()
        reset_cache_stats()
        assert cached("unit", key, lambda: "value") == "value"
        stats = cache_stats()
        assert stats.quarantined == 0
        assert stats.misses == 1


class TestCorruptDesignResult:
    def test_valid_pickle_wrong_machine_is_quarantined_and_recomputed(
        self, tmp_cache
    ):
        """The acceptance case: an entry that unpickles fine but carries a
        tampered machine must never reach a caller."""
        good = design_predictor(TRACE, order=2)
        pkls = list((tmp_cache / "designs").rglob("*.pkl"))
        assert len(pkls) == 1
        entry = pkls[0]

        tampered = pickle.loads(entry.read_bytes())
        machine = tampered.machine
        tampered.machine = MooreMachine(
            alphabet=machine.alphabet,
            start=machine.start,
            outputs=tuple(1 - out for out in machine.outputs),  # all wrong
            transitions=machine.transitions,
        )
        payload = pickle.dumps(tampered, protocol=pickle.HIGHEST_PROTOCOL)
        entry.write_bytes(payload)
        # Forge a *matching* checksum: only design verification can catch
        # this now.
        import hashlib

        entry.with_suffix(".sha256").write_text(
            hashlib.sha256(payload).hexdigest()
        )

        reset_cache_stats()
        recovered = design_predictor(TRACE, order=2)
        assert recovered.machine.outputs == good.machine.outputs
        assert recovered.machine.transitions == good.machine.transitions
        stats = cache_stats()
        assert stats.quarantined == 1
        assert any(quarantine_dir().rglob("*.pkl"))
        # And the repaired entry is a clean hit afterwards.
        again = design_predictor(TRACE, order=2)
        assert again.machine.outputs == good.machine.outputs
        assert cache_stats().hits == 1

    def test_forged_reference_memo_cannot_vouch_for_forged_machine(
        self, tmp_cache, monkeypatch
    ):
        """An entry whose machine *and* memoized reference chain are forged
        consistently: if the memo survived unpickling, verification would
        compare the forged machine with itself and pass.  Validation must
        check the machine against the cover instead."""
        import dataclasses
        import hashlib

        from repro.core.pipeline import DesignResult

        good = design_predictor(TRACE, order=2)
        entry = next((tmp_cache / "designs").rglob("*.pkl"))

        forged = pickle.loads(entry.read_bytes())
        machine = forged.machine
        forged.machine = MooreMachine(
            alphabet=machine.alphabet,
            start=machine.start,
            outputs=tuple(1 - out for out in machine.outputs),
            transitions=machine.transitions,
        )
        forged._reference = dataclasses.replace(
            forged.reference(), final=forged.machine
        )
        from repro.reliability.verify import design_ok

        assert design_ok(forged)  # the memo alone would vouch for it
        # Serialize the memo too, as a payload from elsewhere could.
        with monkeypatch.context() as patch:
            patch.setattr(
                DesignResult, "__getstate__", lambda self: dict(self.__dict__)
            )
            payload = pickle.dumps(forged, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_reference" in payload
        entry.write_bytes(payload)
        entry.with_suffix(".sha256").write_text(
            hashlib.sha256(payload).hexdigest()
        )

        reset_cache_stats()
        recovered = design_predictor(TRACE, order=2)
        assert recovered.machine == good.machine
        assert cache_stats().quarantined == 1

    def test_pickled_result_drops_reference_memo(self, tmp_cache):
        result = design_predictor(TRACE, order=2)
        assert result.minimized_states == 5  # populates the memo
        assert result._reference is not None
        clone = pickle.loads(pickle.dumps(result))
        assert clone._reference is None
        assert clone.minimized_states == 5


class TestEviction:
    def test_size_bound_evicts_oldest_first(self, tmp_cache, monkeypatch):
        import os
        import time

        blob = b"x" * 4096
        keys = [digest_of("evict", i) for i in range(6)]
        for i, key in enumerate(keys):
            cached("unit", key, lambda: blob)
            # Strictly increasing mtimes without sleeping.
            pkl, _ = _entry_paths(tmp_cache, "unit", key)
            os.utime(pkl, (time.time() + i, time.time() + i))
        reset_cache_stats()
        # ~12KB budget over ~24KB of entries: oldest ones must go.
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", str(12 / 1024))
        cached("unit", digest_of("evict", "trigger"), lambda: blob)
        assert cache_stats().evictions >= 2
        first_pkl, _ = _entry_paths(tmp_cache, "unit", keys[0])
        last_pkl, _ = _entry_paths(tmp_cache, "unit", keys[-1])
        assert not first_pkl.exists()
        assert last_pkl.exists()


class TestEnvKnob:
    def test_repro_cache_env_read_at_call_time(self, tmp_cache, monkeypatch):
        """REPRO_CACHE=0 set *after* import must bypass the cache (the old
        import-time freeze broke tests and pool workers)."""
        calls = []

        def compute():
            calls.append(1)
            return "v"

        key = digest_of("envknob", 1)
        cached("unit", key, compute)
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        cached("unit", key, compute)
        assert len(calls) == 2
        monkeypatch.delenv("REPRO_CACHE")
        assert cache_enabled()
        cached("unit", key, compute)
        assert len(calls) == 2  # hit again

    def test_runtime_switch_still_wins(self, tmp_cache):
        set_cache_enabled(False)
        try:
            assert not cache_enabled()
        finally:
            set_cache_enabled(True)
        assert cache_enabled()


class TestFaultHooks:
    def test_cache_read_fault_is_a_recovered_miss(self, tmp_cache):
        key = digest_of("faults", 1)
        cached("unit", key, lambda: "truth")
        reset_cache_stats()
        with inject_faults("cache_read:1"):
            assert cached("unit", key, lambda: "truth") == "truth"
        stats = cache_stats()
        assert stats.misses == 1 and stats.quarantined == 0

    def test_cache_write_fault_drops_the_entry_silently(self, tmp_cache):
        key = digest_of("faults", 2)
        with inject_faults("cache_write:1"):
            assert cached("unit", key, lambda: "truth") == "truth"
        pkl, _ = _entry_paths(tmp_cache, "unit", key)
        assert not pkl.exists()
        assert cached("unit", key, lambda: "truth") == "truth"
        assert pkl.exists()

    def test_cache_corrupt_fault_is_healed_on_next_read(self, tmp_cache):
        key = digest_of("faults", 3)
        with inject_faults("cache_corrupt:1"):
            cached("unit", key, lambda: "truth")
        reset_cache_stats()
        assert cached("unit", key, lambda: "truth") == "truth"
        assert cache_stats().quarantined == 1

"""The content-addressed artifact store: key derivation, atomic
writes, and — the point of this file — every way an entry can be bad.

A store entry must never poison an analysis: truncation, corruption,
version skew, key mismatch, and snapshots that disagree with the
binary all degrade to a recompute (counted under ``artifacts.stale``
or ``artifacts.misses``), and concurrent writers of one key race
benignly (atomic rename, last writer wins, no torn reads)."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro import telemetry
from repro.api import InstrumentOptions, analyze
from repro.artifacts import (
    MAGIC, SCHEMA_VERSION, ArtifactError, ArtifactStore, artifact_key,
    content_digest,
)
from repro.elf.writer import write_program
from repro.minicc import compile_source
from repro.minicc.workloads import fib_source


@pytest.fixture(scope="module")
def fib_elf():
    return write_program(compile_source(fib_source(8)))


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestKeyDerivation:
    def test_key_is_stable(self, fib_elf):
        d = content_digest(fib_elf)
        opts = InstrumentOptions().analysis_fields()
        assert artifact_key(d, opts) == artifact_key(d, opts)

    def test_analysis_options_change_the_key(self, fib_elf):
        d = content_digest(fib_elf)
        base = artifact_key(d, InstrumentOptions().analysis_fields())
        gapless = artifact_key(
            d, InstrumentOptions(gap_parsing=False).analysis_fields())
        interproc = artifact_key(
            d, InstrumentOptions(
                interprocedural_liveness=True).analysis_fields())
        assert len({base, gapless, interproc}) == 3

    def test_session_options_do_not_change_the_key(self, fib_elf):
        d = content_digest(fib_elf)
        a = artifact_key(d, InstrumentOptions().analysis_fields())
        b = artifact_key(d, InstrumentOptions(
            use_dead_registers=False,
            patch_base=0x4000_0000).analysis_fields())
        assert a == b

    def test_schema_version_participates(self, fib_elf):
        d = content_digest(fib_elf)
        opts = InstrumentOptions().analysis_fields()
        assert artifact_key(d, opts, schema_version=1) != \
            artifact_key(d, opts, schema_version=2)

    def test_content_participates(self, fib_elf):
        opts = InstrumentOptions().analysis_fields()
        assert artifact_key(content_digest(fib_elf), opts) != \
            artifact_key(content_digest(fib_elf + b"\0"), opts)

    def test_malformed_keys_rejected(self, store):
        for bad in ("", "../escape", ".hidden", "a/b"):
            with pytest.raises(ArtifactError):
                store.dir_for(bad)


class TestStoreRoundTrip:
    KEY = "deadbeef" * 5

    def test_load_store_meta(self, store):
        payload = {"cfg": {"blocks": [1, 2]}, "liveness": {}}
        store.store(self.KEY, payload, meta={"functions": 2})
        assert self.KEY in store
        assert store.keys() == [self.KEY]
        assert store.load(self.KEY) == payload
        assert store.meta(self.KEY)["functions"] == 2

    def test_absent_key_is_a_plain_miss(self, store):
        with telemetry.enabled() as rec:
            assert store.load(self.KEY) is None
        assert rec.snapshot()["counters"] == {"artifacts.misses": 1}

    def test_evict(self, store):
        store.store(self.KEY, {"x": 1})
        assert store.evict(self.KEY)
        assert self.KEY not in store
        assert not store.evict(self.KEY)

    def test_last_writer_wins(self, store):
        store.store(self.KEY, {"v": 1})
        store.store(self.KEY, {"v": 2})
        assert store.load(self.KEY) == {"v": 2}


class TestRejection:
    """Every flavour of bad entry is a stale miss, never an error."""

    KEY = "cafef00d" * 5

    def _stale_count(self, store):
        with telemetry.enabled() as rec:
            result = store.load(self.KEY)
        return result, rec.snapshot()["counters"].get("artifacts.stale")

    def _write_raw(self, store, blob: bytes):
        path = store.path_for(self.KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)

    def test_truncated_entry(self, store):
        store.store(self.KEY, {"cfg": {"big": "x" * 4096}})
        path = store.path_for(self.KEY)
        path.write_bytes(path.read_bytes()[: 100])
        result, stale = self._stale_count(store)
        assert result is None and stale == 1

    def test_garbage_entry(self, store):
        self._write_raw(store, b"\x7fELF not json at all")
        result, stale = self._stale_count(store)
        assert result is None and stale == 1

    def test_wrong_magic(self, store):
        self._write_raw(store, json.dumps({
            "magic": "someone.else/9", "schema_version": SCHEMA_VERSION,
            "key": self.KEY, "payload": {}}).encode())
        result, stale = self._stale_count(store)
        assert result is None and stale == 1

    def test_schema_version_skew(self, store):
        self._write_raw(store, json.dumps({
            "magic": MAGIC, "schema_version": SCHEMA_VERSION + 1,
            "key": self.KEY, "payload": {"cfg": {}}}).encode())
        result, stale = self._stale_count(store)
        assert result is None and stale == 1

    def test_key_mismatch(self, store):
        # an entry copied under the wrong directory name
        self._write_raw(store, json.dumps({
            "magic": MAGIC, "schema_version": SCHEMA_VERSION,
            "key": "0" * 40, "payload": {"cfg": {}}}).encode())
        result, stale = self._stale_count(store)
        assert result is None and stale == 1

    def test_non_dict_payload(self, store):
        self._write_raw(store, json.dumps({
            "magic": MAGIC, "schema_version": SCHEMA_VERSION,
            "key": self.KEY, "payload": [1, 2]}).encode())
        result, stale = self._stale_count(store)
        assert result is None and stale == 1


class TestAnalyzeIntegration:
    def test_cold_then_warm(self, fib_elf, store):
        with telemetry.enabled() as rec:
            cold = analyze(fib_elf, store=store)
        counters = rec.snapshot()["counters"]
        assert counters["artifacts.misses"] == 1
        assert counters["artifacts.stores"] == 1
        assert not cold.revived

        with telemetry.enabled() as rec:
            warm = analyze(fib_elf, store=store)
        snap = rec.snapshot()
        assert snap["counters"].get("artifacts.hits") == 1
        # the acceptance criterion: zero recomputation on a warm open
        assert not any(n.startswith("parse.") for n in snap["spans"])
        assert not any(n.startswith("liveness.")
                       for n in snap["counters"])
        assert warm.revived
        assert warm.key == cold.key
        assert sorted(warm.cfg.functions) == sorted(cold.cfg.functions)

    def test_options_mismatch_is_a_miss(self, fib_elf, store):
        analyze(fib_elf, store=store)
        with telemetry.enabled() as rec:
            other = analyze(
                fib_elf, InstrumentOptions(gap_parsing=False),
                store=store)
        counters = rec.snapshot()["counters"]
        assert counters.get("artifacts.misses") == 1
        assert "artifacts.hits" not in counters
        assert not other.revived
        assert len(store.keys()) == 2

    def test_corrupt_entry_recomputes_and_heals(self, fib_elf, store):
        cold = analyze(fib_elf, store=store)
        store.path_for(cold.key).write_bytes(b"{ torn")
        with telemetry.enabled() as rec:
            again = analyze(fib_elf, store=store)
        counters = rec.snapshot()["counters"]
        assert counters.get("artifacts.stale") == 1
        assert counters.get("artifacts.stores") == 1  # re-stored
        assert not again.revived
        assert analyze(fib_elf, store=store).revived  # healed

    def test_two_fresh_stores_hold_identical_bytes(self, fib_elf,
                                                   tmp_path):
        """An entry carries no wall-clock field: one binary analyzed
        into two fresh stores writes the same bytes, so the stored size
        repeats from run to run."""
        blobs = []
        for name in ("one", "two"):
            st = ArtifactStore(tmp_path / name)
            key = analyze(fib_elf, store=st).key
            blobs.append(st.path_for(key).read_bytes())
        assert blobs[0] == blobs[1]
        assert set(json.loads(blobs[0])["meta"]) == {
            "options", "functions", "source_paths"}

    def test_snapshot_for_wrong_binary_is_stale(self, fib_elf, store):
        """A validly-framed entry whose payload disagrees with the
        binary (here: a different mutatee's snapshot planted under our
        key) must degrade to recompute, not crash or mis-revive."""
        from repro.minicc.workloads import matmul_source

        other_elf = write_program(compile_source(matmul_source(4, 1)))
        planted = analyze(other_elf, store=store)
        key = artifact_key(content_digest(fib_elf),
                           InstrumentOptions().analysis_fields())
        store.store(key, store.load(planted.key))
        with telemetry.enabled() as rec:
            a = analyze(fib_elf, store=store)
        counters = rec.snapshot()["counters"]
        # loaded fine (a hit), but revival rejected it as stale
        assert counters.get("artifacts.hits") == 1
        assert counters.get("artifacts.stale") == 1
        assert not a.revived
        assert "fib" in {f.name for f in a.cfg.functions.values()}


def _intra_out_table(payload):
    """The first function's live-out table of an intraprocedural
    payload."""
    return payload["liveness"]["functions"][0][1]["out"]


def _interproc_out_table(payload):
    """The first function's live-out table of an interprocedural
    payload."""
    return payload["liveness"]["interproc"]["results"][0][2]


def _string_mask(payload, table):
    row = table(payload)[0]
    row[1] = str(row[1])


def _negative_mask(payload, table):
    table(payload)[0][1] = -1


def _missing_block(payload, table):
    del table(payload)[-1]


def _unknown_function(payload, table):
    functions = payload["liveness"]["interproc"]["results"]
    functions[0][0] += 2


class TestMalformedLiveness:
    """A stored liveness entry that parses as JSON but does not fit the
    binary is a stale miss: recomputed and rewritten, never a crash and
    never revived."""

    CASES = [
        ("intra", _string_mask), ("interproc", _string_mask),
        ("intra", _negative_mask), ("interproc", _negative_mask),
        ("intra", _missing_block), ("interproc", _missing_block),
        ("interproc", _unknown_function),
    ]

    @pytest.mark.parametrize(
        "kind,malform", CASES,
        ids=[f"{k}-{m.__name__[1:]}" for k, m in CASES])
    def test_is_stale_and_heals(self, fib_elf, store, kind, malform):
        opts = InstrumentOptions(
            interprocedural_liveness=kind == "interproc")
        cold = analyze(fib_elf, opts, store=store)
        payload = store.load(cold.key)
        malform(payload, _interproc_out_table if kind == "interproc"
                else _intra_out_table)
        store.store(cold.key, payload)

        with telemetry.enabled() as rec:
            again = analyze(fib_elf, opts, store=store)
        counters = rec.snapshot()["counters"]
        assert counters.get("artifacts.hits") == 1
        assert counters.get("artifacts.stale") == 1
        assert counters.get("artifacts.stores") == 1  # rewritten
        assert not again.revived
        assert store.load(cold.key) == cold.to_payload()
        assert analyze(fib_elf, opts, store=store).revived


def _writer_main(root, key, writer_id, rounds):
    st = ArtifactStore(root)
    blob = chr(ord("a") + writer_id) * 20_000
    for seq in range(rounds):
        st.store(key, {"writer": writer_id, "seq": seq, "blob": blob})


class TestConcurrentWriters:
    KEY = "feedface" * 5
    WRITERS = 4
    ROUNDS = 30

    def test_no_torn_reads_last_writer_wins(self, store):
        """Several processes hammer one key while this process reads:
        every successful load must be a complete payload from exactly
        one writer (atomic rename), and the final state is some
        writer's last round (last writer wins)."""
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_writer_main,
                             args=(os.fspath(store.root), self.KEY,
                                   i, self.ROUNDS))
                 for i in range(self.WRITERS)]
        for p in procs:
            p.start()
        observed = 0
        try:
            while any(p.is_alive() for p in procs):
                payload = store.load(self.KEY)
                if payload is None:
                    continue
                observed += 1
                expect = chr(ord("a") + payload["writer"]) * 20_000
                assert payload["blob"] == expect, "torn read"
        finally:
            for p in procs:
                p.join()
        assert all(p.exitcode == 0 for p in procs)
        final = store.load(self.KEY)
        assert final["seq"] == self.ROUNDS - 1
        assert final["blob"] == chr(ord("a") + final["writer"]) * 20_000
        assert observed > 0  # the reader actually raced the writers
        # no temp droppings left behind
        leftovers = [p for p in store.dir_for(self.KEY).iterdir()
                     if p.name.startswith(".tmp-")]
        assert not leftovers

"""Known-answer tests for the Blake2Ctr keystream engine.

The extent path (:meth:`Blake2Ctr.encrypt_extent`) serves whole extents
from a per-unit keystream cache, generates missing units through a
shared pre-keyed template and XORs on uint64 lanes; the per-sector path
shares the generator but not the cache. These KATs pin both against:

* an *independent* hashlib fixture built right here from the documented
  construction (``BLAKE2b(key=key, digest_size=64,
  data=sector_le64 || counter_le32)``), XORed with the big-int oracle,
* the per-sector path (``encrypt_sector`` / ``_keystream``),
* the extent path, warm and cold cache.

Coverage targets the shapes where a vectorized counter layout could
silently diverge: counters crossing byte boundaries (little-endian
layout), sectors past the 4 GiB mark and at the 64-bit ceiling, and the
cache.
A hardcoded seed-stability pin guards the construction itself against
accidental layout changes.
"""

import hashlib
import sys
import threading

import pytest

from repro.crypto.stream import Blake2Ctr, _chunk_counters
from tests.oracles import xor_bytes

KEY = bytes(range(32))
BIG_SECTOR = 5 << 33  # a byte offset > 4 GiB at 512-byte sectors
MAX_SECTOR = 2**64 - 1


def fixture_keystream(key: bytes, sector: int, nbytes: int) -> bytes:
    """The documented construction, straight from hashlib.

    Independent of everything in :mod:`repro.crypto.stream`: any bug
    shared by the per-sector and extent paths still loses against this.
    """
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        msg = sector.to_bytes(8, "little") + counter.to_bytes(4, "little")
        out += hashlib.blake2b(msg, key=key, digest_size=64).digest()
        counter += 1
    return bytes(out[:nbytes])


def fixture_encrypt_extent(
    key: bytes, sector: int, data: bytes, unit_bytes: int
) -> bytes:
    # each unit is addressed by the 512-byte sector number of its first
    # sector, exactly as Blake2Ctr.encrypt_extent documents
    step = unit_bytes // 512
    out = bytearray()
    for i in range(len(data) // unit_bytes):
        unit = data[i * unit_bytes : (i + 1) * unit_bytes]
        ks = fixture_keystream(key, sector + i * step, unit_bytes)
        out += xor_bytes(unit, ks)
    return bytes(out)


def _pattern(nbytes: int) -> bytes:
    return bytes((i * 89 + 17) % 256 for i in range(nbytes))


# ---------------------------------------------------------------------------
# Triangulation: hashlib fixture == per-sector path == extent path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sector",
    [0, 1, 5, 255, 256, 2**31, BIG_SECTOR, MAX_SECTOR - 16],
    ids=lambda s: f"sector={s}",
)
def test_extent_matches_fixture_and_scalar(sector):
    """One extent, the fixture and both paths, one answer."""
    unit = 4096
    data = _pattern(3 * unit)
    expected = fixture_encrypt_extent(KEY, sector, data, unit)

    cipher = Blake2Ctr(KEY)
    assert cipher.encrypt_extent(sector, data, unit) == expected
    # warm cache must not change the answer
    # per-sector path (units step by unit // 512 sectors)
    step = unit // 512
    scalar = b"".join(
        cipher.encrypt_sector(sector + i * step, data[i * unit : (i + 1) * unit])
        for i in range(3)
    )
    assert scalar == expected
    # round trip: CTR mode is its own inverse
    assert cipher.encrypt_extent(sector, expected, unit) == data


def test_counter_crosses_byte_boundaries():
    """Counters past 255 must lay out as 4-byte little-endian.

    A 20 KiB unit spans 320 BLAKE2b chunks, so counters cross the
    one-byte boundary inside one unit; a transposed or truncated counter
    layout in the vectorized message matrix diverges from the fixture
    immediately after counter 255.
    """
    unit = 64 * 320
    data = _pattern(unit)
    expected = fixture_encrypt_extent(KEY, 9, data, unit)
    cipher = Blake2Ctr(KEY)
    assert cipher.encrypt_extent(9, data, unit) == expected
    assert cipher.encrypt_sector(9, data) == expected


def test_sector_above_4gib_and_64bit_ceiling():
    """Sectors with high bytes set exercise the full 8-byte LE field."""
    unit = 512
    for sector in (BIG_SECTOR, MAX_SECTOR):
        data = _pattern(unit)
        expected = fixture_encrypt_extent(KEY, sector, data, unit)
        cipher = Blake2Ctr(KEY)
        assert cipher.encrypt_extent(sector, data, unit) == expected
        assert cipher.encrypt_sector(sector, data) == expected


def test_keystream_is_key_dependent():
    a = Blake2Ctr(KEY).encrypt_extent(0, bytes(4096), 4096)
    b = Blake2Ctr(bytes(32)).encrypt_extent(0, bytes(4096), 4096)
    assert a != b


# ---------------------------------------------------------------------------
# Cache semantics
# ---------------------------------------------------------------------------


def test_cache_hits_are_identical_to_cold():
    cipher = Blake2Ctr(KEY)
    data = _pattern(8 * 4096)
    cold = cipher.encrypt_extent(11, data, 4096)
    warm = cipher.encrypt_extent(11, data, 4096)
    cipher.clear_keystream_cache()
    recold = cipher.encrypt_extent(11, data, 4096)
    assert cold == warm == recold


def test_cache_eviction_never_corrupts():
    """Overflowing the unit cache drops the oldest entries, never
    falsifies them, and never empties the cache wholesale."""
    cipher = Blake2Ctr(KEY)
    extent = 64  # units per extent: below the streaming threshold
    data = _pattern(extent * 4096)
    # 40 extents of distinct units: 2,560 units, more than the cache holds
    sectors = [i * extent * 8 for i in range(40)]
    assert len(sectors) * extent > Blake2Ctr._CACHE_UNITS
    expected = {s: fixture_encrypt_extent(KEY, s, data, 4096) for s in sectors}
    sizes = []
    for s in sectors:
        assert cipher.encrypt_extent(s, data, 4096) == expected[s]
        sizes.append(len(cipher._ks_cache))
    # the cache grows to its ceiling and stays there
    assert sizes == [min((i + 1) * extent, Blake2Ctr._CACHE_UNITS)
                     for i in range(len(sectors))]
    # and again, in reverse, across the evictions
    for s in reversed(sectors):
        assert cipher.encrypt_extent(s, data, 4096) == expected[s]
        assert len(cipher._ks_cache) == Blake2Ctr._CACHE_UNITS


def _counting_generator(cipher):
    """Record the sectors *cipher* generates cold, one list per call."""
    calls = []
    generate = cipher._generate_units

    def counted(sectors, unit_bytes):
        calls.append(list(sectors))
        return generate(sectors, unit_bytes)

    cipher._generate_units = counted
    return calls


def _fill(cipher, nunits, first_sector):
    """Cache *nunits* cold units in small extents from *first_sector* on."""
    data = _pattern(Blake2Ctr._STREAM_UNITS * 4096)
    done = 0
    while done < nunits:
        n = min(Blake2Ctr._STREAM_UNITS, nunits - done)
        cipher.encrypt_extent(first_sector + 8 * done, data[: n * 4096], 4096)
        done += n


@pytest.mark.parametrize("extra", [0, 1], ids=["at-threshold", "one-above"])
def test_streaming_extent_reads_cache_but_does_not_fill_it(extra):
    """On a full cache, an extent of more than ``_CACHE_UNITS // 8``
    units (over 1 MiB) uses cached units but neither adds nor evicts
    any; one at the threshold is cached, evicting the oldest units."""
    threshold = Blake2Ctr._CACHE_UNITS // 8
    nunits = threshold + extra
    cipher = Blake2Ctr(KEY)
    small = _pattern(4 * 4096)
    cipher.encrypt_extent(16, small, 4096)  # caches units at sectors 16..40
    warm = list(cipher._ks_cache)
    _fill(cipher, Blake2Ctr._CACHE_UNITS - 4, first_sector=1 << 20)
    before = list(cipher._ks_cache)
    assert len(before) == Blake2Ctr._CACHE_UNITS
    assert before[:4] == warm
    calls = _counting_generator(cipher)
    data = _pattern(nunits * 4096)
    assert cipher.encrypt_extent(0, data, 4096) == fixture_encrypt_extent(
        KEY, 0, data, 4096
    )
    # the four warm units were hits, the rest generated cold
    (generated,) = calls
    assert len(generated) == nunits - 4
    assert not {s for s, _ in warm} & set(generated)
    if extra:
        assert list(cipher._ks_cache) == before
    else:
        # exactly the overflow goes, oldest first: the warm units too,
        # although this extent just hit them
        overflow = len(generated)
        assert list(cipher._ks_cache) == before[overflow:] + [
            (s, 4096) for s in generated
        ]


def test_scan_keeps_what_fits_for_the_read_back():
    """A streaming write of twice the cache fills it once and evicts
    nothing, so reading the working set back regenerates only the
    half that did not fit (the Fig. 4 dd write-then-read pattern)."""
    extent = 512  # units: a streaming extent
    cipher = Blake2Ctr(KEY)
    calls = _counting_generator(cipher)
    data = _pattern(extent * 4096)
    sectors = [i * extent * 8 for i in range(2 * Blake2Ctr._CACHE_UNITS // extent)]
    written = {}
    for s in sectors:
        written[s] = cipher.encrypt_extent(s, data, 4096)
        assert written[s] == fixture_encrypt_extent(KEY, s, data, 4096)
    assert sum(map(len, calls)) == 2 * Blake2Ctr._CACHE_UNITS
    assert len(cipher._ks_cache) == Blake2Ctr._CACHE_UNITS
    calls.clear()
    for s in sectors:
        assert cipher.decrypt_extent(s, written[s], 4096) == data
    assert sum(map(len, calls)) == Blake2Ctr._CACHE_UNITS
    # the first half of the working set stayed cached, and only it
    assert {s for s, _ in cipher._ks_cache} == {
        s + 8 * u for s in sectors[: len(sectors) // 2] for u in range(extent)
    }


def test_small_extent_overflow_evicts_exactly_the_overflow_oldest_first():
    """A hit does not reorder the cache (first-in first-out), and a small
    extent that overflows it evicts just its overflow from the front."""
    extent = 100  # units: a small extent
    cipher = Blake2Ctr(KEY)
    data = _pattern(extent * 4096)
    sectors = [i * extent * 8 for i in range(21)]  # 2,100 units
    for s in sectors[:20]:
        cipher.encrypt_extent(s, data, 4096)
    # re-reading the oldest extent hits it and moves nothing
    before = list(cipher._ks_cache)
    assert cipher.encrypt_extent(sectors[0], data, 4096) == (
        fixture_encrypt_extent(KEY, sectors[0], data, 4096)
    )
    assert list(cipher._ks_cache) == before
    assert len(before) == 20 * extent
    calls = _counting_generator(cipher)
    assert cipher.encrypt_extent(sectors[20], data, 4096) == (
        fixture_encrypt_extent(KEY, sectors[20], data, 4096)
    )
    overflow = 21 * extent - Blake2Ctr._CACHE_UNITS
    new = [(sectors[20] + 8 * u, 4096) for u in range(extent)]
    assert list(cipher._ks_cache) == before[overflow:] + new
    # the oldest extent's surviving tail is still served warm
    calls.clear()
    assert cipher.encrypt_extent(sectors[0], data, 4096) == (
        fixture_encrypt_extent(KEY, sectors[0], data, 4096)
    )
    assert calls == [[sectors[0] + 8 * u for u in range(overflow)]]
    assert len(cipher._ks_cache) == Blake2Ctr._CACHE_UNITS


def test_streaming_extent_fills_only_free_room():
    """A streaming extent admits its first cold units into the free room
    of a partly filled cache and evicts nothing to admit the rest."""
    cipher = Blake2Ctr(KEY)
    room = 48
    _fill(cipher, Blake2Ctr._CACHE_UNITS - room, first_sector=1 << 20)
    before = list(cipher._ks_cache)
    nunits = Blake2Ctr._STREAM_UNITS + 44
    data = _pattern(nunits * 4096)
    assert cipher.encrypt_extent(0, data, 4096) == fixture_encrypt_extent(
        KEY, 0, data, 4096
    )
    assert list(cipher._ks_cache) == before + [
        (8 * u, 4096) for u in range(room)
    ]


def test_ciphers_do_not_share_cache_across_keys():
    data = _pattern(4096)
    a = Blake2Ctr(KEY)
    b = Blake2Ctr(bytes(32))
    ea = a.encrypt_extent(0, data, 4096)  # warms a's cache
    assert b.encrypt_extent(0, data, 4096) != ea
    assert a.encrypt_extent(0, data, 4096) == ea


# ---------------------------------------------------------------------------
# Thread safety: the shared counter table is immutable per length
# ---------------------------------------------------------------------------


def _race(fn, threads=4):
    """Run ``fn(i)`` on *threads* threads released together by a barrier,
    with a tiny GIL switch interval so interleavings are dense."""
    barrier = threading.Barrier(threads, timeout=30)
    results = [None] * threads

    def run(i):
        barrier.wait()
        results[i] = fn(i)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in workers)
    return results


@pytest.fixture
def dense_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)
        _chunk_counters.cache_clear()


def test_chunk_counters_survive_concurrent_first_use(dense_switching):
    """Threads asking for a counter length nobody asked for yet all get
    ``counters[i] == i`` — a shared append-grown table could record one
    counter twice and shift every later chunk for good."""
    for trial in range(100):
        n = 1024 + 8 * trial  # longer than any length used before
        for counters in _race(lambda _i: _chunk_counters(n)):
            assert len(counters) == n, trial
            for i, counter in enumerate(counters):
                assert counter == i.to_bytes(4, "little"), (trial, i)


def test_threaded_encrypt_extent_matches_serial(dense_switching):
    """Per-device ciphers encrypting concurrently (the daemon's worker
    pool) produce exactly the serial, fixture-checked ciphertext."""
    for trial in range(12):
        unit = 512 * (160 + trial)  # a fresh counter length per trial
        data = _pattern(2 * unit)
        expected = fixture_encrypt_extent(KEY, 3, data, unit)
        got = _race(lambda _i: Blake2Ctr(KEY).encrypt_extent(3, data, unit))
        assert got == [expected] * 4, trial


# ---------------------------------------------------------------------------
# Seed / layout stability pins
# ---------------------------------------------------------------------------


def test_seed_stability_pins():
    """Hardcoded digests: the construction must never drift.

    These complement the scalar ``_keystream`` pin in test_crypto.py —
    they were computed from the vectorized path at the time the NumPy
    core landed and must stay stable forever (ciphertext on disk from
    older runs must keep decrypting).
    """
    cipher = Blake2Ctr(KEY)
    data = _pattern(3 * 4096)
    out = cipher.encrypt_extent(7, data, 4096)
    assert (
        hashlib.sha256(out).hexdigest()
        == "9dac60eaaf823102dd7aad9a40282a8545ac7c52105677de986887f74e942384"
    )
    out2 = cipher.encrypt_extent(BIG_SECTOR, data[:4096], 4096)
    assert (
        hashlib.sha256(out2).hexdigest()
        == "3b98a6b7b7e9a00765a0b0cb0fe15ca103908793251dcc32a9ef80c4678b014d"
    )
    assert cipher._keystream(MAX_SECTOR, 64).hex() == (
        "6f8067dc68bc7bb750b20bf7ad5689622741d7a0ccd20218b14600bd0ed415b9"
        "898ea74943090169bf3fff4ca58e2e1591cd384109763bfe3df36bbca7963298"
    )

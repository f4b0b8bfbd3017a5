"""Persistent, content-addressed, self-healing cache of repetition results.

A repetition (one :class:`~repro.core.experiment.RunSpec`) is a pure
function of its inputs, so its :class:`~repro.core.results.BandwidthSample`
can be reused across ``reproduce`` invocations.  The cache key is the
SHA-256 of a canonical JSON rendering of

* the complete :class:`~repro.cell.config.CellConfig` (every
  architectural and calibration knob),
* the kernel spec: each active SPE's :class:`~repro.core.kernels.DmaWorkload`
  plus the ``unrolled`` flag,
* the placement seed,
* the **code version**: a digest over every ``.py`` file of the
  ``repro`` package.

A :class:`~repro.core.experiment.ProgramSpec` (one run of a libspe
program, such as the streaming comparison's pipelines) is keyed the same
way over its program name and arguments instead of the workloads; its
``"program"`` field keeps it from ever sharing a repetition's key.

(:func:`spec_key` builds the key; :class:`~repro.runtime.journal.SweepJournal`
shares it, so a journal entry and a cache entry for the same repetition
always agree.)

Invalidation is purely by key: editing any model source changes the
code version, so every old entry simply stops matching — stale files
are never read, only orphaned (delete the cache directory, or set a
size cap, to reclaim the space).

The store heals itself instead of failing the sweep around it:

* corrupted, truncated or mistyped entries read as misses **and** are
  quarantined (moved to ``<root>/quarantine/``) so they are inspectable
  but never re-read; the ``corrupt`` counter records each one;
* an unwritable cache directory (read-only checkout, full filesystem)
  degrades :meth:`put` to a warn-once no-op — the sweep continues
  uncached rather than crashing mid-run;
* an optional size cap (``max_bytes``) evicts least-recently-used
  entries after each write (hits refresh an entry's mtime), with the
  ``evictions`` counter surfaced next to ``hits``/``misses`` in the
  ``reproduce`` summary.

Layout::

    .repro-cache/
      ab/abcdef...0123.json    # {"gbps": ..., "nbytes": ..., "cycles": ..., "seed": ...}
      quarantine/              # corrupt entries moved aside, never re-read

Writes go through a same-directory temp file and ``os.replace`` so a
crashed run never leaves a truncated entry behind, and concurrent
writers of the same key settle on one complete file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import warnings

from repro.core.results import BandwidthSample

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory of the cache root where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"

_code_version: str | None = None


def repro_code_version() -> str:
    """Digest of every ``.py`` source of the installed ``repro`` package.

    Computed once per process; any edit anywhere in the model, kernels,
    runtime or experiment protocol yields a new version and therefore a
    cold cache — the conservative choice, since the cache cannot know
    which module feeds which number.
    """
    global _code_version
    if _code_version is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_version = digest.hexdigest()
    return _code_version


def spec_key(spec, code_version: str) -> str:
    """Content address of one spec (a
    :class:`~repro.core.experiment.RunSpec` or a
    :class:`~repro.core.experiment.ProgramSpec`) under one code version.

    Shared by :class:`ResultCache` and
    :class:`~repro.runtime.journal.SweepJournal`, so the two stores
    address the same spec identically.  The hashed text is exactly
    ``json.dumps({"code": code_version, **spec.canonical()},
    sort_keys=True, separators=(",", ":"))``, assembled from the spec's
    pre-rendered fields (``canonical_json()``) rather than re-encoding
    the whole config for every spec.
    """
    fields = {"code": json.dumps(code_version), **spec.canonical_json()}
    blob = ",".join(f'"{name}":{fields[name]}' for name in sorted(fields))
    return hashlib.sha256(("{" + blob + "}").encode()).hexdigest()


def decode_sample(payload) -> BandwidthSample | None:
    """A sample from a JSON payload, or None if the entry is mistyped.

    JSON round-trips ``1.0`` and ``"1.0"`` and ``null`` equally
    happily, and :class:`BandwidthSample`'s own validation only
    checks *ranges* — a string ``gbps`` would sail through comparisons
    into :class:`~repro.core.results.BandwidthStats` and poison the
    reduction.  Exact ``type()`` checks (not ``isinstance``) also
    reject booleans, which Python would otherwise accept as ints.
    """
    if type(payload) is not dict:
        return None
    gbps = payload.get("gbps")
    nbytes = payload.get("nbytes")
    cycles = payload.get("cycles")
    seed = payload.get("seed")
    if type(gbps) not in (int, float):
        return None
    if type(nbytes) is not int or type(cycles) is not int or type(seed) is not int:
        return None
    try:
        return BandwidthSample(gbps=gbps, nbytes=nbytes, cycles=cycles, seed=seed)
    except ValueError:
        # Right types, impossible values (zero bytes, negative cycles):
        # still a corrupt entry, never a crash.
        return None


def encode_sample(sample: BandwidthSample) -> dict:
    """The JSON payload of one sample (the inverse of :func:`decode_sample`)."""
    return {
        "gbps": sample.gbps,
        "nbytes": sample.nbytes,
        "cycles": sample.cycles,
        "seed": sample.seed,
    }


class ResultCache:
    """JSON-file cache of repetition samples under ``root``.

    ``code_version`` defaults to :func:`repro_code_version`; tests pin
    it to exercise invalidation without editing sources.  ``max_bytes``
    (None = unbounded, the default) caps the total size of live
    entries; exceeding it after a write evicts least-recently-used
    entries until the cap holds again.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 code_version: str | None = None,
                 max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = root
        self.code_version = (
            repro_code_version() if code_version is None else code_version
        )
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self.put_errors = 0
        self._writable = True
        self._size_bytes: int | None = None

    def key(self, spec) -> str:
        """Content address of one repetition."""
        return spec_key(spec, self.code_version)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # Kept as a staticmethod alias: tests and the journal share the
    # decoding rules through the module-level functions.
    _decode = staticmethod(decode_sample)

    def get(self, spec, key: str | None = None) -> BandwidthSample | None:
        """The cached sample for a spec, or None (a miss).

        ``key`` lets a caller that already computed :meth:`key` (to pair
        this lookup with a later :meth:`put`) skip recomputing it.
        Corrupt or mistyped entries are quarantined, never raised.
        """
        if key is None:
            key = self.key(spec)
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError:
            # Missing entry (the common cold-cache case) or an
            # unreadable directory: a plain miss.
            self.misses += 1
            return None
        except ValueError:
            # Truncated or bit-flipped JSON: quarantine and re-simulate.
            self._quarantine(path)
            self.misses += 1
            return None
        sample = decode_sample(payload)
        if sample is None:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        if self.max_bytes is not None:
            # Touch for LRU: a hit keeps the entry young under eviction.
            with contextlib.suppress(OSError):
                os.utime(path)
        return sample

    def put(self, spec, sample: BandwidthSample, key: str | None = None) -> None:
        """Store a freshly simulated sample (atomic, last writer wins).

        Never raises on an unwritable filesystem: the first ``OSError``
        warns once and downgrades every later put to a no-op, so a
        read-only checkout or a full disk costs cache reuse, not the
        sweep.
        """
        if not self._writable:
            self.put_errors += 1
            return
        if key is None:
            key = self.key(spec)
        path = self._path(key)
        handle = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w", dir=os.path.dirname(path), suffix=".tmp", delete=False
            )
            with handle:
                json.dump(encode_sample(sample), handle)
            os.replace(handle.name, path)
        except OSError as error:
            self.put_errors += 1
            self._writable = False
            if handle is not None:
                with contextlib.suppress(OSError):
                    os.unlink(handle.name)
            warnings.warn(
                f"result cache {self.root!r} is not writable ({error}); "
                "continuing uncached",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        except BaseException:
            if handle is not None:
                with contextlib.suppress(OSError):
                    os.unlink(handle.name)
            raise
        if self.max_bytes is not None:
            self._account(path)

    # -- self-healing internals ------------------------------------------------

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so it is never re-read (best
        effort: on an unwritable filesystem the entry keeps reading as a
        miss, which is still correct, just slower)."""
        self.corrupt += 1
        dest_dir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            os.makedirs(dest_dir, exist_ok=True)
            os.replace(path, os.path.join(dest_dir, os.path.basename(path)))
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(path)

    def _entries(self) -> list[tuple[float, int, str]]:
        """Live entries as (mtime, size, path), quarantine excluded."""
        entries = []
        for dirpath, dirnames, filenames in os.walk(self.root):
            if QUARANTINE_DIR in dirnames:
                dirnames.remove(QUARANTINE_DIR)
            for filename in filenames:
                if not filename.endswith(".json"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                entries.append((status.st_mtime, status.st_size, path))
        return entries

    def _account(self, path: str) -> None:
        """Fold one fresh write into the running size; evict if over cap."""
        if self._size_bytes is None:
            self._size_bytes = sum(size for _, size, _ in self._entries())
        else:
            with contextlib.suppress(OSError):
                self._size_bytes += os.stat(path).st_size
        if self._size_bytes > self.max_bytes:
            self._evict()

    def _evict(self) -> None:
        """Delete least-recently-used entries until the cap holds."""
        entries = self._entries()
        self._size_bytes = sum(size for _, size, _ in entries)
        entries.sort()  # oldest mtime first
        for _mtime, size, path in entries:
            if self._size_bytes <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            self._size_bytes -= size
            self.evictions += 1

    def describe(self) -> str:
        """One-line health summary for the ``reproduce`` footer.

        Matches the historical ``N hit(s) / M miss(es)`` exactly when no
        self-healing event fired, so default-run summaries are unchanged.
        """
        text = f"{self.hits} hit(s) / {self.misses} miss(es)"
        if self.evictions:
            text += f", {self.evictions} evicted"
        if self.corrupt:
            text += f", {self.corrupt} quarantined"
        if self.put_errors:
            text += f", {self.put_errors} write error(s)"
        return text

"""Durable, content-fingerprint-keyed result store.

The cache and checkpoint of every campaign, the CPI table's
``cache_path`` included.  Every task a campaign executes is keyed by a
sha256 fingerprint over its ``(kind, payload)`` content and the code
that computes it (:func:`code_version`), and the result of executing it
is written durably — sqlite, one row per fingerprint, committed per put
— before the service acknowledges the task as done.  Four properties
follow:

* **dedup** — identical ``(kind, payload)`` work submitted by different
  jobs (or twice within one job) executes once; later submissions are
  served from the store;
* **crash-safe resume** — a service killed mid-campaign (SIGKILL
  included) restarts with every previously landed result intact, and a
  resubmitted campaign executes only the tasks whose fingerprints are
  missing.  Sqlite's journal makes each put atomic: a row is either
  fully present or absent, never torn;
* **auditability** — the ``executions`` column counts how many result
  rows were ever recorded per fingerprint.  ``INSERT OR IGNORE``
  semantics keep it at 1 even if two racing processes execute the same
  task, so "zero duplicated trial executions recorded in the store" is
  checkable after a chaos run (:meth:`ResultStore.max_executions`);
* **code-keyed** — an edit to any module of the ``repro`` package
  changes every fingerprint, so a store written by other code serves
  none of its rows; each row records the code that wrote it, and
  opening a store deletes the rows another version wrote
  (``stale_rows`` counts them).

A corrupt or truncated database file (torn by a mid-write power cut on
a non-atomic filesystem, or just garbage) is moved aside to
``<path>.corrupt`` and the store restarts empty rather than wedging the
service; a legacy JSON CPI cache at a table's ``cache_path`` is moved
aside the same way, and the table repopulates.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import time

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    payload     TEXT NOT NULL,
    result      TEXT NOT NULL,
    seconds     REAL NOT NULL,
    created     REAL NOT NULL,
    executions  INTEGER NOT NULL DEFAULT 1,
    code        TEXT NOT NULL DEFAULT ''
);
"""

_MISSING = object()

#: Fingerprints bound per ``IN (...)`` query: SQLite's default cap on a
#: statement's parameters (``SQLITE_MAX_VARIABLE_NUMBER``) since 3.32.
_MAX_PARAMS = 32_766


def canonical_json(value) -> str:
    """Canonical encoding used for fingerprints and stored payloads."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@functools.cache
def code_version() -> str:
    """sha256 over the ``repro`` package's module sources: every ``.py``
    file's path (relative to the package) and content digest, in sorted
    order.  Computed once per process (a few milliseconds)."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as source:
                digest.update(f"{relative}\n".encode("utf-8"))
                digest.update(hashlib.sha256(source.read()).digest())
    return digest.hexdigest()


def text_fingerprint(kind: str, payload_text: str) -> str:
    """Fingerprint of one task whose payload is already canonical JSON
    text: sha256 over the kind, :func:`code_version` and the text."""
    blob = f"{kind}\n{code_version()}\n{payload_text}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def task_fingerprint(kind: str, payload) -> str:
    """Content fingerprint of one task: sha256 over ``(kind, payload)``
    and the code version.

    The payload is canonicalized (sorted keys, tight separators) so two
    dicts with different key orders fingerprint identically.
    """
    return text_fingerprint(kind, canonical_json(payload))


class ResultStore:
    """Sqlite-backed durable result store (``path=None`` for in-memory).

    Results are JSON values; encoding task-kind-specific Python objects
    to and from JSON is the task registry's job
    (:mod:`repro.serve.tasks`), so the store stays type-agnostic.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: Puts that found the fingerprint already present (a racing
        #: writer won); the duplicate result is discarded, not recorded.
        self.duplicate_puts = 0
        self.recovered_corrupt = False
        #: Rows written by another :func:`code_version`, deleted at open.
        self.stale_rows = 0
        self._conn = self._connect()

    def _connect(self) -> sqlite3.Connection:
        target = self.path if self.path is not None else ":memory:"
        # check_same_thread=False: the store may be constructed on one
        # thread and pumped from another (e.g. the HTTP frontend's event
        # loop thread).  Access is serialized through the single service
        # pump, so sqlite never sees concurrent use of the connection.
        try:
            conn = sqlite3.connect(target, check_same_thread=False)
            self.stale_rows = self._prepare(conn)
            return conn
        except sqlite3.OperationalError:
            raise   # locked or unopenable: the file itself may be fine
        except sqlite3.DatabaseError:
            # Torn/garbage file: preserve it for forensics, start fresh.
            if self.path is None:
                raise
            self.recovered_corrupt = True
            try:
                os.replace(self.path, self.path + ".corrupt")
            except OSError:
                os.unlink(self.path)
            conn = sqlite3.connect(self.path, check_same_thread=False)
            self._prepare(conn)
            return conn

    @staticmethod
    def _prepare(conn: sqlite3.Connection) -> int:
        """Create the table, or add the ``code`` column to one written
        before rows recorded their code, then delete the rows another
        :func:`code_version` wrote (those without a code included): no
        fingerprint of this code reaches them.  Returns how many went;
        a store holding none is only read, so opening it takes no write
        lock."""
        conn.execute(_SCHEMA)
        columns = {row[1] for row in conn.execute("PRAGMA table_info(results)")}
        if "code" not in columns:
            conn.execute(
                "ALTER TABLE results ADD COLUMN code TEXT NOT NULL DEFAULT ''")
        version = (code_version(),)
        stale = conn.execute("SELECT COUNT(*) FROM results WHERE code != ?",
                             version).fetchone()[0]
        if stale:
            conn.execute("DELETE FROM results WHERE code != ?", version)
        conn.commit()
        return stale

    # ------------------------------------------------------------------

    def __contains__(self, fingerprint: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def get(self, fingerprint: str, default=_MISSING):
        """Stored (JSON-decoded) result for a fingerprint."""
        row = self._conn.execute(
            "SELECT result FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if row is None:
            self.misses += 1
            if default is _MISSING:
                raise KeyError(fingerprint)
            return default
        self.hits += 1
        return json.loads(row[0])

    def _select(self, column: str, fingerprints) -> list[tuple]:
        """``(fingerprint, column)`` rows of the stored ones among
        ``fingerprints``, in one query per :data:`_MAX_PARAMS` of them."""
        keys = list(dict.fromkeys(fingerprints))
        rows: list[tuple] = []
        for start in range(0, len(keys), _MAX_PARAMS):
            chunk = keys[start:start + _MAX_PARAMS]
            rows += self._conn.execute(
                f"SELECT fingerprint, {column} FROM results "
                f"WHERE fingerprint IN ({','.join('?' * len(chunk))})",
                chunk,
            ).fetchall()
        return rows

    def lookup(self, fingerprints: list[str]) -> set[str]:
        """Which of ``fingerprints`` are stored; counts a hit or a miss
        per entry, as :meth:`get` does per call."""
        stored = {row[0] for row in self._select("1", fingerprints)}
        hits = sum(1 for fingerprint in fingerprints if fingerprint in stored)
        self.hits += hits
        self.misses += len(fingerprints) - hits
        return stored

    def read(self, fingerprints: list[str]) -> list:
        """Each fingerprint's stored result, in order, decoded once per
        entry (so repeated fingerprints get distinct objects).

        A read-back of results already looked up, so it counts no hit;
        raises ``KeyError`` for an absent fingerprint.
        """
        text = dict(self._select("result", fingerprints))
        return [json.loads(text[fingerprint]) for fingerprint in fingerprints]

    def put(self, fingerprint: str, kind: str, payload_text: str, result,
            seconds: float = 0.0) -> bool:
        """Durably record one executed task's result.

        ``payload_text`` is the payload's :func:`canonical_json` text,
        the one its fingerprint was computed over; it is stored as
        given.  Returns ``True`` when the row was inserted, ``False``
        when the fingerprint was already present (the stored result
        wins — first writer take all, so the executions count never
        inflates).
        """
        self.puts += 1
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO results "
            "(fingerprint, kind, payload, result, seconds, created, code) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                kind,
                payload_text,
                canonical_json(result),
                float(seconds),
                time.time(),
                code_version(),
            ),
        )
        self._conn.commit()
        inserted = cursor.rowcount == 1
        if not inserted:
            self.duplicate_puts += 1
        return inserted

    def executions(self, fingerprint: str) -> int:
        """Recorded executions for a fingerprint (0 when absent)."""
        row = self._conn.execute(
            "SELECT executions FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return 0 if row is None else int(row[0])

    def max_executions(self) -> int:
        """Highest recorded execution count over the whole store.

        1 on a healthy store of any size — the chaos gate's dedup
        assertion; 0 when empty.
        """
        row = self._conn.execute(
            "SELECT COALESCE(MAX(executions), 0) FROM results"
        ).fetchone()
        return int(row[0])

    def executions_total(self) -> int:
        """Sum of recorded executions over the whole store.

        Equals ``rows`` on a healthy store (every fingerprint executed
        exactly once) — the audit the ``/stats`` health check reads
        without a separate sqlite query.
        """
        row = self._conn.execute(
            "SELECT COALESCE(SUM(executions), 0) FROM results"
        ).fetchone()
        return int(row[0])

    def seconds_total(self) -> float:
        """Total recorded execute seconds across all stored results."""
        row = self._conn.execute(
            "SELECT COALESCE(SUM(seconds), 0.0) FROM results"
        ).fetchone()
        return float(row[0])

    def kinds(self) -> dict[str, int]:
        """Stored row count per task kind."""
        return dict(
            self._conn.execute(
                "SELECT kind, COUNT(*) FROM results GROUP BY kind"
            ).fetchall()
        )

    def stats(self) -> dict:
        """JSON-ready store health snapshot."""
        return {
            "path": self.path,
            "rows": len(self),
            "stale_rows": self.stale_rows,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "duplicate_puts": self.duplicate_puts,
            "max_executions": self.max_executions(),
            "executions_total": self.executions_total(),
            "seconds_total": self.seconds_total(),
            "recovered_corrupt": self.recovered_corrupt,
            "kinds": self.kinds(),
        }

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

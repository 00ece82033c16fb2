"""Durable, content-fingerprint-keyed result store.

The cache and checkpoint of every campaign, the CPI table's
``cache_path`` included.  Every task a campaign executes is keyed by a
sha256 fingerprint over its ``(kind, payload)`` content, and the result
of executing it is written durably — sqlite, one row per fingerprint,
committed per put — before the service acknowledges the task as done.
Three properties follow:

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
  checkable after a chaos run (:meth:`ResultStore.max_executions`).

A corrupt or truncated database file (torn by a mid-write power cut on
a non-atomic filesystem, or just garbage) is moved aside to
``<path>.corrupt`` and the store restarts empty rather than wedging the
service; a legacy JSON CPI cache at a table's ``cache_path`` is moved
aside the same way, and the table repopulates.
"""

from __future__ import annotations

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
    executions  INTEGER NOT NULL DEFAULT 1
);
"""

_MISSING = object()


def canonical_json(value) -> str:
    """Canonical encoding used for fingerprints and stored payloads."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def task_fingerprint(kind: str, payload) -> str:
    """Content fingerprint of one task: sha256 over ``(kind, payload)``.

    The payload is canonicalized (sorted keys, tight separators) so two
    dicts with different key orders fingerprint identically.
    """
    blob = f"{kind}\n{canonical_json(payload)}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
        self._conn = self._connect()

    def _connect(self) -> sqlite3.Connection:
        target = self.path if self.path is not None else ":memory:"
        # check_same_thread=False: the store may be constructed on one
        # thread and pumped from another (e.g. the HTTP frontend's event
        # loop thread).  Access is serialized through the single service
        # pump, so sqlite never sees concurrent use of the connection.
        try:
            conn = sqlite3.connect(target, check_same_thread=False)
            conn.execute(_SCHEMA)
            conn.commit()
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
            conn.execute(_SCHEMA)
            conn.commit()
            return conn

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

    def put(self, fingerprint: str, kind: str, payload, result,
            seconds: float = 0.0) -> bool:
        """Durably record one executed task's result.

        Returns ``True`` when the row was inserted, ``False`` when the
        fingerprint was already present (the stored result wins — first
        writer take all, so the executions count never inflates).
        """
        self.puts += 1
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO results "
            "(fingerprint, kind, payload, result, seconds, created) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                kind,
                canonical_json(payload),
                canonical_json(result),
                float(seconds),
                time.time(),
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

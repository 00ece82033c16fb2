"""``repro.serve`` — the supervised simulation-as-a-service tier.

The one execution tier for every campaign in the tree (CPI tables,
DSE sweeps, fault campaigns, fuzz runs):

* :mod:`~repro.serve.service` — the campaign service and
  :func:`~repro.serve.service.run_campaign`, the campaigns' entry;
* :mod:`~repro.serve.supervisor` — health-checked worker pool with
  kill/respawn, deterministic backoff retries, poison-task quarantine,
  and serial degradation;
* :mod:`~repro.serve.admission` — bounded priority job queue, per-client
  rate limiting, load shedding;
* :mod:`~repro.serve.store` — durable content-fingerprint-keyed result
  store (sqlite) providing dedup and crash-safe checkpointed resume;
* :mod:`~repro.serve.tasks` — the JSON-pure task-kind registry;
* :mod:`~repro.serve.http` / :mod:`~repro.serve.client` — local
  HTTP/JSON API and the in-process/HTTP clients;
* :mod:`~repro.serve.chaos` — misbehaving task kinds for supervisor
  tests and the kill -9 chaos gate.

``python -m repro.serve --smoke`` is the CI gate; ``--chaos`` is the
kill -9 resume demonstration; ``--serve`` runs the HTTP frontend.
"""

import importlib

#: Public name -> defining module.  Imported on first access, so a
#: campaign that only needs the service, store and supervisor never
#: loads the HTTP frontend, ``asyncio`` or ``urllib``.
_EXPORTS = {
    "AdmissionController": "repro.serve.admission",
    "AdmissionError": "repro.serve.admission",
    "CampaignService": "repro.serve.service",
    "HttpClient": "repro.serve.client",
    "InProcessClient": "repro.serve.client",
    "Job": "repro.serve.service",
    "ResultStore": "repro.serve.store",
    "SupervisedTask": "repro.serve.supervisor",
    "Supervisor": "repro.serve.supervisor",
    "TaskOutcome": "repro.serve.supervisor",
    "canonical_json": "repro.serve.store",
    "execute": "repro.serve.tasks",
    "execute_traced": "repro.serve.tasks",
    "register": "repro.serve.tasks",
    "registered_kinds": "repro.serve.tasks",
    "task_fingerprint": "repro.serve.store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)

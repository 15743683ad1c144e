"""``repro.campaign.api`` — the one façade library users should import.

Everything a campaign needs — create it, run it (single- or
multi-host), serve it to remote joiners, check on it, read its report —
through module-level verbs plus a :class:`CampaignHandle` value object,
so callers stop reaching into ``runner.py``/``manifest.py`` internals::

    import repro.campaign.api as campaigns

    handle = campaigns.create(spec, "out/survey")   # or attach(...)
    handle.run()                                    # resumes automatically
    print(handle.status()["shards_pending"])

    # multi-host: one serve, any number of joins
    campaigns.serve("out/survey", port=8643)        # coordinator host
    campaigns.join("http://coord:8643")             # each worker host

``run`` is idempotent — it executes exactly the shards without a
stored result, so it *is* resume.
"""

from __future__ import annotations

from .coordinator import DEFAULT_PORT, CampaignCoordinator
from .queue import DEFAULT_LEASE_TTL, DEFAULT_QUARANTINE_AFTER
from .runner import Campaign
from .spec import CampaignSpec

__all__ = [
    "CampaignHandle",
    "attach",
    "create",
    "join",
    "report",
    "run",
    "serve",
    "status",
]


class CampaignHandle:
    """A campaign directory, held as a value object.

    Thin by design: every method is a forwarding verb over the
    underlying :class:`~repro.campaign.runner.Campaign`, which stays
    available as :attr:`raw` for the rare caller that needs internals.
    """

    def __init__(self, campaign: Campaign) -> None:
        self._campaign = campaign

    # -- identity --------------------------------------------------------
    @property
    def raw(self) -> Campaign:
        return self._campaign

    @property
    def spec(self) -> CampaignSpec:
        return self._campaign.spec

    @property
    def digest(self) -> str:
        return self._campaign.digest

    @property
    def directory(self) -> str:
        return str(self._campaign.paths.directory)

    def __repr__(self) -> str:
        return (
            f"CampaignHandle({self.directory!r}, "
            f"digest={self.digest[:12]}, name={self.spec.name!r})"
        )

    # -- verbs -----------------------------------------------------------
    def run(
        self,
        workers: "int | None" = None,
        max_shards: "int | None" = None,
    ) -> list:
        """Execute pending shards (idempotent; doubles as resume)."""
        return self._campaign.run(workers=workers, max_shards=max_shards)

    def serve(self, **kwargs) -> CampaignCoordinator:
        """A coordinator daemon over this campaign (caller starts it)."""
        return CampaignCoordinator(self._campaign, **kwargs)

    def join(self, **kwargs) -> dict:
        """Work this campaign's queue from this process (a directory join)."""
        from .worker import join as _join

        return _join(self.directory, **kwargs)

    def status(self) -> dict:
        return self._campaign.status()

    def report(self) -> dict:
        return self._campaign.current_report()

    def records(self) -> list:
        return self._campaign.records()


def create(spec: CampaignSpec, directory) -> CampaignHandle:
    """Materialize (or idempotently re-open) a campaign for ``spec``."""
    return CampaignHandle(Campaign.create(directory, spec))


def attach(directory) -> CampaignHandle:
    """Open the existing campaign at ``directory``."""
    return CampaignHandle(Campaign.open(directory))


def run(
    directory,
    workers: "int | None" = None,
    max_shards: "int | None" = None,
) -> list:
    """Attach and run (resume is automatic); the executed shard ids."""
    return attach(directory).run(workers=workers, max_shards=max_shards)


def serve(
    directory,
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
) -> CampaignCoordinator:
    """A coordinator daemon over ``directory`` (not yet started; use as
    a context manager, or call ``start_background``/``serve_forever``)."""
    return attach(directory).serve(
        host=host,
        port=port,
        lease_ttl=lease_ttl,
        quarantine_after=quarantine_after,
    )


def join(target, **kwargs) -> dict:
    """Work the campaign at ``target`` (directory or coordinator URL)."""
    from .worker import join as _join

    return _join(target, **kwargs)


def status(target) -> dict:
    """Campaign status from a directory or a coordinator URL."""
    if isinstance(target, str) and target.startswith(("http://", "https://")):
        from .worker import CoordinatorClient

        client = CoordinatorClient(target)
        try:
            return client.statz()
        finally:
            client.close()
    return attach(target).status()


def report(directory) -> dict:
    """The aggregate report of the (complete) campaign at ``directory``."""
    return attach(directory).report()

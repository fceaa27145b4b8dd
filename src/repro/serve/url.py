"""Store URLs: one string that names any store, local or remote.

Everywhere the harness accepts a store — ``RunConfig.from_url``, the
``--store`` flag of ``examples/reproduce_tables.py`` — the value is a
*store URL*:

* a plain path (``runs/store``, ``/var/repro/store``) opens a local
  :class:`~repro.persist.RunStore` on that directory, exactly as before;
* ``tcp://host:port`` (or ``repro+tcp://``) connects a
  :class:`~repro.serve.client.RemoteRunStore` to a TCP server;
* ``unix:///path/to.sock`` (or ``repro+unix://``) connects over a unix
  socket on the same machine — same protocol, no TCP stack;
* a comma-separated list of remote URLs
  (``tcp://a:9000,tcp://b:9000``) opens a
  :class:`~repro.serve.replicated.ReplicatedRunStore` that replicates
  writes across every server and fails reads over between them — one
  replica dying mid-sweep costs a breaker trip, not the run.

The ``repro+`` prefix exists for contexts that key behaviour off the
scheme and want it unambiguous; the short forms are canonical.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StoreError

#: schemes that open a RemoteRunStore; anything else is a local path
REMOTE_SCHEMES = ("tcp", "repro+tcp", "unix", "repro+unix")


def parse_store_url(url: str) -> tuple[str, Any]:
    """``("local", path)``, ``("tcp", (host, port))``, ``("unix", path)``
    or — for a comma-separated list of remote URLs —
    ``("multi", [(family, target), ...])``."""
    if "," in url and "://" in url:
        parts = [part.strip() for part in url.split(",") if part.strip()]
        addresses = []
        for part in parts:
            family, target = parse_store_url(part)
            if family in ("local", "multi"):
                raise StoreError(
                    f"malformed store URL {url!r}: every replica in a "
                    f"comma-separated list must be a remote URL"
                )
            addresses.append((family, target))
        if len(addresses) < 2:
            raise StoreError(
                f"malformed store URL {url!r}: a replica list needs at "
                f"least two remote URLs"
            )
        return ("multi", addresses)
    scheme, sep, rest = url.partition("://")
    if not sep:
        return ("local", url)
    scheme = scheme.lower()
    if scheme in ("tcp", "repro+tcp"):
        host, colon, port = rest.rstrip("/").rpartition(":")
        if not colon or not port.isdigit():
            raise StoreError(
                f"malformed store URL {url!r}: expected tcp://host:port"
            )
        return ("tcp", (host, int(port)))
    if scheme in ("unix", "repro+unix"):
        if not rest:
            raise StoreError(
                f"malformed store URL {url!r}: expected unix:///path/to.sock"
            )
        return ("unix", rest)
    raise StoreError(
        f"unknown store URL scheme {scheme!r} in {url!r}; "
        f"use a local path or one of {REMOTE_SCHEMES}"
    )


def open_store(url: str, **client_options: Any):
    """Open the store a URL names: local ``RunStore`` or ``RemoteRunStore``.

    ``client_options`` (``retry``, ``pool_size``) apply to remote URLs
    only; passing them with a local path is an error rather than a
    silent no-op.
    """
    family, target = parse_store_url(url)
    if family == "local":
        if client_options:
            raise StoreError(
                f"client options {sorted(client_options)} are meaningless "
                f"for local store path {url!r}"
            )
        from repro.persist import RunStore

        return RunStore(target)
    if family == "multi":
        from repro.serve.replicated import ReplicatedRunStore

        return ReplicatedRunStore(url, target, **client_options)
    from repro.serve.client import RemoteRunStore

    return RemoteRunStore(url, (family, target), **client_options)


def open_existing_store(url: str):
    """:func:`open_store` for commands that work on an existing store.

    A local path must already hold a store: a mistyped path raises
    ``StoreError("no store at …")`` instead of scaffolding an empty
    store there.
    """
    family, target = parse_store_url(url)
    if family == "local":
        from repro.persist import RunStore

        return RunStore(target, create=False)
    return open_store(url)

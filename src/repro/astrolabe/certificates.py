"""Certificates: authenticated, scoped statements.

The paper: Astrolabe is "secure, through pervasive use of
certificates" (§3); aggregation functions are certificates distributed
as mobile code; publishers must be authenticated and restricted (§8).

Substitution note (see DESIGN.md): instead of public-key signatures we
use HMAC with per-principal secrets held in a :class:`KeyChain`.  The
verify-before-install code paths, issuer identities, scopes and expiry
are identical to a PKI deployment; only the primitive differs, which
is irrelevant to the protocol behaviour being reproduced.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core.errors import CertificateError
from repro.core.identifiers import ZonePath


#: Scope string -> zone, one cache shared by every certificate in the
#: process: ``scope`` is read once per zone aggregation and per publish.
_parse_scope = functools.lru_cache(maxsize=1 << 10)(ZonePath.parse)


def _canonical(payload: Mapping[str, Any]) -> bytes:
    """Deterministic byte encoding of a payload for signing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


class KeyChain:
    """Registry of principals and their secrets.

    Stands in for the PKI: ``register`` models certificate-authority
    enrolment, ``secret_for`` models possessing the issuer's public key.
    """

    def __init__(self) -> None:
        self._secrets: Dict[str, bytes] = {}

    def register(self, principal: str, secret: Optional[bytes] = None) -> bytes:
        """Enrol ``principal``; derives a secret when none is given."""
        if secret is None:
            secret = hashlib.blake2b(
                f"keychain:{principal}".encode("utf-8"), digest_size=32
            ).digest()
        self._secrets[principal] = secret
        return secret

    def secret_for(self, principal: str) -> bytes:
        try:
            return self._secrets[principal]
        except KeyError:
            raise CertificateError(f"unknown principal {principal!r}") from None

    def __contains__(self, principal: str) -> bool:
        return principal in self._secrets


def sign(payload: Mapping[str, Any], secret: bytes) -> str:
    return hmac.new(secret, _canonical(payload), hashlib.sha256).hexdigest()


@dataclass(frozen=True)
class Certificate:
    """A signed statement by ``issuer`` about ``payload``."""

    kind: str
    issuer: str
    payload: tuple[tuple[str, Any], ...]
    signature: str

    @classmethod
    def issue(
        cls, kind: str, issuer: str, payload: Mapping[str, Any], keychain: KeyChain
    ) -> "Certificate":
        body = {"kind": kind, "issuer": issuer, **payload}
        signature = sign(body, keychain.secret_for(issuer))
        return cls(kind, issuer, tuple(sorted(payload.items())), signature)

    def verify(self, keychain: KeyChain) -> None:
        """Raise :class:`CertificateError` unless the signature holds."""
        body = {"kind": self.kind, "issuer": self.issuer, **dict(self.payload)}
        expected = sign(body, keychain.secret_for(self.issuer))
        if not hmac.compare_digest(expected, self.signature):
            raise CertificateError(
                f"bad signature on {self.kind} certificate from {self.issuer}"
            )

    def __getitem__(self, key: str) -> Any:
        for name, value in self.payload:
            if name == key:
                return value
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.payload:
            if name == key:
                return value
        return default


@dataclass(frozen=True)
class AggregationCertificate:
    """Mobile code: an AQL program authorized for a zone subtree.

    ``name`` identifies the function (replacing an older version with
    the same name requires a newer ``issued_at``); ``scope`` is the
    zone subtree whose tables it aggregates.
    """

    certificate: Certificate

    @classmethod
    def issue(
        cls,
        name: str,
        aql_source: str,
        issuer: str,
        keychain: KeyChain,
        scope: ZonePath = ZonePath(),
        issued_at: float = 0.0,
    ) -> "AggregationCertificate":
        payload = {
            "name": name,
            "aql": aql_source,
            "scope": str(scope),
            "issued_at": issued_at,
        }
        return cls(Certificate.issue("aggregation", issuer, payload, keychain))

    @property
    def name(self) -> str:
        return self.certificate["name"]

    @property
    def aql_source(self) -> str:
        return self.certificate["aql"]

    @property
    def scope(self) -> ZonePath:
        return _parse_scope(self.certificate["scope"])

    @property
    def issued_at(self) -> float:
        return self.certificate["issued_at"]

    def verify(self, keychain: KeyChain) -> None:
        self.certificate.verify(keychain)


@dataclass(frozen=True)
class PublisherCertificate:
    """Authorizes a publisher name to inject items (§8's restrictions).

    Carries the flow-control rate the infrastructure enforces and the
    widest zone the publisher may target.
    """

    certificate: Certificate

    @classmethod
    def issue(
        cls,
        publisher: str,
        issuer: str,
        keychain: KeyChain,
        max_rate: float = 10.0,
        scope: ZonePath = ZonePath(),
    ) -> "PublisherCertificate":
        payload = {
            "publisher": publisher,
            "max_rate": max_rate,
            "scope": str(scope),
        }
        return cls(Certificate.issue("publisher", issuer, payload, keychain))

    @property
    def publisher(self) -> str:
        return self.certificate["publisher"]

    @property
    def max_rate(self) -> float:
        return self.certificate["max_rate"]

    @property
    def scope(self) -> ZonePath:
        return _parse_scope(self.certificate["scope"])

    def verify(self, keychain: KeyChain) -> None:
        self.certificate.verify(keychain)

    def allows_zone(self, zone: ZonePath) -> bool:
        """May this publisher target ``zone``? (scoped publishing, §8)"""
        return self.scope.contains(zone)

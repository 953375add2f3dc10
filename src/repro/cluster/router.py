"""Request routing across engine replicas.

The router sees every replica's live state at the moment a request
arrives — outstanding work, and (when the prefix cache is on) how many
of the request's prompt tokens each replica's radix tree already holds
— and picks the replica the request is dispatched to. Three policies,
mirroring the spectrum SGLang's cache-aware load balancer spans:

* ``round_robin`` — cache- and load-blind cycling; the control case.
* ``least_outstanding_tokens`` — classic load balancing on the token
  backlog (un-prefilled prompt tokens + decode tokens still owed).
* ``cache_aware`` — probe each replica's radix tree for the longest
  prefix match and route to maximize KV reuse, *unless* the fleet is
  imbalanced beyond a cap, in which case it degrades to least-loaded
  routing until the backlog evens out. Affinity concentrates a prompt
  family's cache on one replica; the cap keeps a hot system prompt from
  melting it.

Policies are deterministic: ties always break toward the lowest replica
index, so a cluster run is reproducible for a fixed trace seed.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Sequence

from ..errors import ConfigError
from ..serving.request import Request


class ReplicaView(abc.ABC):
    """What a routing policy may observe about one replica."""

    index: int

    @property
    @abc.abstractmethod
    def outstanding_tokens(self) -> int:
        """Token backlog the replica still owes."""

    @abc.abstractmethod
    def probe_prefix(self, request: Request) -> int:
        """Prompt tokens of ``request`` the replica's cache would serve
        (0 without a prefix cache or a match). Must be side-effect free.
        """


class RoutingPolicy(abc.ABC):
    """Picks a replica for each arriving request."""

    name: str

    @abc.abstractmethod
    def select(
        self, request: Request, replicas: Sequence[ReplicaView]
    ) -> ReplicaView:
        """Choose the replica ``request`` is dispatched to.

        Every observation must go through the :class:`ReplicaView`
        interface alone (``outstanding_tokens``, ``probe_prefix``), and
        no cross-call state may depend on *when* replicas are
        simulated. The cluster fast loop relies on this: it routes
        whole arrival windows against lazy *analytic* views, whose
        backlogs replay closed-form from each replica's steady decode
        stretch and whose cache probes read a provably frozen radix
        tree, with a real replica sweep only where a closed form
        expires — and only for the replicas the policy reads. Window
        decisions are then exactly per-arrival dispatch's.
        """


def least_loaded(replicas: Sequence[ReplicaView]) -> ReplicaView:
    return min(replicas, key=lambda r: (r.outstanding_tokens, r.index))


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas in index order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(
        self, request: Request, replicas: Sequence[ReplicaView]
    ) -> ReplicaView:
        if not replicas:
            raise ConfigError("no replicas to route to")
        choice = replicas[self._next % len(replicas)]
        self._next += 1
        return choice


class LeastOutstandingPolicy(RoutingPolicy):
    """Route to the replica with the smallest token backlog."""

    name = "least_outstanding_tokens"

    def select(
        self, request: Request, replicas: Sequence[ReplicaView]
    ) -> ReplicaView:
        if not replicas:
            raise ConfigError("no replicas to route to")
        return least_loaded(replicas)


class CacheAwarePolicy(RoutingPolicy):
    """Longest-prefix-match routing under a load-imbalance cap.

    The fleet counts as *imbalanced* when the widest backlog gap exceeds
    ``balance_abs_tokens`` AND the most loaded replica carries more than
    ``balance_rel`` times the least loaded one — both thresholds must
    trip, so a busy-but-even fleet and a near-idle fleet with a trivial
    absolute gap each keep their cache affinity.
    """

    name = "cache_aware"

    def __init__(
        self, balance_abs_tokens: int = 16_384, balance_rel: float = 1.5
    ) -> None:
        if balance_abs_tokens < 0:
            raise ConfigError("balance_abs_tokens cannot be negative")
        if balance_rel < 1.0:
            raise ConfigError(
                f"balance_rel must be >= 1, got {balance_rel}"
            )
        self.balance_abs_tokens = balance_abs_tokens
        self.balance_rel = balance_rel

    def select(
        self, request: Request, replicas: Sequence[ReplicaView]
    ) -> ReplicaView:
        if not replicas:
            raise ConfigError("no replicas to route to")
        loads = [replica.outstanding_tokens for replica in replicas]
        lowest, highest = min(loads), max(loads)
        imbalanced = (
            highest - lowest > self.balance_abs_tokens
            and highest > self.balance_rel * max(lowest, 1)
        )
        if imbalanced:
            return least_loaded(replicas)
        matches = [replica.probe_prefix(request) for replica in replicas]
        best = max(matches)
        if best <= 0:
            # Nothing cached anywhere: place for load, which also seeds
            # distinct prompt families onto distinct replicas.
            return least_loaded(replicas)
        winners = [
            replica
            for replica, match in zip(replicas, matches)
            if match == best
        ]
        return least_loaded(winners)


#: Policy name -> constructor (cluster config kwargs are passed through
#: to ``cache_aware``; the others take none).
ROUTING_POLICIES: Dict[str, Callable[..., RoutingPolicy]] = {
    "round_robin": RoundRobinPolicy,
    "least_outstanding_tokens": LeastOutstandingPolicy,
    "cache_aware": CacheAwarePolicy,
}


def make_policy(name: str, **kwargs) -> RoutingPolicy:
    """Instantiate a routing policy by registry name."""
    try:
        factory = ROUTING_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(ROUTING_POLICIES))
        raise ConfigError(
            f"unknown routing policy {name!r}; known: {known}"
        ) from None
    if name != "cache_aware":
        kwargs = {}
    return factory(**kwargs)


def policy_names() -> List[str]:
    """Registered policy names in registry order."""
    return list(ROUTING_POLICIES)

"""Link behaviour model: delay, loss, duplication, reordering.

The paper's network assumptions (section 1): the network may lose, delay,
and duplicate messages, or deliver them out of order; link failures may
partition the network.  :class:`LinkModel` parameterizes exactly those
behaviours.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class LinkModel:
    """Stochastic behaviour of every link in a network.

    Attributes
    ----------
    base_delay:
        Minimum one-way latency.
    jitter:
        Uniform extra latency in ``[0, jitter]``.  Because each message draws
        its own jitter, messages can overtake each other -- this is how
        reordering arises, as it does in real datagram networks.
    loss_probability:
        Chance an individual message is silently dropped.
    duplicate_probability:
        Chance a message is delivered twice (the duplicate takes its own
        independent delay draw).
    """

    base_delay: float = 1.0
    jitter: float = 0.2
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if not 0.0 <= self.duplicate_probability < 1.0:
            raise ValueError("duplicate_probability must be in [0, 1)")


#: A well-behaved LAN: small constant-ish delay, no loss.
LAN = LinkModel(base_delay=1.0, jitter=0.2)

#: A lossy, jittery network that exercises retry paths.
LOSSY = LinkModel(
    base_delay=1.0, jitter=1.0, loss_probability=0.05, duplicate_probability=0.02
)

#: A wide-area network: long, highly variable delays with mild loss but no
#: partitions -- the regime where fixed LAN-tuned timeouts misfire (E16).
WAN = LinkModel(
    base_delay=5.0, jitter=4.0, loss_probability=0.02, duplicate_probability=0.01
)

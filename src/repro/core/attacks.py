"""Intrusion events, attack steps, and attacks.

The top layer of the paper's model describes *what we want to detect*.
An :class:`Event` is an atomic intrusion activity occurring at an asset
(e.g. "SQL query anomaly at db-1").  An :class:`Attack` is an ordered
sequence of :class:`AttackStep`\\ s, each referring to an event; steps
may be shared between attacks (reconnaissance steps typically are),
which is what makes joint monitor placement strictly better than
per-attack placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Event", "AttackStep", "Attack"]


@dataclass(frozen=True, slots=True)
class Event:
    """An atomic intrusion event occurring at a specific asset.

    Parameters
    ----------
    event_id:
        Unique identifier within a model.
    name:
        Human-readable label.
    asset_id:
        The asset at which the event manifests; monitors must observe
        this asset to collect evidence of the event.
    """

    event_id: str
    name: str
    asset_id: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.event_id:
            raise ValueError("event_id must be a non-empty string")
        if not self.asset_id:
            raise ValueError(f"event {self.event_id!r} must occur at an asset")


@dataclass(frozen=True, slots=True)
class AttackStep:
    """One step of an attack: a reference to an event plus its weight.

    ``weight`` expresses the step's relative importance to detecting
    the enclosing attack; weights need not sum to one (coverage metrics
    normalize).  ``required`` marks steps the attack cannot proceed
    without — a deployment covering every required step of an attack is
    said to *fully cover* it even if optional steps remain unobserved.
    """

    event_id: str
    weight: float = 1.0
    required: bool = True

    def __post_init__(self) -> None:
        if not self.event_id:
            raise ValueError("attack step must reference an event")
        if self.weight <= 0:
            raise ValueError(f"attack step weight must be > 0, got {self.weight!r}")


@dataclass(frozen=True, slots=True)
class Attack:
    """A multi-step intrusion, the unit of the utility metrics.

    Parameters
    ----------
    attack_id:
        Unique identifier within a model.
    name:
        Human-readable label (case study uses CAPEC-style names).
    steps:
        Ordered steps; an attack must have at least one.
    importance:
        Relative weight of this attack in aggregate utility, ``(0, 1]``.
        The case study derives it from likelihood and impact.
    """

    attack_id: str
    name: str
    steps: tuple[AttackStep, ...]
    importance: float = 1.0
    description: str = ""
    _total_step_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.attack_id:
            raise ValueError("attack_id must be a non-empty string")
        if not self.steps:
            raise ValueError(f"attack {self.attack_id!r} must have at least one step")
        if not 0.0 < self.importance <= 1.0:
            raise ValueError(
                f"attack importance must lie in (0, 1], got {self.importance!r} "
                f"for attack {self.attack_id!r}"
            )
        if len({s.event_id for s in self.steps}) != len(self.steps):
            raise ValueError(f"attack {self.attack_id!r} references an event in two steps")
        object.__setattr__(self, "_total_step_weight", sum(s.weight for s in self.steps))

    @property
    def event_ids(self) -> tuple[str, ...]:
        """The event ids of the steps, in attack order."""
        return tuple(s.event_id for s in self.steps)

    @property
    def required_event_ids(self) -> frozenset[str]:
        """Event ids of the required steps."""
        return frozenset(s.event_id for s in self.steps if s.required)

    @property
    def total_step_weight(self) -> float:
        """Sum of step weights (the coverage normalizer), summed once."""
        return self._total_step_weight

    def step_for_event(self, event_id: str) -> AttackStep:
        """The step referencing ``event_id``.

        Raises
        ------
        KeyError
            If no step of this attack references the event.
        """
        for step in self.steps:
            if step.event_id == event_id:
                return step
        raise KeyError(f"attack {self.attack_id!r} has no step for event {event_id!r}")

"""Restriction of an automaton to a subgroup containing its memory set, and
induction back up: push-forwards along the subgroup's recognize and embed
maps, injective on the memory, so the blocks stay untouched and the two are
exact inverses on normalized rules.  Induction is only defined along the
certified-injective embeddings produced by ``subgroup_generated``."""

from __future__ import annotations

from .ca import CAError, LinearCA, push_forward
from .groups import Subgroup


class TransferError(CAError):
    """Memory not inside the subgroup, or mismatched groups."""


def restrict(automaton: LinearCA, subgroup: Subgroup) -> LinearCA:
    """The same local rule viewed over the subgroup.

    Every memory element must be recognized by the subgroup; blocks are
    reused unchanged."""
    if subgroup.parent != automaton.group:
        raise TransferError("subgroup does not belong to the automaton's group")
    outside = [m for m in automaton.memory if subgroup.recognize(m) is None]
    if outside:
        raise TransferError(f"memory element {outside[0]!r} is outside the subgroup")
    return push_forward(automaton, subgroup.group, subgroup.recognize)


def induce(automaton: LinearCA, subgroup: Subgroup) -> LinearCA:
    """The same local rule viewed over the ambient group, memory embedded."""
    if subgroup.group != automaton.group:
        raise TransferError("automaton is not defined over the subgroup")
    return push_forward(automaton, subgroup.parent, subgroup.embed)

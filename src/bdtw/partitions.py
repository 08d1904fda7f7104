"""Ordered partitions of a graph's edge set and their boundary width.

Blocks are addressed by index because the same edge set may legitimately
occur as several blocks (empty blocks in particular).  Complements are
always taken relative to the host's full edge set, self-loops included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotApplicableError
from .graphs import Graph, blocks_boundary


@dataclass(frozen=True)
class EdgePartition:
    """A partition of E(host) into an ordered tuple of edge masks."""

    host: Graph
    blocks: tuple[int, ...]

    def __post_init__(self):
        overlap, missing = partition_defects(self.host, self.blocks)
        if overlap:
            raise ValueError("blocks overlap")
        if missing:
            raise ValueError("blocks do not cover the edge set")

    def block(self, i: int) -> int:
        return self.blocks[i]

    def __len__(self) -> int:
        return len(self.blocks)


def partition_defects(g: Graph, blocks: Iterable[int]) -> tuple[int, int]:
    """(overlap, missing): the edges in two or more blocks, and
    `union ^ g.full_mask`, the edges in no block along with any bit of a
    block outside E(g).  The blocks partition E(g) exactly when both are 0."""
    union = overlap = 0
    for b in blocks:
        overlap |= union & b
        union |= b
    return overlap, union ^ g.full_mask


def f_extension(p: EdgePartition, block_index: int, f: int) -> EdgePartition:
    """Move the edges of f into the chosen block and out of every other."""
    if not 0 <= block_index < len(p.blocks):
        raise IndexError(f"block index {block_index} out of range")
    if f & ~p.host.full_mask:
        raise ValueError("f contains edge ids outside the host")
    blocks = tuple(
        b | f if i == block_index else b & ~f for i, b in enumerate(p.blocks)
    )
    return EdgePartition(p.host, blocks)


def partition_boundary(p: EdgePartition) -> int:
    """Union of the edge-set boundaries of all blocks, as a vertex mask
    (`graphs.blocks_boundary`)."""
    return blocks_boundary(p.host, p.blocks)


def partition_width(p: EdgePartition) -> int:
    return partition_boundary(p).bit_count()


def check_submodularity_instance(
    p: EdgePartition, q: EdgePartition, x_index: int, y_index: int
) -> bool:
    """Whether wid(P)+wid(Q) >= wid(P with X extended by the complement of Y)
    + wid(Q with Y extended by the complement of X).

    Only defined when X and Y do not jointly cover the edge set.
    """
    if p.host != q.host:
        raise ValueError("partitions must share a host graph")
    full = p.host.full_mask
    x = p.block(x_index)
    y = q.block(y_index)
    if x | y == full:
        raise NotApplicableError("X and Y cover every edge; inequality not applicable")
    lhs = partition_width(p) + partition_width(q)
    rhs = partition_width(f_extension(p, x_index, full & ~y)) + partition_width(
        f_extension(q, y_index, full & ~x)
    )
    return lhs >= rhs

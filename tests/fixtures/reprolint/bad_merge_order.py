"""Deliberately bad: shard merges whose result depends on shard order.

Every function here passes on one core — shard order equals source
order when there is one shard — which is exactly why the M102/M103 rules
must catch the shapes statically.
"""

from typing import Dict


def render_totals(totals: Dict[str, int], out):
    for link in totals:  # M102: order-sensitive loop over a mapping
        out.append(f"{link}={totals[link]}")
    return out


class ShardLedger:
    def __init__(self):
        self.total = 0
        self.newest = None
        self.rows = []
        self.by_link = {}

    def merge_from(self, other):
        self.total += other.total
        self.newest = other.newest  # M103: last shard folded wins
        self.rows.append(other.newest)  # M103: fold-order accumulation
        for link, count in other.by_link.items():
            self.by_link[link] = count  # M103: colliding keys collide

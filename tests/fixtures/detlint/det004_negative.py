"""DET004 fixture: nothing here may be flagged.

Counters created per call or per instance belong to whoever holds them,
and module-level constants are never rebound.
"""

import itertools
from itertools import count

LIMIT = 10
NAMES = ("a", "b")


def fresh_ids():
    ids = itertools.count()
    return [f"job-{next(ids)}" for _ in range(LIMIT)]


class Issuer:
    def __init__(self):
        self.numbers = count()
        self.next_number = 0

    def issue(self):
        self.next_number += 1
        return next(self.numbers)


def closure():
    total = 0

    def bump():
        nonlocal total
        total += 1
        return total

    return bump

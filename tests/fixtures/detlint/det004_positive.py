"""DET004 fixture: every line tagged with an expect-DET004 marker must be flagged."""

import itertools
import itertools as it
from itertools import count
from itertools import count as ticker

_ids = itertools.count()  # expect: DET004
_aliased = it.count(1)  # expect: DET004
_bare = count()  # expect: DET004
_renamed: object = ticker(start=5)  # expect: DET004
_labels = (f"job-{n}" for n in itertools.count())  # expect: DET004

if True:
    _conditional = itertools.count()  # expect: DET004

_issued = 0


def next_label():
    global _issued  # expect: DET004
    _issued += 1
    return f"job-{_issued}"


def rebind(value):
    def inner():
        global _ids, _issued  # expect: DET004
        _ids = itertools.count(value)
        _issued = value

    inner()


class Registry:
    serial = itertools.count()  # expect: DET004

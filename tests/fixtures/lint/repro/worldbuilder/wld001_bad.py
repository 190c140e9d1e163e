"""WLD001 bad fixture: wall clock and ambient randomness in the world builder.

Lives under a ``repro/worldbuilder/`` directory because the rule is scoped
to the world-builder package; identical code elsewhere is DET001/DET002's
business.  (It trips those here too — the WLD001 tests run with
``select=("WLD001",)``.)
"""

import os
import random
import time
from datetime import datetime

from numpy import random as np_random


def pick_hosts(drafts: list) -> list:
    random.shuffle(drafts)
    return drafts[: int(time.time()) % 4]


def compiled_stamp() -> str:
    return datetime.now().isoformat()


def manifest_salt() -> bytes:
    return os.urandom(8) + os.getrandom(8)


_ = np_random
